"""Tests for surjection verdicts, pole classes, minimal-pair triples, and
pair embeddings."""

from __future__ import annotations

import importlib

import pytest

from arquiver.dorey import (
    DoreyTriple,
    condition_tag,
    dorey,
    dorey_twisted,
    dorey_untwisted,
    embed_pair_in_AR,
    minimal_pair_triple,
    multiple_pole_class,
)
from arquiver.quiver import DynkinQuiver, ar_quiver, minimal_pairs
from arquiver.rootsys import FiniteType, positive_roots, root_sequence
from arquiver.quiver import adapted_word
from arquiver.sequiver import pi, vertex_class
from arquiver.spectral import (
    AffineType,
    SpectralParam,
    denominator_roots_raw,
    dual_point,
    right_dual_point,
)

mq = SpectralParam.minus_q_power
ONE = SpectralParam.one()
A1_2 = AffineType.from_code("A1", 2)
A1_3 = AffineType.from_code("A1", 3)
A2_3 = AffineType.from_code("A2", 3)
D1_4 = AffineType.from_code("D1", 4)
D1_5 = AffineType.from_code("D1", 5)


def test_triple_validates_indices():
    with pytest.raises(ValueError):
        DoreyTriple(A1_3, (0, ONE), (1, ONE), (1, ONE))
    with pytest.raises(ValueError):
        DoreyTriple(A1_3, (1, ONE), (4, ONE), (1, ONE))


def test_type_a_conditions():
    first = DoreyTriple(A1_3, (1, mq(-1)), (1, mq(1)), (2, mq(0)))
    second = DoreyTriple(A1_3, (2, mq(-1)), (3, mq(2)), (1, mq(0)))
    assert dorey(first) == dorey_untwisted(first)
    assert dorey(first).holds and dorey(first).condition == "A-i"
    assert dorey(second).holds and dorey(second).condition == "A-ii"
    assert multiple_pole_class(first) == "simple"
    assert multiple_pole_class(second) == "simple"


def test_type_a_rejects_shifted_parameters():
    shifted = DoreyTriple(A1_3, (1, mq(-1)), (1, mq(2)), (2, mq(0)))
    assert not dorey(shifted).holds
    wrong_target = DoreyTriple(A1_3, (1, mq(-1)), (1, mq(1)), (3, mq(0)))
    assert not dorey(wrong_target).holds


def test_type_d_conditions():
    cases = (
        (DoreyTriple(D1_5, (1, mq(-2)), (2, mq(1)), (3, mq(0))), "D-i", "simple"),
        (DoreyTriple(D1_5, (2, mq(-3)), (3, mq(2)), (3, mq(0))), "D-ii", "double"),
        (DoreyTriple(D1_5, (4, mq(-2)), (5, mq(2)), (2, mq(0))), "D-iii", "simple"),
        (DoreyTriple(D1_5, (1, mq(-3)), (4, mq(2)), (5, mq(0))), "D-iii", "simple"),
    )
    for triple, tag, pole in cases:
        verdict = dorey(triple)
        assert verdict.holds and verdict.condition == tag
        assert multiple_pole_class(triple) == pole


def test_condition_tags_are_position_sensitive():
    assert condition_tag(D1_5, 3, 1, 2, (2, -1), (2, 5)) == "D-i"
    assert condition_tag(D1_5, 1, 3, 2, (2, -5), (2, 1)) == "D-i"
    assert condition_tag(D1_5, 2, 4, 5, (2, -2), (0, 4)) is None


def test_spin_parity_gates_third_condition():
    ok = DoreyTriple(D1_5, (4, mq(-2)), (5, mq(2)), (2, mq(0)))
    assert dorey(ok).condition == "D-iii"
    bad_parity = DoreyTriple(D1_5, (4, mq(-4)), (5, mq(4)), (1, mq(0)))
    assert not dorey(bad_parity).holds


def test_pole_class_requires_holding_triple():
    with pytest.raises(ValueError):
        multiple_pole_class(DoreyTriple(A1_3, (1, ONE), (1, ONE), (2, ONE)))


def test_dispatch_checks_twist():
    with pytest.raises(ValueError):
        dorey_untwisted(DoreyTriple(A2_3, (1, ONE), (1, ONE), (2, ONE)))
    with pytest.raises(ValueError):
        dorey_twisted(DoreyTriple(A1_3, (1, ONE), (1, ONE), (2, ONE)))


def test_twisted_verdict_carries_a_witness():
    triple = DoreyTriple(
        A2_3, (1, SpectralParam(0, -1)), (1, SpectralParam(0, 1)), (2, SpectralParam(0, 0))
    )
    verdict = dorey(triple)
    assert verdict.holds
    assert [(i, str(x)) for i, x in verdict.witness] == [
        (1, "q^-1"),
        (1, "q^1"),
        (2, "-q^0"),
    ]
    lifted = DoreyTriple(A1_3, *verdict.witness)
    assert dorey_untwisted(lifted).holds


def test_twisted_verdict_can_fail():
    triple = DoreyTriple(A2_3, (1, ONE), (1, ONE), (2, ONE))
    verdict = dorey(triple)
    assert not verdict.holds and verdict.witness is None


def test_folding_a_holding_triple_keeps_it_holding():
    for n in (3, 4, 5):
        g1 = AffineType.from_code("A1", n)
        g2 = g1.partner()
        for i in range(1, n):
            for j in range(1, n + 1 - i):
                triple = DoreyTriple(g1, (i, mq(-j)), (j, mq(i)), (i + j, mq(0)))
                assert dorey(triple).holds
                folded = [pi(g1, a, x) for a, x in (triple.a, triple.b, triple.c)]
                twisted = DoreyTriple(g2, *((v.i, v.x) for v in folded))
                assert dorey(twisted).holds


def test_minimal_pair_triple_frozen():
    ar = ar_quiver(DynkinQuiver(FiniteType("A", 2), ((1, 2),)), {1: 1, 2: 0})
    triple = minimal_pair_triple(ar, (1, 1), ((1, 0), (0, 1)))
    assert triple.g == A1_2
    assert [(i, str(x)) for i, x in (triple.a, triple.b, triple.c)] == [
        (1, "-q^-1"),
        (1, "-q^1"),
        (2, "q^0"),
    ]
    folded = minimal_pair_triple(ar, (1, 1), ((1, 0), (0, 1)), t=2)
    assert folded.g == AffineType.from_code("A2", 2)


def test_minimal_pair_triple_rejects_bad_input():
    ar = ar_quiver(DynkinQuiver(FiniteType("A", 2), ((1, 2),)))
    with pytest.raises(ValueError):
        minimal_pair_triple(ar, (1, 1), ((0, 1), (1, 0)))
    with pytest.raises(ValueError):
        minimal_pair_triple(ar, (1, 1), ((1, 0), (0, 1)), t=3)


def test_every_minimal_pair_yields_a_holding_triple():
    q = DynkinQuiver(FiniteType("A", 3), ((1, 2), (2, 3)))
    ar = ar_quiver(q)
    order = root_sequence(q.ftype, adapted_word(q, "w0"))
    for alpha in positive_roots(q.ftype):
        for pair in minimal_pairs(order, alpha):
            for t in (1, 2):
                triple = minimal_pair_triple(ar, alpha, pair, t=t)
                assert dorey(triple).holds


def test_embed_pair_frozen_witnesses():
    res = embed_pair_in_AR(A1_2, vertex_class(A1_2, 1, ONE), vertex_class(A1_2, 1, mq(2)))
    assert res.found
    assert res.quiver.arrows == ((1, 2),)
    assert res.height == {1: 0, 2: -1}
    assert str(res.shift) == "q^2"
    assert res.positions == ((1, -2), (1, 0))

    res = embed_pair_in_AR(A1_3, vertex_class(A1_3, 1, ONE), vertex_class(A1_3, 2, mq(3)))
    assert res.found and res.positions == ((1, -4), (2, -1))
    assert str(res.shift) == "q^4"

    res = embed_pair_in_AR(D1_4, vertex_class(D1_4, 2, ONE), vertex_class(D1_4, 4, mq(3)))
    assert res.found and res.positions == ((2, -5), (4, -2))
    assert res.quiver.arrows == ((1, 2), (2, 3), (2, 4))


def test_embed_witness_reproduces_both_points():
    v = vertex_class(D1_4, 2, ONE)
    w = vertex_class(D1_4, 4, mq(3))
    res = embed_pair_in_AR(D1_4, v, w)
    (iv, pv), (iw, pw) = res.positions
    assert (iv, iw) == (v.i, w.i)
    assert res.shift * mq(pv) == v.x
    assert res.shift * mq(pw) == w.x
    ar = ar_quiver(res.quiver, res.height)
    assert (iv, pv) in ar.gamma_vertices and (iw, pw) in ar.gamma_vertices


def test_embed_pair_failure_signals():
    res = embed_pair_in_AR(A1_2, vertex_class(A1_2, 1, ONE), vertex_class(A1_2, 2, mq(3)))
    assert not res.found and res.reason == "dual pair"
    res = embed_pair_in_AR(
        A1_2, vertex_class(A1_2, 1, ONE), vertex_class(A1_2, 2, SpectralParam(0, 1))
    )
    assert not res.found and res.reason == "not adjacent"
    res = embed_pair_in_AR(A1_3, vertex_class(A1_3, 1, ONE), vertex_class(A1_3, 1, mq(1)))
    assert not res.found and res.reason == "not adjacent"


def test_embed_pair_rejects_twisted_input():
    with pytest.raises(ValueError):
        embed_pair_in_AR(A2_3, vertex_class(A2_3, 1, ONE), vertex_class(A2_3, 1, mq(2)))


def test_embed_pair_rejects_classes_of_another_type():
    a1_5 = AffineType.from_code("A1", 5)
    v, w = vertex_class(a1_5, 1, ONE), vertex_class(a1_5, 1, mq(2))
    assert embed_pair_in_AR(a1_5, v, w).found
    for pair in ((v, w), (vertex_class(A1_3, 1, ONE), w), (v, vertex_class(A1_3, 1, mq(2)))):
        with pytest.raises(ValueError, match="different affine types"):
            embed_pair_in_AR(A1_3, *pair)


def _adjacent_pairs(g1: AffineType):
    """Every adjacent, non-dual pair (i, q^0), (j, (-q)^e): (-q)^e or
    (-q)^-e is a zero of d_{i,j}."""
    for i in g1.index_set:
        v = vertex_class(g1, i, ONE)
        for j in g1.index_set:
            exps = {s * m for _, m in denominator_roots_raw(g1, i, j) for s in (1, -1)}
            for e in sorted(exps):
                if (j, mq(e)) not in (dual_point(g1, i, ONE), right_dual_point(g1, i, ONE)):
                    yield v, vertex_class(g1, j, mq(e))


def test_every_adjacent_pair_embeds_and_revalidates():
    """A2..A16 and D4..D14: each witness is re-checked against a fresh
    ar_quiver at the reported orientation and height function."""
    pairs = 0
    for family, ns in (("A", range(2, 17)), ("D", range(4, 15))):
        for n in ns:
            g1 = AffineType(family, 1, n)
            ars = {}
            for v, w in _adjacent_pairs(g1):
                res = embed_pair_in_AR(g1, v, w)
                assert res.found, (g1, v, w)
                key = (res.quiver, tuple(res.height.items()))
                if key not in ars:
                    ars[key] = ar_quiver(res.quiver, res.height)
                (iv, pv), (iw, pw) = res.positions
                assert (iv, iw) == (v.i, w.i)
                assert {(iv, pv), (iw, pw)} <= ars[key].gamma_vertices
                assert res.shift * mq(pv) == v.x and res.shift * mq(pw) == w.x
                pairs += 1
    assert pairs == 17996


@pytest.mark.parametrize(
    "g1", [AffineType("A", 1, 24), AffineType("D", 1, 24)], ids=lambda g: f"{g.code}_{g.N}"
)
def test_embedding_tries_at_most_four_orientations(g1, monkeypatch):
    """At rank 24 a scan over all 2^23 orientations would not finish; count
    the AR quivers the search asks for instead of timing it."""
    dorey_mod = importlib.import_module("arquiver.dorey")
    cached = dorey_mod._ar_cached
    calls = []

    def counting(q):
        calls.append(q)
        return cached(q)

    monkeypatch.setattr(dorey_mod, "_ar_cached", counting)
    n = g1.N
    checked = 0
    for v, w in _adjacent_pairs(g1):
        if v.i in (1, n // 2, n) and w.i in (1, n - 1, n):
            calls.clear()
            assert embed_pair_in_AR(g1, v, w).found
            assert 1 <= len(calls) <= 4
            checked += 1
    assert checked > 0
