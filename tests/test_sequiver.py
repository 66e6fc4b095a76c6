"""Tests for spectral-point classes, the distinguished component, the folding
map, and Schur-Weyl quivers."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from arquiver import sequiver
from arquiver.quiver import DynkinQuiver, ar_quiver
from arquiver.rootsys import FiniteType, cartan_matrix, distance
from arquiver.sequiver import (
    LabeledQuiver,
    SeVertex,
    class_arrow_mult,
    has_sign_quotient,
    lattice_test,
    pi,
    pi_preimages,
    schur_weyl_quiver,
    se0_contains,
    se0_seed,
    se0_window,
    se_window,
    vertex_class,
)
from arquiver.spectral import AffineType, SpectralParam, zero_order

A1_2 = AffineType.from_code("A1", 2)
A1_3 = AffineType.from_code("A1", 3)
A2_3 = AffineType.from_code("A2", 3)
A2_4 = AffineType.from_code("A2", 4)
D1_4 = AffineType.from_code("D1", 4)
D2_5 = AffineType.from_code("D2", 5)
ONE = SpectralParam.one()


def test_sign_quotient_nodes():
    assert [has_sign_quotient(A2_3, i) for i in (1, 2)] == [False, True]
    assert [has_sign_quotient(A2_4, i) for i in (1, 2)] == [False, False]
    assert [has_sign_quotient(D2_5, i) for i in (1, 2, 3, 4)] == [True, True, True, False]
    assert not has_sign_quotient(A1_3, 2)


def test_class_canonical_representative():
    v = SeVertex(A2_3, 2, SpectralParam(2, 5))
    assert v.x == SpectralParam(0, 5)
    assert [str(m) for m in v.members()] == ["q^5", "-q^5"]
    w = SeVertex(A2_3, 1, SpectralParam(2, 5))
    assert [str(m) for m in w.members()] == ["-q^5"]
    assert str(vertex_class(A2_3, 2, SpectralParam(3, 1))) == "2:iq^1"


def test_distinguished_component_membership():
    assert se0_contains(A1_3, 1, ONE)
    assert not se0_contains(A1_3, 1, SpectralParam(2, 1))
    assert se0_contains(A1_3, 2, SpectralParam(2, 1))
    checks = [se0_contains(D2_5, 4, SpectralParam.parse(s)) for s in ("q^2", "-q^2", "iq^2", "q^3")]
    assert checks == [True, True, False, False]
    checks = [se0_contains(D2_5, 3, SpectralParam.parse(s)) for s in ("iq^0", "q^1", "q^0")]
    assert checks == [False, True, False]


def _se0_closed_form(g: AffineType, i: int, x: SpectralParam) -> bool:
    """Se0 membership case by case; the oracle for the parity-lattice form."""
    v = vertex_class(g, i, x)
    x = v.x
    n = g.N
    if g.twist == 1:
        anchor = 1 if g.family == "A" else n - 1
        e = x.minus_q_exponent()
        return e is not None and e % 2 == distance(g.classical(), anchor, i) % 2
    if g.family == "A":
        if n % 2 == 0:
            return x.minus_q_exponent() is not None
        return x.zeta % 2 == 0 and x.m % 2 == (i + 1) % 2
    if i <= n - 2:
        if x.zeta == 1:
            return x.m % 2 == 0 and (n - 1 - i) % 2 == 0
        if x.zeta == 0:
            return x.m % 2 == 1 and (n - 1 - i) % 2 == 1
        return False
    return x.zeta in (0, 2) and x.m % 2 == 0


def _small_types(nmax: int) -> list[AffineType]:
    return [
        AffineType.from_code(code, n)
        for code in ("A1", "A2", "D1", "D2")
        for n in range(2 if code[0] == "A" else 4, nmax + 1)
    ]


def test_se0_membership_matches_closed_form():
    # zeta runs over all of mu_4, so sign-quotient nodes are queried through
    # both representatives of each class.
    for g in _small_types(9):
        bound = 4 * g.N
        expected = set()
        for i in g.index_set:
            for zeta in range(4):
                for m in range(-bound, bound + 1):
                    x = SpectralParam(zeta, m)
                    member = _se0_closed_form(g, i, x)
                    assert se0_contains(g, i, x) == member, (g, i, x)
                    if member:
                        expected.add(vertex_class(g, i, x))
        assert set(se0_window(g, bound)) == expected


def test_se0_seed_spans_every_se0_class():
    for g in _small_types(5):
        bound = 2 * g.N
        assert se_window(g, [se0_seed(g)], bound) == se_window(g, list(se0_window(g, bound)), bound)


def test_fold_examples():
    assert str(pi(A1_3, 3, ONE)) == "1:-q^0"
    assert str(pi(A1_3, 1, ONE)) == "1:q^0"
    assert str(pi(D1_4, 4, ONE)) == "3:q^0"
    assert str(pi(D1_4, 2, ONE)) == "2:q^0"


def test_fold_fibers_have_two_points():
    fiber = pi_preimages(vertex_class(A2_3, 1, ONE))
    assert [(i, str(x)) for i, x in fiber] == [(1, "q^0"), (3, "-q^0")]
    for i, x in fiber:
        assert pi(A1_3, i, x) == vertex_class(A2_3, 1, ONE)


@pytest.mark.parametrize(
    "g1",
    [AffineType("A", 1, n) for n in range(2, 9)] + [AffineType("D", 1, n) for n in range(4, 9)],
    ids=lambda g: f"{g.code}_{g.N}",
)
def test_fold_rejects_an_index_outside_the_untwisted_range(g1):
    """Checked against g1 itself, not left to the folded class: D1 N=4 used
    to fold index 5 onto 3:-q^0, and A1 named the twisted type."""
    for i in (0, -1, g1.N + 1, g1.N + 5):
        with pytest.raises(ValueError, match=rf"^index {i} out of range for {g1.code} N={g1.N}$"):
            pi(g1, i, ONE)


def test_parity_lattice_membership():
    lat = lattice_test(A1_3, vertex_class(A1_3, 1, ONE))
    assert lat(1, SpectralParam(0, 2))
    assert lat(2, SpectralParam(2, 1))
    assert not lat(2, ONE)
    assert not lat(1, SpectralParam(1, 1))


def test_window_of_rank_two_lattice():
    quiv, verts = se_window(A1_2, [vertex_class(A1_2, 1, ONE)], 4)
    assert len(verts) == 9
    assert len(quiv.arrows) == 13
    mult = {(a, b): m for a, b, m in quiv.arrows}
    assert mult.get(("1:q^-2", "1:q^0"), 0) == 1
    assert mult.get(("1:q^0", "1:q^-2"), 0) == 0


def test_window_arrows_match_zero_orders():
    quiv, verts = se_window(A1_2, [vertex_class(A1_2, 1, ONE)], 3)
    mult = {(a, b): m for a, b, m in quiv.arrows}
    for v in verts:
        for w in verts:
            if v == w:
                continue
            expected = class_arrow_mult(v, w)
            assert mult.get((str(v), str(w)), 0) == expected
            if expected:
                assert zero_order(A1_2, v.i, w.i, w.x / v.x) == expected


def test_window_scores_only_the_arrows_it_emits(monkeypatch):
    """One multiplicity lookup (sequiver._arrow_mult) per emitted arrow."""
    calls = []
    arrow_mult = sequiver._arrow_mult

    def counting(*args):
        calls.append(args)
        return arrow_mult(*args)

    monkeypatch.setattr(sequiver, "_arrow_mult", counting)
    for g in (A2_3, D1_4, D2_5):
        calls.clear()
        quiv, _ = se_window(g, [se0_seed(g)], 2 * g.N)
        assert quiv.arrows and len(calls) == len(quiv.arrows)


def test_window_rejects_a_negative_bound():
    with pytest.raises(ValueError, match="non-negative"):
        se_window(A1_2, [vertex_class(A1_2, 1, ONE)], -1)
    with pytest.raises(ValueError, match="non-negative"):
        se0_window(A1_2, -1)


@pytest.mark.parametrize("g", [A2_3, D1_4, D2_5], ids=lambda g: f"{g.code}_{g.N}")
def test_window_draws_no_loop_from_a_zero_at_ratio_one(monkeypatch, g):
    """Se has no loops: a zero of d_{i,i} at z = 1, which no denominator has,
    would lead from every class to itself, and the window leaves it out."""
    want, true_raw = se_window(g, [se0_seed(g)], 2 * g.N), sequiver._raw_tables

    def with_a_zero_at_one(g):
        raw = true_raw(g)
        return lambda k, l: {**raw(k, l), (0, 0): 1} if k == l else raw(k, l)

    monkeypatch.setattr(sequiver, "_raw_tables", with_a_zero_at_one)
    assert se_window(g, [se0_seed(g)], 2 * g.N) == want


def test_se0_window_is_sorted_and_in_component():
    verts = se0_window(A2_3, 3)
    assert verts == tuple(sorted(verts, key=lambda v: (v.i, v.x.m, v.x.zeta)))
    assert all(se0_contains(A2_3, v.i, v.x) for v in verts)
    assert len(verts) == len(set(verts))


def test_labeled_quiver_validation():
    with pytest.raises(ValueError):
        LabeledQuiver((("a", "a"),), (("a", "a", 1),))
    with pytest.raises(ValueError):
        LabeledQuiver((("a", "a"), ("b", "b")), (("a", "b", 1), ("b", "a", 1)))


def test_schur_weyl_quiver_reverses_linear_a2():
    q = DynkinQuiver(FiniteType("A", 2), ((1, 2),))
    sw = schur_weyl_quiver(ar_quiver(q), 1)
    assert sw.entries == ((1, 1, 0), (2, 1, -2))
    assert sw.s == {1: 1, 2: 1}
    assert {k: str(v) for k, v in sw.X.items()} == {1: "q^0", 2: "q^-2"}
    assert sw.quiver.arrows == (("2", "1", 1),)
    assert sw.cartan == cartan_matrix(FiniteType("A", 2))
    assert sw.qexp == {(1, 2): (0, 1)}


def test_schur_weyl_quiver_twisted_linear_a3():
    q = DynkinQuiver(FiniteType("A", 3), ((1, 2), (2, 3)))
    sw = schur_weyl_quiver(ar_quiver(q), 2)
    assert sw.s == {1: 1, 2: 1, 3: 1}
    assert {k: str(v) for k, v in sw.X.items()} == {1: "q^0", 2: "q^-2", 3: "q^-4"}
    assert sw.quiver.arrows == (("2", "1", 1), ("3", "2", 1))
    assert sw.cartan == cartan_matrix(FiniteType("A", 3))


def test_schur_weyl_rejects_bad_t():
    q = DynkinQuiver(FiniteType("A", 2), ((1, 2),))
    with pytest.raises(ValueError):
        schur_weyl_quiver(ar_quiver(q), 3)


untwisted = st.sampled_from([A1_2, A1_3, D1_4])
twisted = st.sampled_from([A2_3, A2_4, AffineType.from_code("D2", 4), D2_5])
params = st.builds(SpectralParam, st.integers(0, 3), st.integers(-5, 5))


@given(untwisted, params)
def test_fold_covers_each_class_twice(g1, x):
    g2 = g1.partner()
    for a in g1.index_set:
        v = pi(g1, a, x)
        assert v.g == g2
        fiber = pi_preimages(v)
        assert len(fiber) == 2
        assert (a, x) in fiber


@given(twisted, params)
def test_class_membership_is_well_defined(g2, x):
    for i in g2.index_set:
        v = vertex_class(g2, i, x)
        for member in v.members():
            assert vertex_class(g2, i, member) == v


def test_schur_weyl_quiver_builds_no_class_when_it_succeeds(monkeypatch):
    """The slots stay integers: no SeVertex, vertex_class or pi call."""
    built = []
    true_init = SeVertex.__init__

    def counting_init(self, g, i, x):
        built.append((g, i, x))
        true_init(self, g, i, x)

    monkeypatch.setattr(SeVertex, "__init__", counting_init)
    monkeypatch.setattr(sequiver, "vertex_class", None)
    monkeypatch.setattr(sequiver, "pi", None)
    for q in (
        DynkinQuiver(FiniteType("A", 5), ((1, 2), (3, 2), (3, 4), (5, 4))),
        DynkinQuiver(FiniteType("D", 6), ((1, 2), (2, 3), (4, 3), (4, 5), (6, 4))),
    ):
        ar = ar_quiver(q)
        for t in (1, 2):
            assert schur_weyl_quiver(ar, t).quiver.arrows
    assert built == []


LOOPY = (
    ((("a", "a"), ("b", "b")), (("a", "b", 1), ("b", "b", 2)), "loop at b"),
    ((("a", "a"), ("b", "b")), (("a", "b", 1), ("b", "a", 1)), "2-cycle between b and a"),
    (
        (("a", "a"), ("b", "b"), ("c", "c")),
        (("c", "c", 1), ("b", "a", 1), ("a", "b", 3)),
        "loop at c",
    ),
)


@pytest.mark.parametrize("vertices, arrows, message", LOOPY, ids=["loop", "2-cycle", "first-loop"])
def test_labeled_quiver_names_the_first_loop_or_two_cycle(vertices, arrows, message):
    """The constructor names the first loop or 2-cycle in arrow order."""
    with pytest.raises(ValueError) as info:
        LabeledQuiver(vertices, arrows)
    assert str(info.value) == message
