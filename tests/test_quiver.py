"""Tests for orientations, adapted words, AR quivers, and convex orders."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from arquiver import quiver, rootsys, verify
from arquiver.dorey import minimal_pair_triple
from arquiver.quiver import (
    ARData,
    DynkinQuiver,
    adapted_word,
    all_orientations,
    ar_quiver,
    convex_order_Q,
    coxeter_word,
    gamma_path_order,
    gamma_root,
    height_function,
    is_adapted,
    minimal_pairs,
    phi,
)
from arquiver.rootsys import (
    FiniteType,
    is_convex,
    positive_roots,
    represents_w0,
    root_sequence,
)

A2 = FiniteType("A", 2)
A3 = FiniteType("A", 3)
D4 = FiniteType("D", 4)
D5 = FiniteType("D", 5)

LIN3 = DynkinQuiver(A3, ((1, 2), (2, 3)))
REV3 = DynkinQuiver(A3, ((2, 1), (3, 2)))
BIP3 = DynkinQuiver(A3, ((2, 1), (2, 3)))


def test_orientation_counts():
    assert len(all_orientations(A3)) == 4
    assert len(all_orientations(D4)) == 8


def test_bad_orientation_rejected():
    with pytest.raises(ValueError):
        DynkinQuiver(A3, ((1, 2), (1, 2)))
    with pytest.raises(ValueError):
        DynkinQuiver(A3, ((1, 2), (3, 1)))


def test_reverse():
    assert LIN3.reverse() == REV3


def test_coxeter_words():
    assert coxeter_word(LIN3) == (1, 2, 3)
    assert adapted_word(LIN3, "coxeter") == (1, 2, 3)
    assert adapted_word(BIP3, "coxeter") == (2, 1, 3)


def test_adapted_longest_words_frozen():
    assert adapted_word(LIN3, "w0") == (1, 2, 1, 3, 2, 1)
    assert adapted_word(REV3, "w0") == (3, 2, 1, 3, 2, 3)
    assert adapted_word(BIP3, "w0") == (2, 1, 3, 2, 1, 3)


def test_adapted_word_rejects_unknown_target():
    with pytest.raises(ValueError):
        adapted_word(LIN3, "longest")


@pytest.fixture
def cold_tau_cache():
    quiver._tau_data.cache_clear()
    yield
    quiver._tau_data.cache_clear()


def test_w0_word_is_checked_once_per_quiver(monkeypatch, cold_tau_cache):
    calls = []
    true_is_adapted = quiver.is_adapted

    def counting(q, word):
        calls.append((q, tuple(word)))
        return true_is_adapted(q, word)

    monkeypatch.setattr(quiver, "is_adapted", counting)
    q = all_orientations(D5)[11]
    word = adapted_word(q, "w0")
    for _ in range(3):
        assert adapted_word(q, "w0") == word
    ar = ar_quiver(q)
    seq = root_sequence(D5, word)
    triples = 0
    for alpha in seq:
        for pair in minimal_pairs(seq, alpha):
            for t in (1, 2):
                minimal_pair_triple(ar, alpha, pair, t)
                triples += 1
    assert triples > 0
    assert calls == [(q, word)]


def test_w0_word_check_still_fires_on_a_cold_call(monkeypatch, cold_tau_cache):
    monkeypatch.setattr(quiver, "is_adapted", lambda q, word: False)
    with pytest.raises(AssertionError, match="not adapted"):
        adapted_word(LIN3, "w0")
    with pytest.raises(AssertionError, match="not adapted"):
        ar_quiver(BIP3)


def test_tau_cache_stays_bounded(cold_tau_cache):
    maxsize = quiver._tau_data.cache_info().maxsize
    assert maxsize is not None
    for n in (7, 8):
        for q in all_orientations(FiniteType("D", n)):
            adapted_word(q, "w0")
            assert quiver._tau_data.cache_info().currsize <= maxsize
    assert quiver._tau_data.cache_info().currsize == maxsize


def test_height_function():
    assert height_function(LIN3) == {1: 0, 2: -1, 3: -2}
    assert height_function(LIN3, 2, 5) == {1: 6, 2: 5, 3: 4}


def test_gamma_roots_linear():
    assert gamma_root(LIN3, 1) == (1, 0, 0)
    assert gamma_root(LIN3, 2) == (1, 1, 0)
    assert gamma_root(LIN3, 3) == (1, 1, 1)


def test_ar_quiver_a2_frozen():
    ar = ar_quiver(DynkinQuiver(A2, ((1, 2),)), {1: 1, 2: 0})
    assert sorted(ar.gamma_vertices) == [(1, -1), (1, 1), (2, 0)]
    assert ar.phi[(1, 1)] == ((1, 0), 0)
    assert ar.phi[(2, 0)] == ((1, 1), 0)
    assert ar.phi[(1, -1)] == ((0, 1), 0)
    assert sorted(ar.gamma_arrows) == [((1, -1), (2, 0)), ((2, 0), (1, 1))]
    assert ar.phi_inv[((0, 1), 0)] == (1, -1)


@pytest.mark.parametrize(
    "xi, message",
    [
        ({1: 0, 2: 0, 3: 0}, "xi_1 = xi_2 \\+ 1"),
        (height_function(REV3), "xi_1 = xi_2 \\+ 1"),
        ({1: 0, 2: -1}, "exactly the index set"),
    ],
    ids=["constant", "reversed", "missing-vertex"],
)
def test_phi_and_ar_quiver_reject_a_non_height_function(xi, message):
    with pytest.raises(ValueError, match=message):
        phi(LIN3, xi, (-10, 10))
    with pytest.raises(ValueError, match=message):
        ar_quiver(LIN3, xi)


def test_ar_slice_has_one_vertex_per_root():
    for q in (LIN3, REV3, BIP3):
        ar = ar_quiver(q)
        assert len(ar.gamma_vertices) == 6
        assert {ar.phi[v][0] for v in ar.gamma_vertices} == positive_roots(A3)


def test_m_values_linear_a3():
    assert ar_quiver(LIN3).m == {1: 2, 2: 1, 3: 0}
    assert ar_quiver(REV3).m == {1: 0, 2: 1, 3: 2}


def test_m_values_d5_fork_cases():
    chain = ((1, 2), (2, 3))
    cases = (
        (((3, 4), (3, 5)), {4: 3, 5: 3}),
        (((3, 4), (5, 3)), {4: 2, 5: 4}),
        (((4, 3), (3, 5)), {4: 4, 5: 2}),
    )
    for forks, fork_m in cases:
        ar = ar_quiver(DynkinQuiver(D5, chain + forks))
        assert ar.m == {1: 3, 2: 3, 3: 3, **fork_m}


def test_m_values_sum_to_root_count():
    for q in all_orientations(D4):
        ar = ar_quiver(q)
        assert sum(m + 1 for m in ar.m.values()) == D4.num_positive_roots()


def test_m_values_match_the_verify_oracle():
    types = [FiniteType("A", n) for n in range(2, 8)] + [FiniteType("D", n) for n in range(4, 8)]
    for t in types:
        for q in all_orientations(t):
            assert ar_quiver(q).m == verify._m_table(q), q


def test_ar_quiver_m_is_not_the_cached_table():
    ar = ar_quiver(LIN3)
    ar.m[1] += 5
    ar.phi[(1, 0)] = ((0, 0, 1), 7)
    del ar.phi_inv[((1, 0, 0), 0)]
    ar.height[1] = 9
    fresh = ar_quiver(LIN3)
    assert fresh.m == {1: 2, 2: 1, 3: 0}
    assert fresh.phi[(1, 0)] == ((1, 0, 0), 0)
    assert fresh.phi_inv[((1, 0, 0), 0)] == (1, 0)
    assert fresh.height == {1: 0, 2: -1, 3: -2}


def _shifted(ar: ARData, d: int) -> tuple:
    """The fields of ar with every height moved by d."""
    lo, hi = ar.window
    return (
        ar.quiver,
        {i: h + d for i, h in ar.height.items()},
        (lo + d, hi + d),
        {(i, p + d): key for (i, p), key in ar.phi.items()},
        {key: (i, p + d) for key, (i, p) in ar.phi_inv.items()},
        frozenset((i, p + d) for i, p in ar.gamma_vertices),
        tuple(((i, p + d), (j, r + d)) for (i, p), (j, r) in ar.gamma_arrows),
        ar.m,
    )


SMALL_TYPES = [FiniteType("A", n) for n in range(2, 7)] + [FiniteType("D", n) for n in (4, 5, 6)]


@pytest.mark.parametrize("t", SMALL_TYPES, ids=lambda t: f"{t.family}{t.rank}")
def test_ar_quiver_at_every_height_is_the_cached_one_translated(t):
    """The cached height, the same height given explicitly, and the height
    two steps up shifted back agree field by field, with the same dict
    orders; each call gets its own dicts."""
    for q in all_orientations(t):
        xi = height_function(q)
        cached = quiver._tau_data(q)[0]
        want = _shifted(cached, 0)
        for ar in (ar_quiver(q), ar_quiver(q, xi), ar_quiver(q, {i: h + 2 for i, h in xi.items()})):
            d = ar.height[1] - xi[1]
            got = _shifted(ar, -d)
            assert got == want, (q, d)
            for a, b in zip(got, want):
                if isinstance(a, dict):
                    assert list(a.items()) == list(b.items()), (q, d)
            assert type(ar.gamma_vertices) is frozenset and type(ar.gamma_arrows) is tuple
            for name in ("height", "phi", "phi_inv", "m"):
                assert getattr(ar, name) is not getattr(cached, name), (q, name)


def test_convex_order_agrees_with_path_order():
    for q in (LIN3, BIP3):
        ar = ar_quiver(q)
        co, gp = convex_order_Q(ar), gamma_path_order(ar)
        for a in co.roots:
            for b in co.roots:
                assert ((a, b) in co.pairs) == ((a, b) in gp.pairs)


def test_adapted_word_order_refines_quiver_order():
    for q in all_orientations(A3):
        seq = root_sequence(A3, adapted_word(q, "w0"))
        pos = {r: n for n, r in enumerate(seq)}
        co = convex_order_Q(ar_quiver(q))
        for a in co.roots:
            for b in co.roots:
                if a != b and (a, b) in co.pairs:
                    assert pos[a] <= pos[b]


def test_minimal_pairs_a2():
    order = root_sequence(A2, adapted_word(DynkinQuiver(A2, ((1, 2),)), "w0"))
    assert order == ((1, 0), (1, 1), (0, 1))
    assert minimal_pairs(order, (1, 1)) == (((1, 0), (0, 1)),)
    assert minimal_pairs(order, (1, 0)) == ()


def test_minimal_pairs_sum_correctly():
    q = DynkinQuiver(D4, ((1, 2), (2, 3), (2, 4)))
    order = root_sequence(D4, adapted_word(q, "w0"))
    for alpha in positive_roots(D4):
        for beta, gamma in minimal_pairs(order, alpha):
            assert tuple(x + y for x, y in zip(beta, gamma)) == alpha
            assert order.index(beta) < order.index(gamma)


orientations = st.sampled_from(
    all_orientations(A3) + all_orientations(D4) + all_orientations(FiniteType("A", 4))
)


@given(orientations)
def test_adapted_longest_word_is_adapted_and_longest(q):
    word = adapted_word(q, "w0")
    assert is_adapted(q, word)
    assert represents_w0(q.ftype, word)


@given(orientations)
def test_adapted_order_is_convex(q):
    t = q.ftype
    assert is_convex(t, root_sequence(t, adapted_word(q, "w0")))


@given(orientations, st.integers(-3, 3))
def test_ar_quiver_arrows_stay_in_slice(q, base):
    ar = ar_quiver(q, height_function(q, 1, base))
    verts = set(ar.gamma_vertices)
    for src, dst in ar.gamma_arrows:
        assert src in verts and dst in verts
        assert dst[1] == src[1] + 1


# Count guards: what the integer build of Gamma_Q must not redo.  Counts, not
# timers, so a lost saving shows up as a failure on any machine.


def test_tau_data_decodes_each_root_once(monkeypatch, cold_tau_cache):
    """A fresh orientation: one root sequence, no further decode, and every
    phi label is one of that sequence's roots, each a distinct |v|."""
    decoded, sequences = [], []
    true_unknit, true_root_sequence = quiver._unknit, quiver.root_sequence

    def counting_unknit(code, n):
        decoded.append(code)
        return true_unknit(code, n)

    def counting_root_sequence(t, word):
        sequences.append(word)
        return true_root_sequence(t, word)

    monkeypatch.setattr(quiver, "_unknit", counting_unknit)
    monkeypatch.setattr(quiver, "root_sequence", counting_root_sequence)
    for q in all_orientations(D5)[:4] + all_orientations(FiniteType("A", 6))[:4]:
        ar, word, order = quiver._tau_data(q)
        assert sequences == [word] and decoded == [], q
        assert len(set(order)) == len(order) == q.ftype.num_positive_roots()
        held = {id(r) for r in order}
        assert {id(root) for root, _ in ar.phi.values()} == held, q
        assert {id(root) for root, _ in ar.phi_inv} == held, q
        sequences.clear()


def test_root_sequence_hands_back_the_certified_order(monkeypatch, cold_tau_cache):
    """Right after _tau_data, the w0 word's root sequence is _w0_order(q)
    itself, found without reflecting a letter."""
    q = all_orientations(D5)[7]
    word = adapted_word(q, "w0")
    monkeypatch.setattr(rootsys, "neighbors", None)  # reflecting would need it
    monkeypatch.setattr(rootsys, "_adjacency", None)
    assert root_sequence(D5, word) is quiver._w0_order(q)
    assert root_sequence(D5, tuple(list(word))) is quiver._w0_order(q)


def test_root_sequence_recomputes_a_list_word_or_another_type():
    q = all_orientations(D5)[7]
    word = adapted_word(q, "w0")
    order = root_sequence(D5, word)
    as_list = root_sequence(D5, list(word))
    assert as_list == order and as_list is not order
    assert rootsys._last_sequence[2] is order  # a list word is not held
    short = (1, 2, 1)
    a3, a4 = root_sequence(A3, short), root_sequence(FiniteType("A", 4), short)
    assert a3 == ((1, 0, 0), (1, 1, 0), (0, 1, 0))
    assert a4 == ((1, 0, 0, 0), (1, 1, 0, 0), (0, 1, 0, 0))
    again = root_sequence(A3, short)
    assert again == a3 and again is not a3
    with pytest.raises(ValueError, match="not reduced at position 4"):
        root_sequence(A2, (1, 2, 1, 2))
