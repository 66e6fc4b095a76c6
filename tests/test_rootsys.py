"""Tests for the finite root-system layer, against an independent
symmetric-group oracle for reduced words."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, strategies as st

from arquiver.rootsys import (
    FiniteType,
    apply_word,
    cartan_matrix,
    distance,
    format_root,
    is_convex,
    neighbors,
    positive_roots,
    reflect,
    represents_w0,
    root_sequence,
    simple_root,
    w0_involution,
)

A2 = FiniteType("A", 2)
A3 = FiniteType("A", 3)
D4 = FiniteType("D", 4)
D5 = FiniteType("D", 5)


def _s4_longest_words() -> set[tuple[int, ...]]:
    """All reduced words for the longest element of S4, grown by walking up
    the weak order on permutations.  Independent of the root-system code."""
    target = (4, 3, 2, 1)

    def grow(perm, word):
        if perm == target:
            yield word
            return
        for i in (1, 2, 3):
            if perm[i - 1] < perm[i]:
                nxt = list(perm)
                nxt[i - 1], nxt[i] = nxt[i], nxt[i - 1]
                yield from grow(tuple(nxt), word + (i,))

    return set(grow((1, 2, 3, 4), ()))


def test_s4_oracle_finds_sixteen_words():
    assert len(_s4_longest_words()) == 16


def test_represents_w0_matches_s4_oracle():
    words = _s4_longest_words()
    for word in words:
        assert represents_w0(A3, word)
    for length in range(7):  # shorter reduced words are not w0 either
        for word in itertools.product((1, 2, 3), repeat=length):
            if word not in words:
                assert not represents_w0(A3, word)


def test_positive_root_counts():
    for t, count in ((A2, 3), (A3, 6), (D4, 12), (D5, 20)):
        assert t.num_positive_roots() == count
        assert len(positive_roots(t)) == count


def test_a2_positive_roots_explicit():
    assert positive_roots(A2) == {(1, 0), (0, 1), (1, 1)}


def test_d4_contains_highest_root():
    assert (1, 2, 1, 1) in positive_roots(D4)
    assert max(sum(v) for v in positive_roots(D4)) == 5


def test_root_sequence_enumerates_all_roots():
    word = next(iter(_s4_longest_words()))
    seq = root_sequence(A3, word)
    assert len(seq) == 6
    assert set(seq) == positive_roots(A3)


def test_root_sequence_rejects_nonreduced_words():
    with pytest.raises(ValueError):
        root_sequence(A3, (1, 1))
    with pytest.raises(ValueError):
        root_sequence(D4, (2, 1, 2, 1, 2))


def test_w0_involution_tables():
    assert w0_involution(A3) == {1: 3, 2: 2, 3: 1}
    assert w0_involution(D4) == {1: 1, 2: 2, 3: 3, 4: 4}
    assert w0_involution(D5) == {1: 1, 2: 2, 3: 3, 4: 5, 5: 4}


def test_w0_involution_is_a_read_only_view_of_the_cache():
    with pytest.raises(TypeError):
        w0_involution(A3)[1] = 1
    assert w0_involution(A3) == {1: 3, 2: 2, 3: 1}


def test_cartan_matrices():
    assert cartan_matrix(A2) == ((2, -1), (-1, 2))
    assert cartan_matrix(D4) == (
        (2, -1, 0, 0),
        (-1, 2, -1, -1),
        (0, -1, 2, 0),
        (0, -1, 0, 2),
    )


def test_graph_distances():
    assert distance(A3, 1, 3) == 2
    assert distance(D5, 4, 5) == 2
    assert distance(D5, 1, 5) == 3
    assert distance(D4, 2, 2) == 0


def test_fork_neighbors():
    assert set(neighbors(D4, 2)) == {1, 3, 4}
    assert neighbors(D4, 4) == (2,)


def test_format_root():
    assert format_root((1, 2, 1, 1)) == "a1+2a2+a3+a4"
    assert format_root((0, 1, 0)) == "a2"
    assert format_root((0, 0)) == "0"


def test_convexity_of_a2_orders():
    a1, a2, s = (1, 0), (0, 1), (1, 1)
    assert is_convex(A2, (a1, s, a2))
    assert is_convex(A2, (a2, s, a1))
    assert not is_convex(A2, (a1, a2, s))
    with pytest.raises(ValueError):
        is_convex(A2, (a1, a2))


def test_adapted_orders_from_oracle_words_are_convex():
    for word in _s4_longest_words():
        assert is_convex(A3, root_sequence(A3, word))


types = st.sampled_from([A2, A3, FiniteType("A", 4), D4, D5])


@st.composite
def type_index_vector(draw):
    t = draw(types)
    i = draw(st.integers(1, t.rank))
    v = tuple(draw(st.integers(-3, 3)) for _ in t.index_set)
    return t, i, v


@st.composite
def type_word_vector(draw):
    t = draw(types)
    word = tuple(draw(st.lists(st.integers(1, t.rank), max_size=8)))
    v = tuple(draw(st.integers(-2, 2)) for _ in t.index_set)
    return t, word, v


@given(type_index_vector())
def test_reflect_is_an_involution(tiv):
    t, i, v = tiv
    assert reflect(t, i, reflect(t, i, v)) == v


@given(type_index_vector())
def test_reflect_negates_own_simple_root(tiv):
    t, i, _ = tiv
    a = simple_root(t, i)
    assert reflect(t, i, a) == tuple(-c for c in a)


@given(type_word_vector())
def test_apply_word_reversal_inverts(twv):
    t, word, v = twv
    assert apply_word(t, word, apply_word(t, tuple(reversed(word)), v)) == v


@given(type_word_vector())
def test_apply_word_is_linear_on_sums(twv):
    t, word, v = twv
    w = tuple(2 * c for c in v)
    image = apply_word(t, word, v)
    assert apply_word(t, word, w) == tuple(2 * c for c in image)
