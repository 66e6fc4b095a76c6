"""Differential tests: the incremental ``root_sequence``, the in-degree
``is_adapted`` and the knitted ``phi`` against the slow paths they replaced,
kept here as oracles."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from arquiver.quiver import (
    DynkinQuiver,
    adapted_word,
    all_orientations,
    ar_quiver,
    gamma_root,
    height_function,
    is_adapted,
    phi,
)
from arquiver.rootsys import (
    FiniteType,
    apply_word,
    cartan_matrix,
    pairing,
    positive_roots,
    reflect,
    root_sequence,
    simple_root,
)

A3 = FiniteType("A", 3)
TYPES = tuple(FiniteType("A", n) for n in range(2, 9)) + tuple(
    FiniteType("D", n) for n in range(4, 9)
)


def _reflect_dense(t: FiniteType, i: int, v: tuple[int, ...]) -> tuple[int, ...]:
    """s_i through a dense Cartan row (only called with a valid vertex i)."""
    c = sum(a * x for a, x in zip(cartan_matrix(t)[i - 1], v))
    out = list(v)
    out[i - 1] -= c
    return tuple(out)


def root_sequence_oracle(t: FiniteType, word) -> tuple[tuple[int, ...], ...]:
    """Prefix replay: beta_k = s_{i_1} ... s_{i_{k-1}}(alpha_{i_k}) from scratch."""
    seq = []
    for k, letter in enumerate(word):
        v = simple_root(t, letter)
        for prior in reversed(word[:k]):
            v = _reflect_dense(t, prior, v)
        if any(c < 0 for c in v):
            raise ValueError(f"word is not reduced at position {k + 1}")
        seq.append(v)
    return tuple(seq)


def is_adapted_oracle(q: DynkinQuiver, word) -> bool:
    """Replay on ``DynkinQuiver``: each letter a source of the current quiver."""
    cur = q
    for letter in word:
        if letter not in cur.sources():
            return False
        cur = cur.reflect(letter)
    return True


def phi_oracle(q: DynkinQuiver, xi, window):
    """Coxeter path: walk each row from (gamma_root(q, i), 0) at xi_i with
    tables of the adapted Coxeter word (down) and its inverse (up) on the
    positive roots, negating and moving the spin when an image turns negative."""
    t = q.ftype
    word = adapted_word(q, "coxeter")
    tables = (
        (-2, {r: apply_word(t, word, r) for r in positive_roots(t)}),
        (2, {r: apply_word(t, word[::-1], r) for r in positive_roots(t)}),
    )
    lo, hi = window
    table = {}
    for i in t.index_set:
        table[(i, xi[i])] = (gamma_root(q, i), 0)
        for step, act in tables:
            root, spin, p = gamma_root(q, i), 0, xi[i] + step
            while lo <= p <= hi:
                root = act[root]
                if min(root) < 0:
                    root, spin = tuple(-c for c in root), spin + step // 2
                table[(i, p)] = (root, spin)
                p += step
    return table


@pytest.mark.parametrize("t", TYPES, ids=lambda t: f"{t.family}{t.rank}")
def test_knitted_phi_matches_the_coxeter_path(t):
    """Every orientation, two bases, the old padded window and the tight one."""
    n = t.rank
    for q in all_orientations(t):
        for base in ((1, 0), (n, 3)):
            xi = height_function(q, *base)
            lo, hi = min(xi.values()), max(xi.values())
            padded = phi_oracle(q, xi, (lo - 8 * n, hi + 8 * n))
            assert len(set(padded.values())) == len(padded), (q, base)
            assert phi(q, xi, (lo - 8 * n, hi + 8 * n)) == padded, (q, base)
            tight = phi_oracle(q, xi, (lo - 2 * n - 2, hi))
            assert phi(q, xi, (lo - 2 * n - 2, hi)) == tight, (q, base)
            gamma = {v for v, (_, spin) in tight.items() if spin == 0}
            ar = ar_quiver(q, xi)
            assert ar.gamma_vertices == gamma, (q, base)
            assert ar.m == {i: sum(j == i for j, _ in gamma) - 1 for i in t.index_set}, (q, base)


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


@pytest.mark.parametrize("t", TYPES, ids=lambda t: f"{t.family}{t.rank}")
def test_fast_paths_match_oracles_on_every_orientation(t):
    for q in all_orientations(t):
        for target in ("coxeter", "w0"):
            word = adapted_word(q, target)
            assert root_sequence(t, word) == root_sequence_oracle(t, word)
            assert is_adapted(q, word) and is_adapted_oracle(q, word)
        # A w0 word of the opposite orientation: adapted only where a sink
        # of q is also a source, so this exercises the rejecting branch.
        other = adapted_word(q.reverse(), "w0")
        assert is_adapted(q, other) == is_adapted_oracle(q, other)


SMALL = st.sampled_from(TYPES[:4] + TYPES[7:9])


@st.composite
def type_and_word(draw, lo: int = 1, extra: int = 0):
    t = draw(SMALL)
    word = tuple(draw(st.lists(st.integers(lo, t.rank + extra), max_size=3 * t.rank)))
    return t, word


@given(type_and_word())
def test_root_sequence_matches_oracle_on_random_words(tw):
    t, word = tw
    assert _outcome(root_sequence, t, word) == _outcome(root_sequence_oracle, t, word)


@given(type_and_word(lo=-1, extra=1))
def test_root_sequence_matches_oracle_on_letters_outside_the_index_set(tw):
    t, word = tw
    assert _outcome(root_sequence, t, word) == _outcome(root_sequence_oracle, t, word)


@given(st.data(), type_and_word(lo=-1, extra=1))
def test_is_adapted_matches_oracle_on_random_words(data, tw):
    t, word = tw
    q = data.draw(st.sampled_from(all_orientations(t)))
    assert is_adapted(q, word) == is_adapted_oracle(q, word)


@given(st.data(), SMALL)
def test_is_adapted_matches_oracle_on_source_sequences(data, t):
    """Random words that stay adapted for a while: each letter is drawn from
    the current sources, with an occasional arbitrary letter mixed in."""
    q = data.draw(st.sampled_from(all_orientations(t)))
    cur, word = q, []
    for _ in range(data.draw(st.integers(0, 3 * t.rank))):
        if data.draw(st.integers(0, 9)) == 0:
            word.append(data.draw(st.integers(1, t.rank)))
            break
        letter = data.draw(st.sampled_from(sorted(cur.sources())))
        word.append(letter)
        cur = cur.reflect(letter)
    assert is_adapted(q, word) == is_adapted_oracle(q, word)


@given(SMALL, st.data())
def test_pairing_matches_the_dense_cartan_row(t, data):
    i = data.draw(st.integers(1, t.rank))
    v = tuple(data.draw(st.integers(-3, 3)) for _ in t.index_set)
    assert pairing(t, i, v) == sum(a * x for a, x in zip(cartan_matrix(t)[i - 1], v))
    assert reflect(t, i, v) == _reflect_dense(t, i, v)


@pytest.mark.parametrize("i", [0, -1, -3, 4])
def test_vertices_outside_the_index_set_raise(i):
    with pytest.raises(ValueError, match="not in the index set"):
        pairing(A3, i, (0, 0, 1))
    with pytest.raises(ValueError, match="not in the index set"):
        reflect(A3, i, (0, 0, 1))
    with pytest.raises(ValueError, match="not in the index set"):
        apply_word(A3, (i,), (0, 0, 1))
    with pytest.raises(ValueError, match="not in the index set"):
        root_sequence(A3, (1, i))


@pytest.mark.parametrize("i", [0, -1, -3, 4])
def test_is_adapted_rejects_vertices_outside_the_index_set(i):
    for q in all_orientations(A3):
        assert not is_adapted(q, (i,))
        source = min(q.sources())
        assert not is_adapted(q, (source, i))
