"""Simply laced root systems of types A_N and D_N with exact integer arithmetic.

A root is a plain tuple of integer coefficients over the simple roots (entry
``i - 1`` belongs to vertex ``i``).  Everything here is pure and hashable, so
derived data is cached aggressively.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Sequence

Root = tuple[int, ...]


@dataclass(frozen=True, order=True)
class FiniteType:
    """Dynkin type ``A`` (rank >= 2) or ``D`` (rank >= 4).

    D_N is labelled with the chain ``1 - 2 - ... - (N-2)`` and the two fork
    nodes ``N-1`` and ``N`` both attached to ``N-2``.
    """

    family: str
    rank: int

    def __post_init__(self) -> None:
        if self.family not in ("A", "D"):
            raise ValueError(f"unknown family: {self.family!r}")
        lo = 2 if self.family == "A" else 4
        if self.rank < lo:
            raise ValueError(f"type {self.family} needs rank >= {lo}, got {self.rank}")

    @property
    def index_set(self) -> range:
        return range(1, self.rank + 1)

    def edges(self) -> tuple[tuple[int, int], ...]:
        """Undirected Dynkin edges as increasing pairs, in a fixed order."""
        n = self.rank
        if self.family == "A":
            return tuple((i, i + 1) for i in range(1, n))
        chain = tuple((i, i + 1) for i in range(1, n - 2))
        return chain + ((n - 2, n - 1), (n - 2, n))

    def num_positive_roots(self) -> int:
        n = self.rank
        return n * (n + 1) // 2 if self.family == "A" else n * (n - 1)


@lru_cache(maxsize=None)
def cartan_matrix(t: FiniteType) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix ``a[i-1][j-1]`` read off the Dynkin edges."""
    n = t.rank
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in t.edges():
        a[i - 1][j - 1] = a[j - 1][i - 1] = -1
    return tuple(tuple(row) for row in a)


@lru_cache(maxsize=None)
def _adjacency(t: FiniteType) -> dict[int, tuple[int, ...]]:
    nbr: dict[int, list[int]] = {i: [] for i in t.index_set}
    for i, j in t.edges():
        nbr[i].append(j)
        nbr[j].append(i)
    return {i: tuple(sorted(v)) for i, v in nbr.items()}


def neighbors(t: FiniteType, i: int) -> tuple[int, ...]:
    try:
        return _adjacency(t)[i]
    except KeyError:
        raise ValueError(f"vertex {i} not in the index set of {t}") from None


@lru_cache(maxsize=None)
def _all_distances(t: FiniteType) -> dict[tuple[int, int], int]:
    dist: dict[tuple[int, int], int] = {}
    for start in t.index_set:
        seen = {start: 0}
        frontier = [start]
        while frontier:
            nxt = []
            for v in frontier:
                for w in neighbors(t, v):
                    if w not in seen:
                        seen[w] = seen[v] + 1
                        nxt.append(w)
            frontier = nxt
        for v, d in seen.items():
            dist[(start, v)] = d
    return dist


def distance(t: FiniteType, i: int, j: int) -> int:
    """Graph distance between vertices of the Dynkin diagram."""
    return _all_distances(t)[(i, j)]


def simple_root(t: FiniteType, i: int) -> Root:
    if i not in t.index_set:
        raise ValueError(f"vertex {i} not in the index set of {t}")
    return tuple(1 if j == i else 0 for j in t.index_set)


def pairing(t: FiniteType, i: int, v: Root) -> int:
    """Evaluation of the i-th simple coroot on v: 2 v_i minus v_j over the
    neighbours j of i."""
    nbrs = neighbors(t, i)
    return 2 * v[i - 1] - sum(v[j - 1] for j in nbrs)


def reflect(t: FiniteType, i: int, v: Root) -> Root:
    """Simple reflection s_i applied to a coefficient vector."""
    c = pairing(t, i, v)
    if c == 0:
        return tuple(v)
    out = list(v)
    out[i - 1] -= c
    return tuple(out)


@lru_cache(maxsize=None)
def positive_roots(t: FiniteType) -> frozenset[Root]:
    """All positive roots, generated by reflection closure from the simples."""
    found: set[Root] = {simple_root(t, i) for i in t.index_set}
    frontier = list(found)
    while frontier:
        nxt = []
        for v in frontier:
            for i in t.index_set:
                w = reflect(t, i, v)
                if w not in found and all(c >= 0 for c in w):
                    found.add(w)
                    nxt.append(w)
        frontier = nxt
    assert len(found) == t.num_positive_roots()
    return frozenset(found)


def apply_word(t: FiniteType, word: Sequence[int], v: Root) -> Root:
    """Apply the product s_{word[0]} s_{word[1]} ... to v (rightmost acts first)."""
    for letter in reversed(word):
        v = reflect(t, letter, v)
    return v


# A signed label v is knitted as the code sum_k v_k 256^k: reflections and the
# mesh relation are linear, so they act on codes.  A new digit sums at most four
# digits of the step before, so digits within _KNIT_MAX = 2^5 - 1 keep it inside
# one byte's balanced range (4 * 31 < 128) and every code exact.
_KNIT_MAX = 31


def _unknit(code: int, n: int) -> Root:
    """The root |v| of a knitted code of a length-n label.  Raises
    AssertionError unless v's digits share one sign and lie within _KNIT_MAX:
    a mixed sign leaves a digit of at least 256 - 127 in |v|'s bytes."""
    a = abs(code)
    if a >> 8 * n or a & int.from_bytes(bytes([255 ^ _KNIT_MAX]) * n, "little"):
        raise AssertionError(f"knitted label {code} is not a signed root of length {n}")
    return tuple(a.to_bytes(n, "little"))


def root_sequence(t: FiniteType, word: Sequence[int]) -> tuple[Root, ...]:
    """Roots beta_k = s_{i_1} ... s_{i_{k-1}}(alpha_{i_k}) of a reduced word.

    Raises ValueError if the word is not reduced (some beta_k fails to be a
    positive root).  For a longest-element word the result enumerates all
    positive roots in a convex total order.

    Keeps the columns w(alpha_j) of the prefix w as base-256 codes (_unknit),
    so beta_k is column i_k; right multiplication by s_i negates column i and
    adds it to each neighbour's.  A column is a root: negative iff its code is.
    """
    adj = _adjacency(t)
    cols = {j: 1 << 8 * (j - 1) for j in adj}
    seq: list[int] = []
    for k, letter in enumerate(word, start=1):
        nbrs = adj[letter] if letter in adj else neighbors(t, letter)  # the latter raises
        beta = cols[letter]
        if beta < 0:
            raise ValueError(f"word is not reduced at position {k}")
        seq.append(beta)
        cols[letter] = -beta
        for j in nbrs:
            cols[j] += beta
    return tuple(_unknit(beta, t.rank) for beta in seq)


def _w0_sequence(t: FiniteType, word: Sequence[int]) -> tuple[Root, ...] | None:
    """The word's root sequence when it is a reduced expression of the longest
    element, else None."""
    try:
        seq = root_sequence(t, word)
    except ValueError:
        return None
    return seq if set(seq) == positive_roots(t) else None


def represents_w0(t: FiniteType, word: Sequence[int]) -> bool:
    """True when the word is a reduced expression of the longest element."""
    return _w0_sequence(t, word) is not None


@lru_cache(maxsize=None)
def w0_involution(t: FiniteType) -> MappingProxyType[int, int]:
    """The diagram involution i -> i* induced by the longest element (read-only).

    A_N: i* = N+1-i.  D_N: swaps the fork nodes when N is odd, identity when
    N is even.
    """
    n = t.rank
    if t.family == "A":
        return MappingProxyType({i: n + 1 - i for i in t.index_set})
    out = {i: i for i in t.index_set}
    if n % 2 == 1:
        out[n - 1], out[n] = n, n - 1
    return MappingProxyType(out)


def add_roots(a: Root, b: Root) -> Root:
    return tuple(map(operator.add, a, b))


def is_convex(t: FiniteType, order: Sequence[Root]) -> bool:
    """Whether a total order on the positive roots is convex.

    Convexity: whenever beta + gamma is a root, it lies strictly between beta
    and gamma.  Raises ValueError if ``order`` is not a permutation of the
    positive roots.
    """
    seq = tuple(tuple(r) for r in order)
    roots = positive_roots(t)
    if len(seq) != len(roots) or set(seq) != roots:
        raise ValueError("order is not a permutation of the positive roots")
    pos = {r: n for n, r in enumerate(seq)}
    for a_idx, a in enumerate(seq):
        for b in seq[a_idx + 1:]:
            s = add_roots(a, b)
            if s in roots and not (pos[a] < pos[s] < pos[b]):
                return False
    return True


def format_root(v: Root) -> str:
    """Human-readable form like ``a1+2a2+a3``."""
    terms = []
    for i, c in enumerate(v, start=1):
        if c == 0:
            continue
        terms.append(f"a{i}" if c == 1 else f"{c}a{i}")
    return "+".join(terms) if terms else "0"
