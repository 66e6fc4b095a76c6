"""Simply laced root systems of types A_N and D_N with exact integer arithmetic.

A root is a plain tuple of integer coefficients over the simple roots (entry
``i - 1`` belongs to vertex ``i``).  Everything here is pure and hashable, so
derived data is cached aggressively.
"""

from __future__ import annotations

import operator
from functools import lru_cache, total_ordering
from itertools import repeat
from types import MappingProxyType
from typing import Sequence

Root = tuple[int, ...]

_set = object.__setattr__


class Value:
    """Base of the immutable value classes.  A subclass names its fields in
    ``__slots__``; its ``__init__`` sets them all with ``_init``, or one by
    one with ``_set`` where construction is hot.  Equality, hash, repr and
    pickling go by the field tuple, as for a frozen dataclass."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        if cls.__slots__:
            cls._fields = operator.attrgetter(*cls.__slots__)

    def _init(self, *values: object) -> None:
        """Set the fields, in the order of ``__slots__``."""
        for name, value in zip(self.__slots__, values):
            _set(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields(self) == other._fields(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple[type, tuple]:
        return type(self), self._fields(self)


@total_ordering
class OrderedValue(Value):
    """A Value ordered by its field tuple, as ``order=True`` orders a dataclass."""

    __slots__ = ()

    def __lt__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields(self) < other._fields(other)
        return NotImplemented


class FiniteType(OrderedValue):
    """Dynkin type ``A`` (rank >= 2) or ``D`` (rank >= 4).

    D_N is labelled with the chain ``1 - 2 - ... - (N-2)`` and the two fork
    nodes ``N-1`` and ``N`` both attached to ``N-2``.
    """

    __slots__ = ("family", "rank")

    def __init__(self, family: str, rank: int) -> None:
        if family not in ("A", "D"):
            raise ValueError(f"unknown family: {family!r}")
        lo = 2 if family == "A" else 4
        if rank < lo:
            raise ValueError(f"type {family} needs rank >= {lo}, got {rank}")
        _set(self, "family", family)
        _set(self, "rank", rank)

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
    """Every graph distance: the gap between positions on the chain 1 - 2 - ...,
    where D_N's fork nodes N-1 and N both sit one step past N-2, two steps apart."""
    n, fork = t.rank, t.family == "D"
    pos = {i: min(i, n - 1) if fork else i for i in t.index_set}
    dist = {(i, j): abs(pos[i] - pos[j]) for i in pos for j in pos}
    if fork:
        dist[(n - 1, n)] = dist[(n, n - 1)] = 2
    return dist


def distance(t: FiniteType, i: int, j: int) -> int:
    """Graph distance between vertices of the Dynkin diagram."""
    return _all_distances(t)[(i, j)]


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
    """All positive roots: the root sequence of a reduced w0 word lists its
    inversion set, which is all of them, once each.  The word is
    (1)(2 1)...(N ... 1) on A_N and (1 2 ... N)^(N-1) on D_N."""
    if t.family == "A":
        word = tuple(i for k in t.index_set for i in range(k, 0, -1))
    else:
        word = tuple(t.index_set) * (t.rank - 1)
    found = frozenset(root_sequence(t, word))
    assert len(found) == t.num_positive_roots()
    return found


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


# The last tuple word root_sequence answered, its type and its result: _tau_data
# certifies each adapted w0 word here, and callers then ask for that word again.
_last_sequence: tuple = (None, None, None)


def root_sequence(t: FiniteType, word: Sequence[int]) -> tuple[Root, ...]:
    """Roots beta_k = s_{i_1} ... s_{i_{k-1}}(alpha_{i_k}) of a reduced word.

    Raises ValueError if the word is not reduced (some beta_k fails to be a
    positive root).  For a longest-element word the result enumerates all
    positive roots in a convex total order.

    Keeps the columns w(alpha_j) of the prefix w as base-256 codes (_unknit),
    so beta_k is column i_k; right multiplication by s_i negates column i and
    adds it to each neighbour's.  A column is a root: negative iff its code is.
    The same tuple word of the same type as the last call gets the same tuple.
    """
    global _last_sequence
    if type(word) is tuple and word == _last_sequence[0] and t == _last_sequence[1]:
        return _last_sequence[2]
    adj = _adjacency(t)
    cols = {j: 1 << 8 * (j - 1) for j in adj}
    seq: list[int] = []
    for letter in word:
        nbrs = adj[letter] if letter in adj else neighbors(t, letter)  # the latter raises
        beta = cols[letter]
        if beta < 0:
            raise ValueError(f"word is not reduced at position {len(seq) + 1}")
        seq.append(beta)
        cols[letter] = -beta
        for j in nbrs:
            cols[j] += beta
    n = t.rank  # a column is a root: the n bytes of its code are its coefficients
    out = tuple(zip(*[iter(b"".join(map(int.to_bytes, seq, repeat(n), repeat("little"))))] * n))
    if type(word) is tuple:
        _last_sequence = word, t, out
    return out


def represents_w0(t: FiniteType, word: Sequence[int]) -> bool:
    """True when the word is a reduced expression of the longest element: w0
    is the only element whose reduced words have |Phi+| letters, and
    root_sequence raises on a word that is not reduced."""
    if len(word) != t.num_positive_roots():
        return False
    try:
        root_sequence(t, word)
    except ValueError:
        return False
    return True


def _star(family: str, n: int, i: int) -> int:
    """i* under w0 on A_n or D_n: N+1-i on A_N; on D_N the fork nodes swap
    when N is odd and every other node is fixed."""
    if family == "A":
        return n + 1 - i
    return 2 * n - 1 - i if n % 2 and i >= n - 1 else i


@lru_cache(maxsize=None)
def w0_involution(t: FiniteType) -> MappingProxyType[int, int]:
    """The diagram involution i -> i* induced by the longest element (read-only)."""
    return MappingProxyType({i: _star(t.family, t.rank, i) for i in t.index_set})


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
