"""Dynkin quiver orientations, height functions, and Auslander-Reiten combinatorics.

The central object is the coordinate table ``phi`` identifying vertices (i, p)
of the repetition quiver with pairs (positive root, spin) and its m = 0 slice,
the AR quiver Gamma_Q.  The convex partial order on positive roots and minimal
pairs for it live here as well.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from itertools import chain, repeat
from typing import Sequence

from .rootsys import (
    FiniteType,
    OrderedValue,
    Root,
    Value,
    _adjacency,
    _unknit,
    distance,
    positive_roots,
    root_sequence,
)


class DynkinQuiver(OrderedValue):
    """An orientation of a Dynkin diagram; arrows are (source, target) pairs."""

    __slots__ = ("ftype", "arrows")

    def __init__(self, ftype: FiniteType, arrows: tuple[tuple[int, int], ...]) -> None:
        arrows = tuple(sorted(arrows))
        if sorted(tuple(sorted(a)) for a in arrows) != sorted(ftype.edges()):
            raise ValueError("arrows do not orient the Dynkin edges exactly once each")
        self._init(ftype, arrows)

    def reverse(self) -> DynkinQuiver:
        return DynkinQuiver(self.ftype, tuple((b, a) for a, b in self.arrows))


def _orientation(t: FiniteType, mask: int) -> DynkinQuiver:
    """The orientation reversing edge k of ``t.edges()`` iff bit k of mask is set."""
    arrows = tuple((b, a) if mask >> k & 1 else (a, b) for k, (a, b) in enumerate(t.edges()))
    return DynkinQuiver(t, arrows)


def all_orientations(t: FiniteType) -> tuple[DynkinQuiver, ...]:
    """Every orientation of the diagram, in increasing mask order."""
    return tuple(_orientation(t, mask) for mask in range(1 << len(t.edges())))


def is_adapted(q: DynkinQuiver, word: Sequence[int]) -> bool:
    """Replay the defining condition: each letter is a source when reflected at.

    Only in-degrees are tracked: reflecting at a source turns all of its
    arrows inward and takes one incoming arrow from each neighbour.
    """
    adj = _adjacency(q.ftype)
    indeg = dict.fromkeys(adj, 0)
    for _, b in q.arrows:
        indeg[b] += 1
    for letter in word:
        if letter not in adj or indeg[letter]:
            return False
        nbrs = adj[letter]
        indeg[letter] = len(nbrs)
        for j in nbrs:
            indeg[j] -= 1
    return True


def adapted_word(q: DynkinQuiver, target: str) -> tuple[int, ...]:
    """A canonical word adapted to the orientation.

    ``target`` ``"coxeter"``: a full source sweep (each vertex once, greedy
    smallest index, replayed on in-degrees).  ``target`` ``"w0"``: the column
    reading of the AR quiver from the top height downward, verified once per
    quiver (in ``_tau_data``) to be an adapted reduced word for w0.
    """
    t = q.ftype
    if target == "coxeter":
        adj = _adjacency(t)
        indeg = dict.fromkeys(adj, 0)  # of the vertices not yet in the word
        for _, b in q.arrows:
            indeg[b] += 1
        word: list[int] = []
        while indeg:
            v = min((i for i, d in indeg.items() if not d), default=None)
            if v is None:
                raise AssertionError("source sweep ran out of sources")
            word.append(v)
            del indeg[v]
            indeg.update((j, indeg[j] - 1) for j in adj[v] if j in indeg)
        # Each vertex once: a Coxeter element, which is always reduced.
        return tuple(word)
    if target != "w0":
        raise ValueError(f"unknown target {target!r}")
    return _tau_data(q)[1]


def height_function(q: DynkinQuiver, base_vertex: int = 1, base_value: int = 0) -> dict[int, int]:
    """The function xi with xi_a = xi_b + 1 for every arrow a -> b."""
    t = q.ftype
    if base_vertex not in t.index_set:
        raise ValueError(f"base vertex {base_vertex} not in the index set")
    adj = _adjacency(t)
    arrow_set = set(q.arrows)
    xi = {base_vertex: base_value}
    frontier = [base_vertex]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if w in xi:
                    continue
                xi[w] = xi[v] - 1 if (v, w) in arrow_set else xi[v] + 1
                nxt.append(w)
        frontier = nxt
    return dict(sorted(xi.items()))


# Bounded: every caller reuses a quiver right away (within one computation,
# one orientation loop or one CLI run), while sweeps over fresh orientations
# would otherwise keep one entry per orientation alive.  Each entry holds a
# whole Gamma_Q table, so the bound is small: at 64 entries the benchmark's
# peak RSS grew by about a fifth.
@lru_cache(maxsize=8)
def _tau_data(q: DynkinQuiver) -> tuple[ARData, tuple[int, ...], tuple[Root, ...]]:
    """Gamma_Q at height_function(q), its column reading (the adapted w0 word,
    checked here once per quiver) and that word's root sequence, the convex
    order of minimal pairs, all read off one knit.  Gamma_Q is the knit's
    spin-0 entries, and the reading takes them by descending height, then
    index.  Row i of Gamma_Q is the spin-0 prefix of the downward row i (going
    up, tau P_i = I_i[-1] has spin 1).  The root sequence must equal the
    labels of the reading, and its roots label the whole table."""
    t = q.ftype
    xi = height_function(q)
    # The tight window: from max xi down to at least one step below every row
    # of Gamma_Q, as a row has at most rank vertices, the top one at xi_i.
    window = (min(xi.values()) - 2 * t.rank - 2, max(xi.values()))
    entries = _knit(q, xi, window)
    keys, codes, spins = zip(*entries)
    gamma = sorted((e for e in entries if not e[2]), key=lambda e: (-e[0][1], e[0][0]))
    if len(gamma) != t.num_positive_roots():
        raise AssertionError("spin-0 slice does not match the positive roots")
    vertices, gamma_codes, _ = zip(*gamma)
    w0 = tuple(i for i, _ in vertices)
    if not is_adapted(q, w0):
        raise AssertionError("column reading is not adapted to the orientation")
    try:
        order = root_sequence(t, w0)
    except ValueError:
        raise AssertionError("column reading is not a longest-element word") from None
    if tuple(map(int.from_bytes, map(bytes, order), repeat("little"))) != gamma_codes:
        raise AssertionError("Gamma_Q labels differ from the root sequence of its reading")
    labels = list(zip(map(dict(zip(gamma_codes, order)).__getitem__, map(abs, codes)), spins))
    table, inv = dict(zip(keys, labels)), dict(zip(labels, keys))
    if len(inv) != len(table):
        key = next(key for n, key in enumerate(labels) if labels.index(key) < n)
        raise AssertionError(f"phi is not injective on the window at {key}")
    low = dict(vertices)  # row i of Gamma_Q: (i, p) for p = low_i, low_i + 2, ..., xi_i
    # (i, p) -> (j, p + 1) is an arrow iff p + 1 lies in row j; generated sorted.
    arrows = tuple([(src, (j, p + 1)) for i, nbrs in _adjacency(t).items()
                    for p in range(low[i], xi[i] + 1, 2) for src in ((i, p),)
                    for j in nbrs if low[j] <= p + 1 <= xi[j]])
    m = {i: (xi[i] - low[i]) // 2 for i in t.index_set}
    return ARData(q, xi, window, table, inv, frozenset(vertices), arrows, m), w0, order


def _w0_order(q: DynkinQuiver) -> tuple[Root, ...]:
    """The root sequence of adapted_word(q, "w0"): the convex order whose
    minimal pairs give the surjections."""
    return _tau_data(q)[2]


def coxeter_word(q: DynkinQuiver) -> tuple[int, ...]:
    return adapted_word(q, "coxeter")


def gamma_root(q: DynkinQuiver, i: int) -> Root:
    """Sum of the simple roots over vertices admitting a path into i."""
    return _unknit(_gamma_codes(q, height_function(q))[i], q.ftype.rank)


def _gamma_codes(q: DynkinQuiver, xi: dict[int, int]) -> dict[int, int]:
    """The code (rootsys._unknit) of gamma_root(q, i) for every i, in one pass
    down the heights xi: on a tree, the vertices with a path into i are i and,
    disjointly, those with a path into each a -> i, a higher vertex."""
    codes = {i: 1 << 8 * (i - 1) for i in xi}
    for a, b in sorted(q.arrows, key=lambda arrow: -xi[arrow[0]]):
        codes[b] += codes[a]
    return codes


def _check_height(q: DynkinQuiver, xi: dict[int, int]) -> None:
    if set(xi) != set(q.ftype.index_set):
        raise ValueError("height function must be defined on exactly the index set")
    for a, b in q.arrows:
        if xi[a] != xi[b] + 1:
            raise ValueError(f"height function breaks xi_{a} = xi_{b} + 1 on the arrow {a} -> {b}")


def phi(
    q: DynkinQuiver, xi: dict[int, int], window: tuple[int, int]
) -> dict[tuple[int, int], tuple[Root, int]]:
    """Coordinate table (i, p) -> (positive root, spin) on a height window.

    Defined on repetition-quiver vertices: p in [lo, hi] with p = xi_i mod 2.
    Signed labels are knitted from v(i, xi_i) = gamma_root(q, i) by the mesh
    relation v(i, p - 2) = sum over j ~ i of v(j, p - 1) - v(i, p), downward,
    and by its mirror upward.  Each entry is (|v|, spin); along a row the spin
    moves by one at each sign change, -1 going down and +1 going up.  Each
    distinct |v| is decoded once, and entries share its root.
    """
    lo, hi = window
    _check_height(q, xi)
    if any(not lo <= xi[i] <= hi for i in q.ftype.index_set):
        raise ValueError("window must contain all height function values")
    keys, codes, spins = zip(*_knit(q, xi, window))
    roots: dict[int, Root] = {}
    for v in codes:
        if abs(v) not in roots:
            roots[abs(v)] = _unknit(v, q.ftype.rank)
    return dict(zip(keys, zip(map(roots.__getitem__, map(abs, codes)), spins)))


def _knit(q: DynkinQuiver, xi: dict[int, int], window: tuple[int, int]) -> list:
    """phi's entries (i, p), signed code, spin in insertion order: the seeds,
    then the downward pass, then the upward pass.  A pass keeps the latest
    label of each vertex and walks each level over the vertices of its parity:
    going down, a neighbour's label is one level up and i's own two levels up;
    going up is the mirror."""
    adj, top = _adjacency(q.ftype), _gamma_codes(q, xi)
    seeds = [0, *map(top.__getitem__, adj)]  # the labels at xi, by vertex
    entries = [((i, xi[i]), seeds[i], 0) for i in adj]
    rows = tuple([(i, xi[i], nbrs) for i, nbrs in adj.items() if xi[i] & 1 == r] for r in (0, 1))
    for d, levels in ((-1, range(max(xi.values()), window[0] - 1, -1)),
                      (1, range(min(xi.values()) + 1, window[1] + 1))):
        last, spin = seeds[:], [0] * len(seeds)
        for p in levels:
            for i, h, nbrs in rows[p & 1]:
                if (p - h) * d > 0:
                    prev = last[i]
                    v = -prev
                    for j in nbrs:
                        v += last[j]
                    if (v < 0) != (prev < 0):
                        spin[i] += d
                    last[i] = v
                    entries.append(((i, p), v, spin[i]))
    return entries


class ARData(Value):
    """A quiver with a height function and its AR-quiver coordinate data."""

    __slots__ = (
        "quiver", "height", "window", "phi", "phi_inv", "gamma_vertices", "gamma_arrows", "m"
    )

    def __init__(
        self, quiver: DynkinQuiver, height: dict[int, int], window: tuple[int, int],
        phi: dict[tuple[int, int], tuple[Root, int]],
        phi_inv: dict[tuple[Root, int], tuple[int, int]],
        gamma_vertices: frozenset[tuple[int, int]],
        gamma_arrows: tuple[tuple[tuple[int, int], tuple[int, int]], ...], m: dict[int, int],
    ) -> None:
        self._init(quiver, height, window, phi, phi_inv, gamma_vertices, gamma_arrows, m)


def ar_quiver(q: DynkinQuiver, xi: dict[int, int] | None = None) -> ARData:
    """The AR quiver Gamma_Q (the spin-0 slice of the phi table) on the tight
    window of xi: the cached one at height_function(q), translated by the
    constant xi - height_function(q), in fresh dicts.  The immutable members
    (window, gamma_vertices, gamma_arrows) are shared when nothing moves."""
    base = _tau_data(q)[0]
    d = 0
    if xi is not None:
        _check_height(q, xi)
        d = xi[1] - base.height[1]
    if not d:
        return ARData(q, dict(base.height), base.window, dict(base.phi), dict(base.phi_inv),
                      base.gamma_vertices, base.gamma_arrows, dict(base.m))
    lo, hi = base.window
    return ARData(
        quiver=q,
        height={i: h + d for i, h in base.height.items()},
        window=(lo + d, hi + d),
        phi={(i, p + d): key for (i, p), key in base.phi.items()},
        phi_inv={key: (i, p + d) for key, (i, p) in base.phi_inv.items()},
        gamma_vertices=frozenset((i, p + d) for i, p in base.gamma_vertices),
        gamma_arrows=tuple(((i, p + d), (j, r + d)) for (i, p), (j, r) in base.gamma_arrows),
        m=dict(base.m),
    )


class ConvexPartialOrder(Value):
    """The relation beta <= gamma as a set of ordered root pairs."""

    __slots__ = ("roots", "pairs")

    def __init__(self, roots: tuple[Root, ...], pairs: frozenset[tuple[Root, Root]]) -> None:
        self._init(roots, pairs)


def convex_order_Q(ar: ARData) -> ConvexPartialOrder:
    """Order from AR coordinates: beta <= gamma iff d(i, j) <= a - b,
    where (i, a) and (j, b) are the spin-0 positions of beta and gamma."""
    t = ar.quiver.ftype
    roots = tuple(sorted(positive_roots(t)))
    pos = {r: ar.phi_inv[(r, 0)] for r in roots}
    pairs = set()
    for beta in roots:
        i, a = pos[beta]
        for gamma in roots:
            j, b = pos[gamma]
            if distance(t, i, j) <= a - b:
                pairs.add((beta, gamma))
    return ConvexPartialOrder(roots, frozenset(pairs))


def gamma_path_order(ar: ARData) -> ConvexPartialOrder:
    """Order by path existence inside Gamma_Q: beta <= gamma iff gamma's
    vertex reaches beta's vertex along AR-quiver arrows."""
    t = ar.quiver.ftype
    roots = tuple(sorted(positive_roots(t)))
    succ: dict[tuple[int, int], list[tuple[int, int]]] = {v: [] for v in ar.gamma_vertices}
    for a, b in ar.gamma_arrows:
        succ[a].append(b)
    reach: dict[tuple[int, int], set[tuple[int, int]]] = {}
    for start in sorted(ar.gamma_vertices, key=lambda v: -v[1]):
        acc = {start}
        for nxt in succ[start]:
            acc |= reach[nxt]
        reach[start] = acc
    pos = {r: ar.phi_inv[(r, 0)] for r in roots}
    root_at = {v: r for r, v in pos.items()}
    pairs = set()
    for gamma in roots:
        for v in reach[pos[gamma]]:
            pairs.add((root_at[v], gamma))
    return ConvexPartialOrder(roots, frozenset(pairs))


# An exact code per root of a set, and a memo, filled on request, from a code c
# to the codes b of the set with c - b in the set and b < c - b: every order of
# one root set (every orientation of one type) shares an entry; 32 keep a few
# dozen types warm.
@lru_cache(maxsize=32)
def _root_codes(roots: frozenset[Root]) -> tuple[dict[Root, int], dict[int, tuple[int, ...]]]:
    # code(r) = sum_k r_k B^k with B = 6M + 1, M the largest |coefficient|.  With
    # d = alpha - beta - gamma each |d_k| <= 3M < B, so sum_k d_k B^k = 0 forces
    # d = 0 (reduce mod B from the lowest digit): code(alpha) - code(beta) =
    # code(gamma) exactly when beta + gamma = alpha.
    base = 6 * max(map(abs, chain.from_iterable(roots)), default=0) + 1
    powers = [base**k for k in range(max(map(len, roots), default=0))]
    return {r: sum(map(operator.mul, r, powers)) for r in roots}, {}


# The last order passed that cannot change (a tuple of tuples, as
# root_sequence returns) and its index, first a placeholder no caller holds:
# callers ask for each alpha of one order in turn, and converting and hashing
# the order each time cost more than most rows.  Only that object hits: an equal
# copy builds its own index and takes the memo.
_last_order: tuple = (object(), None)


def minimal_pairs(order: Sequence[Root], alpha: Root) -> tuple[tuple[Root, Root], ...]:
    """All minimal pairs of alpha for a convex total order.

    A pair (beta, gamma) with beta + gamma = alpha and beta < alpha < gamma is
    minimal when no other such pair nests inside the closed interval
    [beta, gamma].  Pairs are returned with the earlier root first.  The roots
    of the order must have one length.  Alpha's row comes from the splits of
    alpha, shared by every order of the same root set.
    """
    global _last_order
    held, index = _last_order
    if order is not held:
        seq = tuple(map(tuple, order))
        roots = frozenset(seq)
        if len(roots) != len(seq):
            raise ValueError("order contains duplicates")
        if len(set(map(len, roots))) > 1:
            raise ValueError("order contains roots of different lengths")
        codes, splits = _root_codes(roots)
        index = seq, codes, {codes[r]: n for n, r in enumerate(seq)}, splits
        if type(order) is tuple and all(type(r) is tuple for r in order):
            _last_order = order, index
    seq, codes, at, splits = index
    c = codes.get(tuple(alpha))
    if c is None:
        raise ValueError("alpha is not in the given order")
    if c not in splits:
        splits[c] = tuple(b for b in at if b < c - b and c - b in at)
    pa = at[c]
    pairs = []
    for b in splits[c]:
        pb, pg = at[b], at[c - b]
        if pg < pb:
            pb, pg = pg, pb
        if pb < pa < pg:
            pairs.append((pb, pg))
    pairs.sort()
    # Scanning from the latest beta: a pair is minimal iff its gamma comes
    # before the gamma of every later beta.
    out, low = [], len(seq)
    for pb, pg in reversed(pairs):
        if pg < low:
            out.append((seq[pb], seq[pg]))
            low = pg
    return tuple(out[::-1])
