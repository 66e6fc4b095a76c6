"""Decision procedures for tensor-surjection rules on triples of spectral
points: the untwisted condition tables, the twisted rule via fold lifting,
triples induced by minimal pairs, pole classification, and the constructive
embedding of an adjacent pair into an AR quiver."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .rootsys import FiniteType, Root, Value, _set
from .spectral import (
    AffineType,
    SpectralParam,
    dual_point,
    right_dual_point,
    zero_order,
)
from .sequiver import SeVertex, pi, pi_preimages, vertex_class

# Only the functions that read Gamma_Q import quiver, so a Dorey query skips it.
if TYPE_CHECKING:
    from .quiver import ARData, DynkinQuiver

Point = tuple[int, SpectralParam]


class DoreyTriple(Value):
    """An ordered query ((i,x), (j,y), (k,z)): does V(i,x) (x) V(j,y) surject
    onto V(k,z)?"""

    __slots__ = ("g", "a", "b", "c")

    def __init__(self, g: AffineType, a: Point, b: Point, c: Point) -> None:
        idx = g.index_set
        for i, _ in (a, b, c):
            if i not in idx:
                raise ValueError(f"index {i} out of range for {g.code} N={g.N}")
        _set(self, "g", g)
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "c", c)


class DoreyVerdict(Value):
    """Outcome of a surjection query; untwisted verdicts carry the matched
    condition tag, twisted ones the successful untwisted lift."""

    __slots__ = ("holds", "condition", "witness")

    def __init__(
        self, holds: bool, condition: str | None = None,
        witness: tuple[Point, Point, Point] | None = None,
    ) -> None:
        _set(self, "holds", holds)
        _set(self, "condition", condition)
        _set(self, "witness", witness)


def _mqp(e: int) -> tuple[int, int]:
    return (2 * e % 4, e)


def condition_tag(
    g: AffineType, i: int, j: int, k: int, rx: tuple[int, int], ry: tuple[int, int]
) -> str | None:
    """Matched condition name for the ratio data rx = x/z, ry = y/z given as
    raw (zeta mod 4, q-power) pairs, or None."""
    n = g.N
    if g.family == "A":
        if i + j < n + 1 and k == i + j and rx == _mqp(-j) and ry == _mqp(i):
            return "A-i"
        if (
            i + j > n + 1
            and k == i + j - n - 1
            and rx == _mqp(j - n - 1)
            and ry == _mqp(n + 1 - i)
        ):
            return "A-ii"
        return None
    top = max(i, j, k)
    if top <= n - 2:
        if k == top and i + j == top and rx == _mqp(-j) and ry == _mqp(i):
            return "D-i"
        if i == top and j + k == top and rx == _mqp(-j) and ry == _mqp(2 * n - 2 - i):
            return "D-i"
        if j == top and i + k == top and rx == _mqp(j - 2 * n + 2) and ry == _mqp(i):
            return "D-i"
        if i + j >= n and k == 2 * n - 2 - i - j and rx == _mqp(-j) and ry == _mqp(i):
            return "D-ii"
    low = min(i, j, k)
    if low <= n - 2:
        spin = (n - 1, n)
        if k == low and i in spin and j in spin:
            if (n - k) % 2 == (i - j) % 2 and rx == _mqp(k + 1 - n) and ry == _mqp(n - k - 1):
                return "D-iii"
        # The parity rule n - low = l - m* (mod 2) on the fork indices m, l
        # reduces to i + j + k = 0 (mod 2), since m* = m + n (mod 2) on D_n.
        parity = (i + j + k) % 2 == 0
        if i == low and j in spin and k in spin:
            if parity and rx == _mqp(i + 1 - n) and ry == _mqp(2 * i):
                return "D-iii"
        if j == low and i in spin and k in spin:
            if parity and rx == _mqp(-2 * j) and ry == _mqp(n - j - 1):
                return "D-iii"
    return None


def dorey_untwisted(triple: DoreyTriple) -> DoreyVerdict:
    """Exact surjection test for untwisted types via the condition tables."""
    if triple.g.twist != 1:
        raise ValueError("dorey_untwisted expects an untwisted type")
    (i, x), (j, y), (k, z) = triple.a, triple.b, triple.c
    rx = ((x.zeta - z.zeta) % 4, x.m - z.m)
    ry = ((y.zeta - z.zeta) % 4, y.m - z.m)
    tag = condition_tag(triple.g, i, j, k, rx, ry)
    return DoreyVerdict(tag is not None, tag)


def dorey_twisted(triple: DoreyTriple) -> DoreyVerdict:
    """Surjection test for twisted types: search the eight untwisted lifts of
    the three vertex classes for one passing the untwisted test."""
    g2 = triple.g
    if g2.twist != 2:
        raise ValueError("dorey_twisted expects a twisted type")
    g1 = g2.partner()
    lifts = [pi_preimages(vertex_class(g2, i, x)) for i, x in (triple.a, triple.b, triple.c)]
    for pa in lifts[0]:
        for pb in lifts[1]:
            for pc in lifts[2]:
                if dorey_untwisted(DoreyTriple(g1, pa, pb, pc)).holds:
                    return DoreyVerdict(True, None, (pa, pb, pc))
    return DoreyVerdict(False)


def dorey(triple: DoreyTriple) -> DoreyVerdict:
    return dorey_untwisted(triple) if triple.g.twist == 1 else dorey_twisted(triple)


def multiple_pole_class(triple: DoreyTriple) -> str:
    """'double' when the denominator of the first two factors vanishes to
    order two at y/x, else 'simple'; cross-checked against the matched tag."""
    verdict = dorey_untwisted(triple)
    if not verdict.holds:
        raise ValueError("pole classification requires a holding triple")
    (i, x), (j, y) = triple.a, triple.b
    order = zero_order(triple.g, i, j, y / x)
    expected = 2 if verdict.condition == "D-ii" else 1
    if order != expected:
        raise AssertionError(
            f"zero order {order} does not match tag {verdict.condition} at {y / x}"
        )
    return "double" if order >= 2 else "simple"


def minimal_pair_triple(
    ar: ARData, alpha: Root, pair: tuple[Root, Root], t: int = 1
) -> DoreyTriple:
    """The surjection triple induced by a minimal pair (beta, gamma) of alpha,
    ordered with gamma's vertex first; folded through pi when t = 2."""
    from .quiver import _w0_order, minimal_pairs
    if t not in (1, 2):
        raise ValueError("t must be 1 or 2")
    ftype = ar.quiver.ftype
    order = _w0_order(ar.quiver)
    beta, gamma = tuple(pair[0]), tuple(pair[1])
    alpha = tuple(alpha)
    if (beta, gamma) not in minimal_pairs(order, alpha):
        raise ValueError("pair is not a minimal pair of alpha for the adapted order")
    points = []
    for root in (gamma, beta, alpha):
        i, p = ar.phi_inv[(root, 0)]
        points.append((i, SpectralParam.minus_q_power(p)))
    g1 = AffineType(ftype.family, 1, ftype.rank)
    if t == 1:
        triple = DoreyTriple(g1, *points)
        verdict = dorey_untwisted(triple)
    else:
        folded = [pi(g1, i, x) for i, x in points]
        triple = DoreyTriple(g1.partner(), *((v.i, v.x) for v in folded))
        verdict = dorey_twisted(triple)
    if not verdict.holds:
        raise AssertionError("minimal pair failed the surjection test")
    return triple


class EmbedResult(Value):
    """Outcome of embedding an adjacent pair of spectral points into an AR
    quiver: a quiver, height function, and overall parameter shift."""

    __slots__ = ("found", "reason", "quiver", "height", "shift", "positions")

    def __init__(
        self, found: bool, reason: str | None = None, quiver: DynkinQuiver | None = None,
        height: dict[int, int] | None = None, shift: SpectralParam | None = None,
        positions: tuple[tuple[int, int], tuple[int, int]] | None = None,
    ) -> None:
        self._init(found, reason, quiver, height, shift, positions)


def _ar_cached(q: DynkinQuiver) -> ARData:
    """Gamma_Q at height_function(q), as cached once per quiver (read only)."""
    from .quiver import _tau_data
    return _tau_data(q)[0]


def _search_orientations(t: FiniteType) -> tuple[DynkinQuiver, ...]:
    """The monotone orientations, in all_orientations order: the chain
    1-2-... forward, then backward (A); for D, each of those with both fork
    arrows out of the hub or both into it."""
    from .quiver import _orientation
    if t.family == "A":
        masks = (0, (1 << (t.rank - 1)) - 1)
    else:
        c = t.rank - 3  # chain edges; the two fork edges come last
        masks = (0, (1 << c) - 1, 3 << c, (1 << (c + 2)) - 1)
    return tuple(_orientation(t, mask) for mask in masks)


def embed_pair_in_AR(g1: AffineType, v: SeVertex, w: SeVertex) -> EmbedResult:
    """Realize two arrow-connected, non-dual spectral points inside one AR
    quiver: find Q, a height function, and a shift a with both points at
    AR-quiver positions."""
    from . import quiver  # noqa: F401  (loaded by every query, searched or rejected)
    if g1.twist != 1:
        raise ValueError("embed_pair_in_AR expects an untwisted type")
    if v.g != g1 or w.g != g1:
        raise ValueError("vertices belong to different affine types")
    if dual_point(g1, v.i, v.x) == (w.i, w.x) or right_dual_point(g1, v.i, v.x) == (w.i, w.x):
        return EmbedResult(False, "dual pair")
    ratio = w.x / v.x
    e = ratio.minus_q_exponent()
    if e is None or (
        zero_order(g1, v.i, w.i, ratio) == 0 and zero_order(g1, w.i, v.i, ratio.inverse()) == 0
    ):
        return EmbedResult(False, "not adjacent")
    t = g1.classical()
    for q in _search_orientations(t):
        ar = _ar_cached(q)
        xi, m = ar.height, ar.m
        # Row i of Gamma_Q holds (i, s) for s = xi_i - 2 m_i, ..., xi_i in steps of 2:
        # the lowest s with v at (v.i, s) and w at (w.i, s + e).
        s = max(xi[v.i] - 2 * m[v.i], xi[w.i] - 2 * m[w.i] - e)
        if (s - xi[v.i]) % 2 or (s + e - xi[w.i]) % 2 or s > min(xi[v.i], xi[w.i] - e):
            continue
        shift = v.x / SpectralParam.minus_q_power(s)
        assert (v.i, s) in ar.gamma_vertices and (w.i, s + e) in ar.gamma_vertices
        assert shift * SpectralParam.minus_q_power(s + e) == w.x
        return EmbedResult(True, None, q, dict(xi), shift, ((v.i, s), (w.i, s + e)))
    raise AssertionError(f"no AR-quiver embedding found for {v} and {w}")
