"""Spectral-point quivers: class vertices, the distinguished component Se0,
the 2:1 fold maps onto twisted types, finite windows, and the Schur-Weyl
quiver attached to an AR quiver."""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import TYPE_CHECKING, Callable, Sequence

from .rootsys import Value, _set
from .spectral import AffineType, SpectralParam, _raw_tables, denominator_roots_raw

if TYPE_CHECKING:
    from .quiver import ARData


def has_sign_quotient(g: AffineType, i: int) -> bool:
    """Whether (i, x) and (i, -x) label the same module."""
    if g.twist != 2:
        return False
    if g.family == "A":
        return g.N % 2 == 1 and i == (g.N + 1) // 2
    return 1 <= i <= g.N - 2


class SeVertex(Value):
    """A vertex class (i, x); x is stored as the canonical representative."""

    __slots__ = ("g", "i", "x")

    def __init__(self, g: AffineType, i: int, x: SpectralParam) -> None:
        if i not in g.index_set:
            raise ValueError(f"index {i} out of range for {g.code} N={g.N}")
        if has_sign_quotient(g, i) and x.zeta >= 2:
            x = -x
        _set(self, "g", g)
        _set(self, "i", i)
        _set(self, "x", x)

    def members(self) -> tuple[SpectralParam, ...]:
        """All parameters in this class (one, or two for quotient nodes)."""
        if has_sign_quotient(self.g, self.i):
            return (self.x, -self.x)
        return (self.x,)

    def __str__(self) -> str:
        return f"{self.i}:{self.x}"


def vertex_class(g: AffineType, i: int, x: SpectralParam) -> SeVertex:
    return SeVertex(g, i, x)


def class_arrow_mult(v: SeVertex, w: SeVertex) -> int:
    """Arrow multiplicity from class v to class w: the zero order of the
    denominator at the parameter ratio, checked on every representative pair."""
    if v.g != w.g:
        raise ValueError("vertices belong to different affine types")
    quotient = has_sign_quotient(v.g, v.i) or has_sign_quotient(v.g, w.i)
    roots = denominator_roots_raw(v.g, v.i, w.i)
    return _arrow_mult(roots, w.x.zeta - v.x.zeta, w.x.m - v.x.m, quotient, v, w)


def _arrow_mult(roots, zeta: int, m: int, quotient: bool, v: object, w: object) -> int:
    """class_arrow_mult of v = (k, x) and w = (l, y) from the raw table of d_{k,l},
    the ratio y / x as (zeta, m) and whether v or w is a sign-quotient node: one
    lookup, and one more at quotient nodes.  v and w only name them in the error."""
    zeta %= 4
    mult = roots.get((zeta, m), 0)
    # The representative pairs give the ratios r and -r iff v or w is a sign-quotient node.
    if quotient and roots.get(((zeta + 2) % 4, m), 0) != mult:
        raise AssertionError(f"arrow multiplicity ill-defined between {v} and {w}")
    return mult


def se0_seed(g: AffineType) -> SeVertex:
    """The class (1 for A, N-1 for D, q^0) whose parity lattice is Se0."""
    return vertex_class(g, 1 if g.family == "A" else g.N - 1, SpectralParam.one())


def se0_contains(g: AffineType, i: int, x: SpectralParam) -> bool:
    """Membership of the class of (i, x) in the distinguished component Se0."""
    v, s = vertex_class(g, i, x), se0_seed(g)
    return _lattice_key(g, v.i, v.x.zeta, v.x.m) == _lattice_key(g, s.i, s.x.zeta, s.x.m)


def _pi_index_mult(g1: AffineType, a: int) -> tuple[int, int]:
    """Fold target index and the i-power multiplying the parameter."""
    n = g1.N
    if g1.family == "A":
        if a <= (n + 1) // 2:
            return a, 0
        return n + 1 - a, 2 * n
    if a <= n - 2:
        return a, n - a
    return n - 1, 2 * a


def _fold(g1: AffineType, i: int, zeta: int) -> tuple[int, int]:
    """pi on integers: the index and the zeta of the image of (i, i^zeta q^m)."""
    j, power = _pi_index_mult(g1, i)
    return j, (zeta + power) % 4


def pi(g1: AffineType, i: int, x: SpectralParam) -> SeVertex:
    """The 2:1 fold of an untwisted spectral point onto its twisted partner."""
    if g1.twist != 1:
        raise ValueError("pi folds untwisted points; got a twisted type")
    if not 1 <= i <= g1.N:
        raise ValueError(f"index {i} out of range for {g1.code} N={g1.N}")
    j, zeta = _fold(g1, i, x.zeta)
    return vertex_class(g1.partner(), j, SpectralParam(zeta, x.m))


@lru_cache(maxsize=65536)
def pi_preimages(v: SeVertex) -> tuple[tuple[int, SpectralParam], ...]:
    """Both untwisted points folding onto the class v, in sorted order: each
    index a folding onto v.i, with each member of v divided by a's i-power
    (two indices at one member, or one index at two members)."""
    g2 = v.g
    if g2.twist != 2:
        raise ValueError("pi_preimages expects a twisted-type vertex")
    g1 = g2.partner()
    fibre = []
    for a in g1.index_set:
        j, power = _pi_index_mult(g1, a)
        if j == v.i:
            fibre += [(a, w.times_i_power(-power)) for w in v.members()]
    out = tuple(sorted(fibre, key=lambda p: (p[0], p[1].m, p[1].zeta)))
    if len(out) != 2:
        raise AssertionError(f"fold fiber of {v} has size {len(out)}, expected 2")
    return out


def _lattice_key(g: AffineType, j: int, zeta: int, m: int) -> tuple[int, ...]:
    """Parity invariant of the point (j, i^zeta q^m) of Se(g): two points lie in
    one parity lattice exactly when their keys are equal."""
    if g.twist == 1:
        # (j, x) and (i, y) share a lattice iff x / y = (-q)^e with e = d(i, j)
        # mod 2, and d(i, j) = d(1, i) + d(1, j) mod 2 on a tree.
        d1 = j - 1 if g.family == "A" else min(j, g.N - 1) - 1
        return (zeta - 2 * m) % 4, (m + d1) % 2
    n = g.N
    if g.family == "A":
        return ((zeta - 2 * m) % 4,) if n % 2 == 0 else (zeta % 2, (m + j) % 2)
    # D(2): the parities chi and mu.
    return (zeta + m + (j == n - 1)) % 2, (m + (n - 1 - j if j <= n - 2 else 0)) % 2


def lattice_test(g: AffineType, seed: SeVertex) -> Callable[[int, SpectralParam], bool]:
    """Membership predicate for the parity lattice of Se(g) through the seed."""
    key = _lattice_key(g, seed.i, seed.x.zeta, seed.x.m)
    return lambda j, x: _lattice_key(g, j, x.zeta, x.m) == key


class LabeledQuiver(Value):
    """A finite directed multigraph with string ids, display labels, and
    arrow multiplicities; loops and 2-cycles are rejected."""

    __slots__ = ("vertices", "arrows")

    def __init__(
        self, vertices: tuple[tuple[str, str], ...], arrows: tuple[tuple[str, str, int], ...]
    ) -> None:
        ids = [vid for vid, _ in vertices]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate vertex ids")
        known = set(ids)
        seen = set()
        for src, dst, mult in arrows:
            if src not in known or dst not in known:
                raise ValueError(f"arrow endpoint not a vertex: {src}->{dst}")
            if mult < 1:
                raise ValueError("arrow multiplicity must be >= 1")
            if src == dst:
                raise ValueError(f"loop at {src}")
            if (dst, src) in seen:
                raise ValueError(f"2-cycle between {src} and {dst}")
            seen.add((src, dst))
        self._init(vertices, arrows)


def _lattice_classes(
    g: AffineType, seeds: Sequence[SeVertex], power_bound: int
) -> tuple[SeVertex, ...]:
    """All classes with |q-power| <= power_bound in the seeds' parity lattices,
    sorted by (index, q-power, zeta)."""
    if power_bound < 0:
        raise ValueError(f"power bound must be non-negative, got {power_bound}")
    keys = {_lattice_key(g, s.i, s.x.zeta, s.x.m) for s in seeds}
    out = []
    for j in g.index_set:
        # The canonical representatives: zeta < 2 at a sign-quotient node.
        zetas = range(2 if has_sign_quotient(g, j) else 4)
        for m in range(-power_bound, power_bound + 1):
            for zeta in zetas:
                if _lattice_key(g, j, zeta, m) in keys:
                    out.append(SeVertex(g, j, SpectralParam(zeta, m)))
    return tuple(out)


def se_window(
    g: AffineType, seeds: Sequence[SeVertex], power_bound: int
) -> tuple[LabeledQuiver, tuple[SeVertex, ...]]:
    """Finite piece of Se(g): all classes with |q-power| <= power_bound in the
    seeds' parity lattices, with arrow multiplicities from zero orders.  The
    arrows out of (i, x) go to the other classes (j, x * r), r a zero of d_{i,j}."""
    order = _lattice_classes(g, seeds, power_bound)
    # Each class as the integer key (i, zeta, m) of its canonical representative.
    keys = [(v.i, v.x.zeta, v.x.m) for v in order]
    pos = {key: n for n, key in enumerate(keys)}
    labels = [str(v) for v in order]
    raw, quotient = _raw_tables(g), {j: has_sign_quotient(g, j) for j in g.index_set}
    arrows = []
    for n, (i, zeta, m) in enumerate(keys):
        heads = {}  # position -> multiplicity, taken when a zero first reaches it
        for j in g.index_set:
            roots, quot = raw(i, j), quotient[i] or quotient[j]
            for dz, dm in roots:
                hz = (zeta + dz) % 4
                # A sign-quotient class is keyed by its representative with zeta < 2.
                hz -= 2 if quotient[j] and hz >= 2 else 0
                p = pos.get((j, hz, m + dm))
                if p is not None and p != n and p not in heads:
                    heads[p] = _arrow_mult(roots, hz - zeta, dm, quot, labels[n], labels[p])
        arrows += [(labels[n], labels[p], heads[p]) for p in sorted(heads)]
    return LabeledQuiver(tuple(zip(labels, labels)), tuple(arrows)), order


def se0_window(g: AffineType, power_bound: int) -> tuple[SeVertex, ...]:
    """All Se0 classes with |q-power| <= power_bound, sorted."""
    return _lattice_classes(g, [se0_seed(g)], power_bound)


class SchurWeylDatum(Value):
    """Generator data for a Schur-Weyl quiver: one entry per simple root."""

    __slots__ = ("entries", "s", "X", "quiver", "cartan", "qexp")

    def __init__(
        self, entries: tuple[tuple[int, int, int], ...], s: dict[int, int],
        X: dict[int, SpectralParam], quiver: LabeledQuiver, cartan: tuple[tuple[int, ...], ...],
        qexp: dict[tuple[int, int], tuple[int, int]],
    ) -> None:
        self._init(entries, s, X, quiver, cartan, qexp)


def schur_weyl_quiver(ar: ARData, t: int) -> SchurWeylDatum:
    """The quiver on the simple-root slots of the AR data, for the untwisted
    (t=1) or twisted (t=2) denominators.  A slot is the integers (index, zeta,
    q-power, sign-quotient flag) of its class's canonical representative, and
    the class's label, which names it in an error."""
    if t not in (1, 2):
        raise ValueError("t must be 1 or 2")
    ftype = ar.quiver.ftype
    n, idx = ftype.rank, ftype.index_set
    g1 = AffineType(ftype.family, 1, n)
    g = g1 if t == 1 else g1.partner()
    entries, s_map, x_map, slots = [], {}, {}, []
    for r in idx:
        i, p = ar.phi_inv[((0,) * (r - 1) + (1,) + (0,) * (n - r), 0)]
        entries.append((r, i, p))
        j, zeta = (i, 2 * p % 4) if t == 1 else _fold(g1, i, 2 * p)  # (i, (-q)^p) or its fold
        quotient = has_sign_quotient(g, j)
        zeta -= 2 if quotient and zeta >= 2 else 0
        s_map[r], x_map[r] = j, SpectralParam(zeta, p)
        slots.append((r, j, zeta, p, quotient, f"{j}:{x_map[r]}"))
    raw, dmat, arrows = _raw_tables(g), [[0] * (n + 1) for _ in range(n + 1)], []
    cartan = [[0] * n for _ in idx]
    for a, i, za, ma, qa, la in slots:
        cartan[a - 1][a - 1] = 2
        for b, j, zb, mb, qb, lb in slots:
            if a != b:
                mult = _arrow_mult(raw(i, j), zb - za, mb - ma, qa or qb, la, lb)
                if mult:
                    dmat[a][b] = mult
                    arrows.append((str(a), str(b), mult))
                    cartan[a - 1][b - 1] -= mult
                    cartan[b - 1][a - 1] -= mult
    vertices = tuple((str(r), f"{i},{p}") for r, i, p in entries)
    qexp = {(a, b): (dmat[a][b], dmat[b][a]) for a, b in combinations(idx, 2)}
    return SchurWeylDatum(tuple(entries), s_map, x_map, LabeledQuiver(
        vertices, tuple(arrows)), tuple(map(tuple, cartan)), qexp)
