"""Self-verification suite: exhaustive cross-checks of the package's
combinatorics over bounded universes, one report per named check.

A check is a generator of cases: it yields ``(case label, None)`` for each
case that holds and ``(case label, what fails)`` for one that does not.
``run_check`` is the one runner: it counts the cases, stops at the first
failure and reports it as ``"<case label>: <what fails>"``.
"""

from __future__ import annotations

import time
from itertools import product
from typing import Callable, Iterator, Sequence

from .dorey import (
    DoreyTriple,
    _mqp,
    condition_tag,
    dorey_twisted,
    dorey_untwisted,
    embed_pair_in_AR,
    minimal_pair_triple,
    multiple_pole_class,
)
from .quiver import (
    DynkinQuiver,
    _w0_order,
    adapted_word,
    all_orientations,
    ar_quiver,
    convex_order_Q,
    gamma_path_order,
    gamma_root,
    height_function,
    is_adapted,
    minimal_pairs,
)
from .rootsys import (
    FiniteType,
    Value,
    apply_word,
    cartan_matrix,
    distance,
    is_convex,
    root_sequence,
    w0_involution,
)
from .sequiver import (
    class_arrow_mult,
    has_sign_quotient,
    pi,
    pi_preimages,
    schur_weyl_quiver,
    se0_window,
    vertex_class,
)
from .spectral import (
    AffineType,
    SpectralParam,
    denominator_roots_raw,
    dual_index,
    dual_point,
    p_star,
    right_dual_point,
    zero_order,
)

Cases = Iterator[tuple[str, str | None]]
Check = Callable[[], Cases]

# name -> (universe, case generator), in registration order
_CHECKS: dict[str, tuple[str, Check]] = {}


def _check(name: str, universe: str) -> Callable[[Check], Check]:
    """Register a case generator as the check ``name`` over ``universe``."""

    def register(cases: Check) -> Check:
        _CHECKS[name] = (universe, cases)
        return cases

    return register


def _classical_types(nmax: int) -> list[FiniteType]:
    out = [FiniteType("A", n) for n in range(2, nmax + 1)]
    out += [FiniteType("D", n) for n in range(4, nmax + 1)]
    return out


def _orientations(nmax: int) -> Iterator[tuple[str, DynkinQuiver]]:
    """Every orientation of A2..A_nmax and D4..D_nmax, with its label."""
    for t in _classical_types(nmax):
        for q in all_orientations(t):
            yield f"{t.family}{t.rank} {q.arrows}", q


def _fold_pairs(nmax: int) -> Iterator[tuple[AffineType, AffineType, int]]:
    """(g1, g2, 4N) for each fold g1 -> g2 of A and D with N <= nmax."""
    for t in _classical_types(nmax):
        yield AffineType(t.family, 1, t.rank), AffineType(t.family, 2, t.rank), 4 * t.rank


def _points(g: AffineType, bound: int) -> Iterator[tuple[str, int, SpectralParam]]:
    """The points (i, i^zeta q^m) of ``g`` with |m| <= bound, with their labels."""
    for i in g.index_set:
        for zeta in range(4):
            for m in range(-bound, bound + 1):
                x = SpectralParam(zeta, m)
                yield f"{g.code} N={g.N} ({i},{x})", i, x


def _index_triples(nmax: int) -> Iterator[tuple[str, AffineType, int, int, int]]:
    """Every index triple of the untwisted types with N <= nmax, with its label."""
    for t in _classical_types(nmax):
        g = AffineType(t.family, 1, t.rank)
        for i, j, k in product(g.index_set, repeat=3):
            yield f"{g.code} N={g.N} {(i, j, k)}", g, i, j, k


@_check("se_j_equals_qrev", "A2..A8 and D4..D8, every orientation and base, t in {1,2}")
def _check_se_j_equals_qrev() -> Cases:
    for at, q in _orientations(8):
        t = q.ftype
        cartan = cartan_matrix(t)
        expected = {(str(b), str(a)) for a, b in q.arrows}
        for base_vertex, base_value in [(v, 0) for v in t.index_set] + [(1, 1)]:
            ar = ar_quiver(q, height_function(q, base_vertex, base_value))
            for tw in (1, 2):
                sw = schur_weyl_quiver(ar, tw)
                got = {(a, b) for a, b, _ in sw.quiver.arrows}
                simple = all(m == 1 for _, _, m in sw.quiver.arrows)
                ok = got == expected and simple and sw.cartan == cartan
                yield (
                    f"{at} base=({base_vertex},{base_value}) t={tw}",
                    None if ok else f"got {sorted(got)}, want {sorted(expected)}",
                )


@_check("denominator_structure", "A1, A2, D1, D2 with N <= 16, every (k, l): 4619 tables")
def _check_denominator_structure() -> Cases:
    for g1, g2, _ in _fold_pairs(16):
        for g in (g1, g2):
            star = p_star(g)
            for k in g.index_set:
                for l in g.index_set:
                    roots, at = denominator_roots_raw(g, k, l), f"{g.code} N={g.N} d_{{{k},{l}}}"
                    if roots != denominator_roots_raw(g, dual_index(g, k), dual_index(g, l)):
                        yield at, "differs from d_{k*,l*}"
                        continue
                    order, want = roots.get((star.zeta, star.m), 0), int(l == dual_index(g, k))
                    if order != want:
                        yield at, f"zero order {order} at p*, want {want}"
                        continue
                    bad = [m for _, m in roots if not 1 <= m <= star.m]
                    yield at, f"zero at q-power {min(bad)} outside 1..{star.m}" if bad else None


@_check("pi_two_to_one", "twisted classes and untwisted points, |q-power| <= 4N, N <= 8")
def _check_pi_two_to_one() -> Cases:
    for g1, g2, bound in _fold_pairs(8):
        seen = set()
        for at, i, x in _points(g2, bound):
            v = vertex_class(g2, i, x)
            if v in seen:
                continue
            seen.add(v)
            pre = pi_preimages(v)
            if len(set(pre)) != 2:
                yield at, f"fiber of {v} is {pre}"
                continue
            strays = [f"({a},{y})" for a, y in pre if pi(g1, a, y) != v]
            yield at, f"{strays[0]} does not fold onto {v}" if strays else None
        for at, a, x in _points(g1, bound):
            yield at, None if (a, x) in pi_preimages(pi(g1, a, x)) else "missing from its fiber"


@_check("pi_iso_on_se0", "Se0 windows, |q-power| <= 4N, N <= 8")
def _check_pi_iso_on_se0() -> Cases:
    for g1, g2, bound in _fold_pairs(8):
        at, dom = f"{g1.code} N={g1.N}", se0_window(g1, bound)
        image = {v: pi(g1, v.i, v.x) for v in dom}
        injective = len(set(image.values())) == len(dom)
        yield at, None if injective else "fold not injective on the Se0 window"
        onto = set(image.values()) == set(se0_window(g2, bound))
        yield at, None if onto else "fold image is not the twisted Se0 window"
        for v in dom:
            for w in dom:
                if v is w:
                    continue
                same = zero_order(g1, v.i, w.i, w.x / v.x) == class_arrow_mult(image[v], image[w])
                yield at, None if same else f"multiplicity changes under the fold at {v} -> {w}"


@_check("pi_duality", "untwisted points, |q-power| <= 4N, N <= 8")
def _check_pi_duality() -> Cases:
    for g1, g2, bound in _fold_pairs(8):
        for at, a, x in _points(g1, bound):
            v = pi(g1, a, x)
            for dual in (dual_point, right_dual_point):
                di, dx = dual(g1, a, x)
                dj, dy = dual(g2, v.i, v.x)
                commutes = pi(g1, di, dx) == vertex_class(g2, dj, dy)
                yield at, None if commutes else f"{dual.__name__} does not commute with the fold"


def _m_table(q: DynkinQuiver) -> dict[int, int]:
    """Per-index count of translation steps staying positive, from scratch."""
    t = q.ftype
    word = adapted_word(q, "coxeter")
    out = {}
    for i in t.index_set:
        count = 0
        img = apply_word(t, word, gamma_root(q, i))
        while all(c >= 0 for c in img):
            count += 1
            img = apply_word(t, word, img)
        out[i] = count
    return out


@_check("m_values", "A2..A10 and D4..D10, every orientation")
def _check_m_values() -> Cases:
    for n in range(2, 11):
        linear = DynkinQuiver(FiniteType("A", n), tuple((i, i + 1) for i in range(1, n)))
        for q, formula in ((linear, lambda i: n - i), (linear.reverse(), lambda i: i - 1)):
            m = _m_table(q)
            bad = [i for i in q.ftype.index_set if m[i] != formula(i)]
            yield f"A{n} {q.arrows}", f"m_{bad[0]} = {m[bad[0]]}" if bad else None
    for at, q in _orientations(10):
        t, m = q.ftype, _m_table(q)
        n = t.rank
        if sum(m[i] + 1 for i in t.index_set) != t.num_positive_roots():
            yield at, "box sizes do not sum to the root count"
            continue
        if t.family == "A":
            yield at, None
            continue
        chain = [i for i in range(1, n - 1) if m[i] != n - 2]
        if chain:
            yield at, f"m_{chain[0]} = {m[chain[0]]} on the chain"
            continue
        xi = height_function(q)
        diff = xi[n - 1] - xi[n]
        if n % 2 == 1 and diff == -2:
            want = (n - 3, n - 1)
        elif n % 2 == 1 and diff == 2:
            want = (n - 1, n - 3)
        else:
            want = (n - 2, n - 2)
        fork = (m[n - 1], m[n])
        yield at, None if fork == want else f"fork m = {fork}, want {want}"


@_check("order_eq_paths", "A2..A7 and D4..D7, every orientation")
def _check_order_eq_paths() -> Cases:
    for at, q in _orientations(7):
        ar = ar_quiver(q)
        same = convex_order_Q(ar).pairs == gamma_path_order(ar).pairs
        yield at, None if same else "coordinate and path orders differ"


@_check("adapted_refines", "A2..A7 and D4..D7, every orientation")
def _check_adapted_refines() -> Cases:
    for at, q in _orientations(7):
        t, word = q.ftype, adapted_word(q, "w0")
        if not is_adapted(q, word):
            yield at, "greedy longest word is not adapted"
            continue
        seq = root_sequence(t, word)
        if not is_convex(t, seq):
            yield at, "adapted total order is not convex"
            continue
        pos = {r: k for k, r in enumerate(seq)}
        late = [pair for pair in convex_order_Q(ar_quiver(q)).pairs if pos[pair[0]] > pos[pair[1]]]
        yield at, f"adapted order places {late[0][0]} after {late[0][1]}" if late else None


def _spin_pair(vals: tuple[int, int], n: int) -> bool:
    return all(v in (n - 1, n) for v in vals)


def _candidate_conditions(
    g: AffineType, i: int, j: int, k: int
) -> dict[tuple[tuple[int, int], tuple[int, int]], str]:
    """Direct clause-by-clause transcription of the surjection conditions:
    every ratio pair (x/z, y/z) making ((i,x),(j,y),(k,z)) hold, with its tag."""
    n = g.N
    cand: dict[tuple[tuple[int, int], tuple[int, int]], str] = {}

    def put(tag: str, ex: int, ey: int) -> None:
        key = (_mqp(ex), _mqp(ey))
        if cand.get(key, tag) != tag:
            raise AssertionError(f"overlapping conditions at {g.code} {(i, j, k)}")
        cand[key] = tag

    if g.family == "A":
        if i + j == k and k <= n:
            put("A-i", -j, i)
        if i + j - n - 1 == k:
            put("A-ii", j - n - 1, n + 1 - i)
        return cand
    if i + j == k <= n - 2:
        put("D-i", -j, i)
    if j + k == i <= n - 2:
        put("D-i", -j, 2 * n - 2 - i)
    if i + k == j <= n - 2:
        put("D-i", j - 2 * n + 2, i)
    if i + j + k == 2 * n - 2 and i + j >= n and max(i, j, k) <= n - 2:
        put("D-ii", -j, i)
    star = w0_involution(FiniteType("D", n))
    if _spin_pair((i, j), n) and k <= n - 2 and (n - k - i + j) % 2 == 0:
        put("D-iii", k + 1 - n, n - k - 1)
    if _spin_pair((j, k), n) and i <= n - 2:
        if any((n - i - hi + star[lo]) % 2 == 0 for lo, hi in ((j, k), (k, j))):
            put("D-iii", i + 1 - n, 2 * i)
    if _spin_pair((i, k), n) and j <= n - 2:
        if any((n - j - hi + star[lo]) % 2 == 0 for lo, hi in ((i, k), (k, i))):
            put("D-iii", -2 * j, n - j - 1)
    return cand


@_check("dorey_bruteforce_agree", "all index triples, ratio grid |q-power| <= 2N+1, N <= 6")
def _check_dorey_bruteforce() -> Cases:
    for at, g, i, j, k in _index_triples(6):
        w = 2 * g.N + 1
        grid = [(z, m) for z in range(4) for m in range(-w, w + 1)]
        cand = _candidate_conditions(g, i, j, k)
        if any(abs(rx[1]) > w or abs(ry[1]) > w for rx, ry in cand):
            yield at, "a condition ratio escapes the grid"
            continue
        get, fail = cand.get, None
        for rx in grid:
            for ry in grid:
                if condition_tag(g, i, j, k, rx, ry) != get((rx, ry)):
                    fail = (
                        f"rx={rx} ry={ry}: matcher says {condition_tag(g, i, j, k, rx, ry)}, "
                        f"enumeration says {get((rx, ry))}"
                    )
                    break
            if fail is not None:
                break
        yield at, fail


@_check("twisted_lift_consistency", "single-component triples, |q-power| <= 2N+1, N <= 6")
def _check_twisted_lift() -> Cases:
    one, mq = SpectralParam.one(), SpectralParam.minus_q_power
    for at, g1, i, j, k in _index_triples(6):
        t, g2, w = g1.classical(), g1.partner(), 2 * g1.N + 1
        p1, p2 = distance(t, i, k) % 2, distance(t, j, k) % 2
        xs = [mq(e) for e in range(-w, w + 1) if e % 2 == p1]
        ys = [mq(e) for e in range(-w, w + 1) if e % 2 == p2]
        for x, y in product(xs, ys):
            up = DoreyTriple(g1, (i, x), (j, y), (k, one))
            folded = [pi(g1, *pt) for pt in ((i, x), (j, y), (k, one))]
            down = DoreyTriple(g2, *((v.i, v.x) for v in folded))
            v2 = dorey_twisted(down)
            if dorey_untwisted(up).holds != v2.holds:
                yield at, f"lift inconsistency at {up}"
                continue
            if v2.holds and not dorey_untwisted(DoreyTriple(g1, *v2.witness)).holds:
                yield at, f"invalid witness at {down}"
                continue
            fail = None
            for pos in range(3):
                if has_sign_quotient(g2, folded[pos].i):
                    pts = [(v.i, v.x) for v in folded]
                    pts[pos] = (pts[pos][0], -pts[pos][1])
                    if dorey_twisted(DoreyTriple(g2, *pts)).holds != v2.holds:
                        fail = f"verdict depends on the class representative at {down}"
            yield at, fail


@_check("minimal_pairs_dorey", "every orientation and minimal pair, N <= 6")
def _check_minimal_pairs_dorey() -> Cases:
    for at, q in _orientations(6):
        t, ar = q.ftype, ar_quiver(q)
        allowed = {"A-i", "A-ii"} if t.family == "A" else {"D-i", "D-iii"}
        # The order minimal_pair_triple reads: the one-order memo then holds.
        # A tuple word would get that very order back from root_sequence's memo.
        order = _w0_order(q)
        same = order == root_sequence(t, list(adapted_word(q, "w0")))
        yield at, None if same else "w0 order is not its word's root sequence"
        for alpha in order:
            for pair in minimal_pairs(order, alpha):
                case = f"{at} alpha={alpha} pair={pair}"
                try:
                    up = minimal_pair_triple(ar, alpha, pair, t=1)
                    down = minimal_pair_triple(ar, alpha, pair, t=2)
                except AssertionError as exc:
                    yield case, str(exc)
                    continue
                tag = dorey_untwisted(up).condition
                if tag not in allowed:
                    yield case, f"tag {tag}"
                    continue
                yield case, None if dorey_twisted(down).holds else "folded triple fails"


@_check("pole_class", "every holding triple from the condition tables, N <= 6")
def _check_pole_class() -> Cases:
    one = SpectralParam.one()
    for at, g, i, j, k in _index_triples(6):
        for (rx, ry), tag in _candidate_conditions(g, i, j, k).items():
            triple = DoreyTriple(g, (i, SpectralParam(*rx)), (j, SpectralParam(*ry)), (k, one))
            found = dorey_untwisted(triple).condition
            if found != tag:
                yield at, f"matcher tag {found} != {tag}"
                continue
            try:
                cls = multiple_pole_class(triple)
            except AssertionError as exc:
                yield at, f"{tag}: {exc}"
                continue
            want = "double" if tag == "D-ii" else "simple"
            yield at, None if cls == want else f"pole {cls} under {tag}"


@_check("lemma_embedding", "adjacent non-dual Se0 pairs, |q-power| <= 2N, N <= 6")
def _check_lemma_embedding() -> Cases:
    mq = SpectralParam.minus_q_power
    for t in _classical_types(6):
        g1 = AffineType(t.family, 1, t.rank)
        verts = se0_window(g1, 2 * t.rank)
        cache: dict = {}
        for a, v in enumerate(verts):
            for w in verts[a + 1:]:
                at = f"{g1.code} N={g1.N} {v} {w}"
                is_dual = (w.i, w.x) in (dual_point(g1, v.i, v.x), right_dual_point(g1, v.i, v.x))
                ratio = w.x / v.x
                adjacent = (
                    zero_order(g1, v.i, w.i, ratio) > 0
                    or zero_order(g1, w.i, v.i, ratio.inverse()) > 0
                )
                try:
                    res = embed_pair_in_AR(g1, v, w)
                except AssertionError as exc:
                    yield at, str(exc)
                    continue
                if is_dual:
                    signalled = not res.found and res.reason == "dual pair"
                    yield at, None if signalled else "expected the dual-pair signal"
                    continue
                if not adjacent:
                    signalled = not res.found and res.reason == "not adjacent"
                    yield at, None if signalled else "expected the non-adjacency signal"
                    continue
                if not res.found:
                    yield at, f"embedding missing ({res.reason})"
                    continue
                key = (res.quiver, tuple(sorted(res.height.items())))
                if key not in cache:
                    cache[key] = ar_quiver(res.quiver, res.height)
                ar = cache[key]
                (i1, s1), (i2, s2) = res.positions
                ok = (
                    i1 == v.i
                    and i2 == w.i
                    and (i1, s1) in ar.gamma_vertices
                    and (i2, s2) in ar.gamma_vertices
                    and res.shift * mq(s1) == v.x
                    and res.shift * mq(s2) == w.x
                )
                yield at, None if ok else "witness fails revalidation"


class VerifyReport(Value):
    """One line of the verification suite's output, with the number of cases
    the check examined."""

    __slots__ = ("check_name", "universe", "passed", "counterexample", "elapsed_ms", "cases")

    def __init__(
        self, check_name: str, universe: str, passed: bool, counterexample: str | None,
        elapsed_ms: int, cases: int,
    ) -> None:
        self._init(check_name, universe, passed, counterexample, elapsed_ms, cases)


def available_checks() -> tuple[str, ...]:
    return tuple(_CHECKS)


def run_check(name: str) -> VerifyReport:
    """Run one named check to its first failing case and wrap the outcome in
    a report.  A check that examined no case fails."""
    if name not in _CHECKS:
        raise ValueError(f"unknown check {name!r}; available: {', '.join(available_checks())}")
    universe, cases = _CHECKS[name]
    start, count, cex = time.perf_counter(), 0, None
    try:
        for count, (label, failure) in enumerate(cases(), 1):
            if failure is not None:
                cex = f"{label}: {failure}"
                break
    except AssertionError as exc:
        cex = f"invariant violated: {exc}"
    if cex is None and not count:
        cex = "examined no cases"
    elapsed = round((time.perf_counter() - start) * 1000)
    return VerifyReport(name, universe, cex is None, cex, elapsed, count)


def run_all(names: Sequence[str] | None = None) -> tuple[VerifyReport, ...]:
    return tuple(run_check(n) for n in (names if names is not None else available_checks()))
