"""Self-verification suite: exhaustive cross-checks of the package's
combinatorics over bounded universes, one report per named check."""

from __future__ import annotations

import time
from typing import Callable, Sequence

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


def _classical_types(nmax: int) -> list[FiniteType]:
    out = [FiniteType("A", n) for n in range(2, nmax + 1)]
    out += [FiniteType("D", n) for n in range(4, nmax + 1)]
    return out


def _twisted_types(nmax: int) -> list[AffineType]:
    out = [AffineType("A", 2, n) for n in range(2, nmax + 1)]
    out += [AffineType("D", 2, n) for n in range(4, nmax + 1)]
    return out


def _check_se_j_equals_qrev() -> str | None:
    for t in _classical_types(8):
        cartan = cartan_matrix(t)
        for q in all_orientations(t):
            expected = {(str(b), str(a)) for a, b in q.arrows}
            for base_vertex, base_value in [(v, 0) for v in t.index_set] + [(1, 1)]:
                xi = height_function(q, base_vertex, base_value)
                ar = ar_quiver(q, xi)
                for tw in (1, 2):
                    sw = schur_weyl_quiver(ar, tw)
                    got = {(a, b) for a, b, _ in sw.quiver.arrows}
                    simple = all(m == 1 for _, _, m in sw.quiver.arrows)
                    if got != expected or not simple or sw.cartan != cartan:
                        return (
                            f"{t.family}{t.rank} arrows={q.arrows} "
                            f"base=({base_vertex},{base_value}) t={tw}: "
                            f"got {sorted(got)}, want {sorted(expected)}"
                        )
    return None


def _check_denominator_structure() -> str | None:
    for g in [h for g2 in _twisted_types(16) for h in (g2.partner(), g2)]:
        star = p_star(g)
        for k in g.index_set:
            for l in g.index_set:
                roots, at = denominator_roots_raw(g, k, l), f"{g.code} N={g.N} d_{{{k},{l}}}"
                if roots != denominator_roots_raw(g, dual_index(g, k), dual_index(g, l)):
                    return f"{at} differs from d_{{k*,l*}}"
                order, want = roots.get((star.zeta, star.m), 0), int(l == dual_index(g, k))
                if order != want:
                    return f"{at}: zero order {order} at p*, want {want}"
                bad = [m for _, m in roots if not 1 <= m <= star.m]
                if bad:
                    return f"{at}: zero at q-power {min(bad)} outside 1..{star.m}"
    return None


def _check_pi_two_to_one() -> str | None:
    for g2 in _twisted_types(8):
        g1 = g2.partner()
        bound = 4 * g2.N
        seen = set()
        for i in g2.index_set:
            for zeta in range(4):
                for m in range(-bound, bound + 1):
                    v = vertex_class(g2, i, SpectralParam(zeta, m))
                    if v in seen:
                        continue
                    seen.add(v)
                    pre = pi_preimages(v)
                    if len(set(pre)) != 2:
                        return f"{g2.code} N={g2.N}: fiber of {v} is {pre}"
                    for a, y in pre:
                        if pi(g1, a, y) != v:
                            return f"{g2.code} N={g2.N}: ({a},{y}) does not fold onto {v}"
        for a in g1.index_set:
            for zeta in range(4):
                for m in range(-bound, bound + 1):
                    x = SpectralParam(zeta, m)
                    if (a, x) not in pi_preimages(pi(g1, a, x)):
                        return f"{g1.code} N={g1.N}: point ({a},{x}) missing from its fiber"
    return None


def _check_pi_iso_on_se0() -> str | None:
    for g2 in _twisted_types(8):
        g1 = g2.partner()
        bound = 4 * g2.N
        dom = se0_window(g1, bound)
        image = {v: pi(g1, v.i, v.x) for v in dom}
        if len(set(image.values())) != len(dom):
            return f"{g1.code} N={g1.N}: fold not injective on the Se0 window"
        if set(image.values()) != set(se0_window(g2, bound)):
            return f"{g1.code} N={g1.N}: fold image is not the twisted Se0 window"
        for v in dom:
            for w in dom:
                if v is w:
                    continue
                mult = zero_order(g1, v.i, w.i, w.x / v.x)
                if mult != class_arrow_mult(image[v], image[w]):
                    return f"{g1.code} N={g1.N}: multiplicity changes under the fold at {v} -> {w}"
    return None


def _check_pi_duality() -> str | None:
    for g2 in _twisted_types(8):
        g1 = g2.partner()
        bound = 4 * g2.N
        for a in g1.index_set:
            for zeta in range(4):
                for m in range(-bound, bound + 1):
                    x = SpectralParam(zeta, m)
                    v = pi(g1, a, x)
                    for dual in (dual_point, right_dual_point):
                        di, dx = dual(g1, a, x)
                        dj, dy = dual(g2, v.i, v.x)
                        if pi(g1, di, dx) != vertex_class(g2, dj, dy):
                            return (
                                f"{g1.code} N={g1.N}: {dual.__name__} does not "
                                f"commute with the fold at ({a},{x})"
                            )
    return None


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


def _check_m_values() -> str | None:
    for n in range(2, 11):
        t = FiniteType("A", n)
        linear = DynkinQuiver(t, tuple((i, i + 1) for i in range(1, n)))
        for q, formula in ((linear, lambda i: n - i), (linear.reverse(), lambda i: i - 1)):
            m = _m_table(q)
            bad = [i for i in t.index_set if m[i] != formula(i)]
            if bad:
                return f"A{n} {q.arrows}: m_{bad[0]} = {m[bad[0]]}"
        for q in all_orientations(t):
            m = _m_table(q)
            if sum(m[i] + 1 for i in t.index_set) != t.num_positive_roots():
                return f"A{n} {q.arrows}: box sizes do not sum to the root count"
    for n in range(4, 11):
        t = FiniteType("D", n)
        for q in all_orientations(t):
            m = _m_table(q)
            if sum(m[i] + 1 for i in t.index_set) != t.num_positive_roots():
                return f"D{n} {q.arrows}: box sizes do not sum to the root count"
            bad = [i for i in range(1, n - 1) if m[i] != n - 2]
            if bad:
                return f"D{n} {q.arrows}: m_{bad[0]} = {m[bad[0]]} on the chain"
            xi = height_function(q)
            diff = xi[n - 1] - xi[n]
            if n % 2 == 1 and diff == -2:
                want = (n - 3, n - 1)
            elif n % 2 == 1 and diff == 2:
                want = (n - 1, n - 3)
            else:
                want = (n - 2, n - 2)
            if (m[n - 1], m[n]) != want:
                return f"D{n} {q.arrows}: fork m = {(m[n - 1], m[n])}, want {want}"
    return None


def _check_order_eq_paths() -> str | None:
    for t in _classical_types(7):
        for q in all_orientations(t):
            ar = ar_quiver(q)
            if convex_order_Q(ar).pairs != gamma_path_order(ar).pairs:
                return f"{t.family}{t.rank} {q.arrows}: coordinate and path orders differ"
    return None


def _check_adapted_refines() -> str | None:
    for t in _classical_types(7):
        for q in all_orientations(t):
            word = adapted_word(q, "w0")
            if not is_adapted(q, word):
                return f"{t.family}{t.rank} {q.arrows}: greedy longest word is not adapted"
            seq = root_sequence(t, word)
            if not is_convex(t, seq):
                return f"{t.family}{t.rank} {q.arrows}: adapted total order is not convex"
            pos = {r: k for k, r in enumerate(seq)}
            for beta, gamma in convex_order_Q(ar_quiver(q)).pairs:
                if pos[beta] > pos[gamma]:
                    return (
                        f"{t.family}{t.rank} {q.arrows}: adapted order places "
                        f"{beta} after {gamma}"
                    )
    return None


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


def _check_dorey_bruteforce() -> str | None:
    for t in _classical_types(6):
        g = AffineType(t.family, 1, t.rank)
        w = 2 * t.rank + 1
        grid = [(z, m) for z in range(4) for m in range(-w, w + 1)]
        idx = g.index_set
        for i in idx:
            for j in idx:
                for k in idx:
                    cand = _candidate_conditions(g, i, j, k)
                    if any(abs(rx[1]) > w or abs(ry[1]) > w for rx, ry in cand):
                        return f"{g.code} N={g.N} {(i, j, k)}: a condition ratio escapes the grid"
                    get = cand.get
                    for rx in grid:
                        for ry in grid:
                            if condition_tag(g, i, j, k, rx, ry) != get((rx, ry)):
                                return (
                                    f"{g.code} N={g.N} {(i, j, k)} rx={rx} ry={ry}: "
                                    f"matcher says {condition_tag(g, i, j, k, rx, ry)}, "
                                    f"enumeration says {get((rx, ry))}"
                                )
    return None


def _check_twisted_lift() -> str | None:
    for t in _classical_types(6):
        g1 = AffineType(t.family, 1, t.rank)
        g2 = g1.partner()
        w = 2 * t.rank + 1
        one = SpectralParam.one()
        for i in g1.index_set:
            for j in g1.index_set:
                for k in g1.index_set:
                    p1 = distance(t, i, k) % 2
                    p2 = distance(t, j, k) % 2
                    for e1 in range(-w, w + 1):
                        if e1 % 2 != p1:
                            continue
                        x = SpectralParam.minus_q_power(e1)
                        for e2 in range(-w, w + 1):
                            if e2 % 2 != p2:
                                continue
                            y = SpectralParam.minus_q_power(e2)
                            up = DoreyTriple(g1, (i, x), (j, y), (k, one))
                            folded = [pi(g1, *pt) for pt in ((i, x), (j, y), (k, one))]
                            down = DoreyTriple(g2, *((v.i, v.x) for v in folded))
                            v1 = dorey_untwisted(up).holds
                            v2 = dorey_twisted(down)
                            if v1 != v2.holds:
                                return f"{g1.code} N={g1.N}: lift inconsistency at {up}"
                            if v2.holds and not dorey_untwisted(DoreyTriple(g1, *v2.witness)).holds:
                                return f"{g2.code} N={g2.N}: invalid witness at {down}"
                            for pos in range(3):
                                if not has_sign_quotient(g2, folded[pos].i):
                                    continue
                                pts = [(v.i, v.x) for v in folded]
                                pts[pos] = (pts[pos][0], -pts[pos][1])
                                alt = dorey_twisted(DoreyTriple(g2, *pts))
                                if alt.holds != v2.holds:
                                    return (
                                        f"{g2.code} N={g2.N}: verdict depends on the "
                                        f"class representative at {down}"
                                    )
    return None


def _check_minimal_pairs_dorey() -> str | None:
    for t in _classical_types(6):
        allowed = {"A-i", "A-ii"} if t.family == "A" else {"D-i", "D-iii"}
        for q in all_orientations(t):
            ar = ar_quiver(q)
            # The order minimal_pair_triple reads: the one-order memo then holds.
            order = _w0_order(q)
            if order != root_sequence(t, adapted_word(q, "w0")):
                return f"{t.family}{t.rank} {q.arrows}: w0 order is not its word's root sequence"
            for alpha in order:
                for pair in minimal_pairs(order, alpha):
                    try:
                        up = minimal_pair_triple(ar, alpha, pair, t=1)
                        down = minimal_pair_triple(ar, alpha, pair, t=2)
                    except AssertionError as exc:
                        return f"{t.family}{t.rank} {q.arrows} alpha={alpha} pair={pair}: {exc}"
                    tag = dorey_untwisted(up).condition
                    if tag not in allowed:
                        return f"{t.family}{t.rank} {q.arrows} alpha={alpha}: tag {tag}"
                    if not dorey_twisted(down).holds:
                        return f"{t.family}{t.rank} {q.arrows} alpha={alpha}: folded triple fails"
    return None


def _check_pole_class() -> str | None:
    one = SpectralParam.one()
    for t in _classical_types(6):
        g = AffineType(t.family, 1, t.rank)
        for i in g.index_set:
            for j in g.index_set:
                for k in g.index_set:
                    for (rx, ry), tag in _candidate_conditions(g, i, j, k).items():
                        triple = DoreyTriple(
                            g, (i, SpectralParam(*rx)), (j, SpectralParam(*ry)), (k, one)
                        )
                        verdict = dorey_untwisted(triple)
                        if verdict.condition != tag:
                            return (
                                f"{g.code} N={g.N} {(i, j, k)}: matcher tag "
                                f"{verdict.condition} != {tag}"
                            )
                        try:
                            cls = multiple_pole_class(triple)
                        except AssertionError as exc:
                            return f"{g.code} N={g.N} {(i, j, k)} {tag}: {exc}"
                        if cls != ("double" if tag == "D-ii" else "simple"):
                            return f"{g.code} N={g.N} {(i, j, k)}: pole {cls} under {tag}"
    return None


def _check_lemma_embedding() -> str | None:
    mq = SpectralParam.minus_q_power
    for t in _classical_types(6):
        g1 = AffineType(t.family, 1, t.rank)
        verts = se0_window(g1, 2 * t.rank)
        cache: dict = {}
        for a in range(len(verts)):
            for b in range(a + 1, len(verts)):
                v, w = verts[a], verts[b]
                target = (w.i, w.x)
                is_dual = target in (
                    dual_point(g1, v.i, v.x),
                    right_dual_point(g1, v.i, v.x),
                )
                ratio = w.x / v.x
                adjacent = (
                    zero_order(g1, v.i, w.i, ratio) > 0
                    or zero_order(g1, w.i, v.i, ratio.inverse()) > 0
                )
                try:
                    res = embed_pair_in_AR(g1, v, w)
                except AssertionError as exc:
                    return f"{g1.code} N={g1.N} {v} {w}: {exc}"
                if is_dual:
                    if res.found or res.reason != "dual pair":
                        return f"{g1.code} N={g1.N} {v} {w}: expected the dual-pair signal"
                    continue
                if not adjacent:
                    if res.found or res.reason != "not adjacent":
                        return f"{g1.code} N={g1.N} {v} {w}: expected the non-adjacency signal"
                    continue
                if not res.found:
                    return f"{g1.code} N={g1.N} {v} {w}: embedding missing ({res.reason})"
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
                if not ok:
                    return f"{g1.code} N={g1.N} {v} {w}: witness fails revalidation"
    return None


class VerifyReport(Value):
    """One line of the verification suite's output."""

    __slots__ = ("check_name", "universe", "passed", "counterexample", "elapsed_ms")

    def __init__(
        self, check_name: str, universe: str, passed: bool, counterexample: str | None,
        elapsed_ms: int,
    ) -> None:
        self._init(check_name, universe, passed, counterexample, elapsed_ms)


_CHECKS: tuple[tuple[str, str, Callable[[], str | None]], ...] = (
    (
        "se_j_equals_qrev",
        "A2..A8 and D4..D8, every orientation and base, t in {1,2}",
        _check_se_j_equals_qrev,
    ),
    (
        "denominator_structure",
        "A1, A2, D1, D2 with N <= 16, every (k, l): 4619 tables",
        _check_denominator_structure,
    ),
    (
        "pi_two_to_one",
        "twisted classes and untwisted points, |q-power| <= 4N, N <= 8",
        _check_pi_two_to_one,
    ),
    ("pi_iso_on_se0", "Se0 windows, |q-power| <= 4N, N <= 8", _check_pi_iso_on_se0),
    ("pi_duality", "untwisted points, |q-power| <= 4N, N <= 8", _check_pi_duality),
    ("m_values", "A2..A10 and D4..D10, every orientation", _check_m_values),
    ("order_eq_paths", "A2..A7 and D4..D7, every orientation", _check_order_eq_paths),
    ("adapted_refines", "A2..A7 and D4..D7, every orientation", _check_adapted_refines),
    (
        "dorey_bruteforce_agree",
        "all index triples, ratio grid |q-power| <= 2N+1, N <= 6",
        _check_dorey_bruteforce,
    ),
    (
        "twisted_lift_consistency",
        "single-component triples, |q-power| <= 2N+1, N <= 6",
        _check_twisted_lift,
    ),
    (
        "minimal_pairs_dorey",
        "every orientation and minimal pair, N <= 6",
        _check_minimal_pairs_dorey,
    ),
    (
        "pole_class",
        "every holding triple from the condition tables, N <= 6",
        _check_pole_class,
    ),
    (
        "lemma_embedding",
        "adjacent non-dual Se0 pairs, |q-power| <= 2N, N <= 6",
        _check_lemma_embedding,
    ),
)


def available_checks() -> tuple[str, ...]:
    return tuple(name for name, _, _ in _CHECKS)


def run_check(name: str) -> VerifyReport:
    """Run one named check and wrap the outcome in a report."""
    for check_name, universe, fn in _CHECKS:
        if check_name != name:
            continue
        start = time.perf_counter()
        try:
            cex = fn()
        except AssertionError as exc:
            cex = f"invariant violated: {exc}"
        elapsed = round((time.perf_counter() - start) * 1000)
        return VerifyReport(check_name, universe, cex is None, cex, elapsed)
    raise ValueError(f"unknown check {name!r}; available: {', '.join(available_checks())}")


def run_all(names: Sequence[str] | None = None) -> tuple[VerifyReport, ...]:
    return tuple(run_check(n) for n in (names if names is not None else available_checks()))
