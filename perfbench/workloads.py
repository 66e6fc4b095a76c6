"""The three benchmark workloads: seeded input generation, the timed operation,
and an untimed check of each operation's output.

Every workload is a stream of blocks.  A block has a fixed composition of
strata (type, rank or subcommand) in a fixed order; the seed chooses only what
varies inside a stratum (orientations, points, indices, pairs).  Runs execute
whole blocks, so every seed and every run length measures the same mix and the
latency quantiles fall inside the same strata.  Block ``b`` of seed ``s`` is
generated from its own random stream, so it does not depend on how many blocks
ran before it.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

from arquiver import (
    AffineType,
    DoreyTriple,
    DynkinQuiver,
    FiniteType,
    SpectralParam,
    adapted_word,
    ar_quiver,
    cartan_matrix,
    class_arrow_mult,
    denominator,
    distance,
    dorey,
    dorey_untwisted,
    dual_point,
    embed_pair_in_AR,
    format_root,
    height_function,
    is_adapted,
    minimal_pair_triple,
    minimal_pairs,
    multiple_pole_class,
    pi,
    positive_roots,
    right_dual_point,
    root_sequence,
    schur_weyl_quiver,
    se0_window,
    se_window,
    vertex_class,
    zero_order,
)

HERE = Path(__file__).resolve().parent

# Size caps.  embed-pair enumerates all 2^(N-1) orientations, so its cost
# doubles per rank; never raise these.
CLASSICAL_MAX_RANK = 16
DENOMINATOR_MAX_N = 12
SE_QUIVER_MAX_N = 8
EMBED_MAX_N = {"A": 12, "D": 10}
DOREY_MAX_N = 8


class CheckFailed(Exception):
    """An operation's output broke an invariant or differs from the reference."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:12]


def block_rng(workload: str, seed: int, block: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{block}")


def random_quiver(rng: random.Random, t: FiniteType) -> DynkinQuiver:
    arrows = tuple((b, a) if rng.random() < 0.5 else (a, b) for a, b in t.edges())
    return DynkinQuiver(t, arrows)


def orientation_text(q: DynkinQuiver) -> str:
    return ",".join(f"{a}>{b}" for a, b in q.arrows)


def child_env(root: Path) -> dict:
    """The environment for child interpreters: the checkout's ``src`` first."""
    old = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(root / "src") + (os.pathsep + old if old else ""))


def min_rank(family: str) -> int:
    return 2 if family == "A" else 4


@dataclass
class Op:
    """One timed operation; ``spec`` holds its generated inputs."""

    index: int
    kind: str
    spec: dict


class Workload:
    """Base class: subclasses define ``block``, ``execute`` and ``check``.

    ``check`` returns the canonical bytes of the output, which are compared
    with the recorded reference digests for the default seeds, and raises
    ``CheckFailed`` when an invariant fails.
    """

    name = ""

    def __init__(self, seed: int, root: Path) -> None:
        self.seed = seed
        self.root = root
        self.next_index = 0
        self._next_block = 0

    def next_block(self) -> list[Op]:
        rng = block_rng(self.name, self.seed, self._next_block)
        self._next_block += 1
        ops = []
        for kind, spec in self.block(rng, self._next_block - 1):
            ops.append(Op(self.next_index, kind, spec))
            self.next_index += 1
        return ops

    def block(self, rng: random.Random, b: int) -> list[tuple[str, dict]]:
        raise NotImplementedError

    def execute(self, op: Op, traced: bool = False):
        raise NotImplementedError

    def check(self, op: Op, out) -> bytes:
        raise NotImplementedError


# ---------------------------------------------------------------- ar_sweep

AR_SMALL = tuple((f, r) for r in range(4, 13) for f in "AD")
# One large rank after every twelve small ops: 3 of the 39 ops in a block.
AR_LARGE = (("A", 20), ("D", 16), ("A", 24))


class ArSweep(Workload):
    """Each op: a fresh orientation of A_r or D_r through the quiver and
    root-system layers (adapted words, root sequence, AR quiver, both
    Schur-Weyl quivers, every minimal pair, sampled pair triples)."""

    name = "ar_sweep"

    def block(self, rng, b):
        strata = []
        small = AR_SMALL + AR_SMALL
        for k, large in enumerate(AR_LARGE):
            strata.extend(small[12 * k:12 * k + 12])
            strata.append(large)
        out = []
        for family, rank in strata:
            q = random_quiver(rng, FiniteType(family, rank))
            picks = [rng.randrange(1 << 30) for _ in range(1 if rank > 12 else 2)]
            out.append((f"{family}{rank}", {"quiver": q, "picks": picks}))
        return out

    def execute(self, op, traced=False):
        q = op.spec["quiver"]
        t = q.ftype
        cox = adapted_word(q, "coxeter")
        w0 = adapted_word(q, "w0")
        seq = root_sequence(t, w0)
        ar = ar_quiver(q)
        sws = (schur_weyl_quiver(ar, 1), schur_weyl_quiver(ar, 2))
        pairs = [(alpha, pair) for alpha in seq for pair in minimal_pairs(seq, alpha)]
        triples = []
        for pick in op.spec["picks"]:
            alpha, pair = pairs[pick % len(pairs)]
            for tw in (1, 2):
                triples.append(minimal_pair_triple(ar, alpha, pair, tw))
        return cox, w0, seq, ar, sws, pairs, triples

    def check(self, op, out):
        cox, w0, seq, ar, sws, pairs, triples = out
        q = op.spec["quiver"]
        t = q.ftype
        roots = positive_roots(t)
        require(len(seq) == len(roots) and set(seq) == roots, "w0 roots are not the positive roots")
        require(is_adapted(q, w0) and is_adapted(q, cox), "word not adapted")
        require(len(ar.gamma_vertices) == t.num_positive_roots(), "|Gamma_Q| != root count")
        reversed_arrows = {(str(b), str(a)) for a, b in q.arrows}
        for sw in sws:
            got = {(a, b) for a, b, _ in sw.quiver.arrows}
            require(got == reversed_arrows and sw.cartan == cartan_matrix(t), "Schur-Weyl quiver != Q reversed")
        for alpha, (beta, gamma) in pairs:
            require(tuple(x + y for x, y in zip(beta, gamma)) == alpha, "minimal pair does not sum to alpha")
        for triple in triples:
            require(dorey(triple).holds, "minimal-pair triple does not hold")
        canon = (cox, w0, seq, sorted(ar.gamma_vertices), ar.gamma_arrows,
                 [sw.quiver.arrows for sw in sws], pairs, triples)
        return repr(canon).encode()


# ----------------------------------------------------------- dorey_triples

DOREY_TYPES = tuple(("A", n) for n in range(2, DOREY_MAX_N + 1)) + tuple(
    ("D", n) for n in range(4, DOREY_MAX_N + 1)
)


class TripleSource:
    """Seeded triples over A1/D1: a quarter built to hold from minimal-pair
    positions of an AR quiver shifted by a common (-q)^s, the rest drawn on
    the parity lattice the way the twisted lift check draws them."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self._pools: dict[tuple[str, int], list] = {}

    def holding_pool(self, family: str, n: int) -> list:
        key = (family, n)
        if key not in self._pools:
            rng = random.Random(f"{self.workload}:{self.seed}:pool:{family}{n}")
            t = FiniteType(family, n)
            pool = []
            for _ in range(2):
                q = random_quiver(rng, t)
                ar = ar_quiver(q)
                seq = root_sequence(t, adapted_word(q, "w0"))
                for alpha in seq:
                    for beta, gamma in minimal_pairs(seq, alpha):
                        pool.append(tuple(ar.phi_inv[(r, 0)] for r in (gamma, beta, alpha)))
            self._pools[key] = pool
        return self._pools[key]

    def triple(self, rng: random.Random, family: str, n: int, holding: bool) -> tuple:
        w = 2 * n + 1
        if holding:
            pts = rng.choice(self.holding_pool(family, n))
            s = rng.randint(-w, w)
            return tuple((i, SpectralParam.minus_q_power(p + s)) for i, p in pts)
        t = FiniteType(family, n)
        i, j, k = (rng.randint(1, n) for _ in range(3))
        e1 = rng.randrange(-w + (w + distance(t, i, k)) % 2, w + 1, 2)
        e2 = rng.randrange(-w + (w + distance(t, j, k)) % 2, w + 1, 2)
        mq = SpectralParam.minus_q_power
        return ((i, mq(e1)), (j, mq(e2)), (k, SpectralParam.one()))


class DoreyTriples(Workload):
    """Each op: untwisted and twisted verdicts of one triple, the fold, the
    pole class of holding triples, and arrow multiplicities in both types."""

    name = "dorey_triples"

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self.source = TripleSource(self.name, seed)

    def block(self, rng, b):
        out = []
        for family, n in DOREY_TYPES:
            for holding in (True, False, False, False):
                pts = self.source.triple(rng, family, n, holding)
                out.append((f"{family}{n}", {"g": AffineType(family, 1, n), "pts": pts, "holding": holding}))
        return out

    def execute(self, op, traced=False):
        g1 = op.spec["g"]
        a, b, c = op.spec["pts"]
        up = DoreyTriple(g1, a, b, c)
        v1 = dorey(up)
        folded = tuple(pi(g1, i, x) for i, x in (a, b, c))
        down = DoreyTriple(g1.partner(), *((v.i, v.x) for v in folded))
        v2 = dorey(down)
        pole = multiple_pole_class(up) if v1.holds else None
        m1 = class_arrow_mult(vertex_class(g1, *a), vertex_class(g1, *b))
        m2 = class_arrow_mult(folded[0], folded[1])
        return folded, v1, v2, pole, m1, m2

    def check(self, op, out):
        folded, v1, v2, pole, m1, m2 = out
        g1 = op.spec["g"]
        (i, x), (j, y), _ = op.spec["pts"]
        require(v1.holds == v2.holds, "twisted verdict differs from the untwisted lift")
        if op.spec["holding"]:
            require(v1.holds, "minimal-pair triple does not hold")
        if v2.holds:
            require(dorey_untwisted(DoreyTriple(g1, *v2.witness)).holds, "twisted witness does not hold")
            require(tuple(pi(g1, *p) for p in v2.witness) == folded, "witness does not fold onto the triple")
        order = zero_order(g1, i, j, y / x)
        require(m1 == order, "untwisted arrow multiplicity != zero order")
        if v1.holds:
            require(order == (2 if pole == "double" else 1), "pole class disagrees with the zero order")
        return repr((v1, v2, pole, m1, m2)).encode()


# ----------------------------------------------------------------- cli_mix

CLI_SUBCOMMANDS = (
    "ar-quiver", "convex-order", "minimal-pairs", "denominator",
    "se-quiver", "schur-weyl", "dorey", "embed-pair",
)
# Fixed order of strata in a 20-op block; "+out" writes with --out.  The
# three se-quiver queries (15% of ops) put op_ms_p90 inside their stratum.
CLI_BLOCK = (
    "ar-quiver", "denominator", "convex-order", "dorey", "se-quiver",
    "minimal-pairs", "schur-weyl", "embed-pair:A", "ar-quiver:dot", "se-quiver",
    "denominator+out", "dorey", "malformed", "convex-order+out", "minimal-pairs",
    "se-quiver", "embed-pair:D", "denominator", "schur-weyl", "dorey",
)
# The large queries take their sizes from these rotations, which repeat every
# CLI_PERIOD blocks; 100 ops (the minimum run) cover each entry once.
CLI_PERIOD = 5
SE_SIZES = (  # (type, N, seeded by one vertex or by --se0), three per block
    ("A1", 8, "seed"), ("D1", 7, "se0"), ("A2", 8, "seed"),
    ("D2", 7, "seed"), ("A1", 7, "se0"), ("D1", 8, "seed"),
    ("A2", 7, "se0"), ("D2", 8, "seed"), ("A1", 6, "se0"),
    ("D1", 6, "se0"), ("A2", 6, "seed"), ("D2", 6, "se0"),
    ("A1", 8, "seed"), ("D2", 7, "se0"), ("D1", 7, "seed"),
)
EMBED_SIZES = {"A": (12, 10, 11, 9, 12), "D": (10, 8, 9, 10, 7)}
# Ranks of the 8 classical queries per block, 40 per period: 4..16 spread
# over both families and all four subcommands.
CLASSICAL_RANKS = tuple(4 + (7 * k) % 13 for k in range(8 * CLI_PERIOD))

_HANDLER_RE = re.compile(rb"^# (\S+) (\d+)ms$", re.M)
TRACE_PREFIX = b"#trace "
OUT_DIR = ".perfbench_out"


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def render_quiver(vertices, arrows, fmt: str) -> str:
    if fmt == "dot":
        lines = ["digraph G {"]
        lines += [f'  "{vid}" [label="{label}"];' for vid, label in vertices]
        for a, b, m in arrows:
            lines += [f'  "{a}" -> "{b}";'] * m
        lines.append("}")
        return "\n".join(lines) + "\n"
    return _dumps({
        "vertices": [{"id": vid, "label": label} for vid, label in vertices],
        "arrows": [{"src": a, "dst": b, "mult": m} for a, b, m in arrows],
    }) + "\n"


def _root_text(r) -> str:
    return ",".join(str(c) for c in r)


def _point_text(p) -> str:
    return f"{p[0]}:{p[1]}"


class CliMix(Workload):
    """Each op: one fresh ``python -m arquiver.cli`` child running a seeded
    query; its stdout must equal the library result rendered the same way."""

    name = "cli_mix"

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self.source = TripleSource(self.name, seed)
        self._se0: dict[tuple[str, int], tuple] = {}
        self.env = child_env(root)
        self.out_path = root / OUT_DIR / "op.out"

    # -- generation

    def _classical(self, rng, k):
        """The k-th classical query of the period: family and rank are fixed,
        the orientation is seeded."""
        family = "AADDDDAA"[k % 8]  # each subcommand gets both families per block
        t = FiniteType(family, CLASSICAL_RANKS[k % len(CLASSICAL_RANKS)])
        q = random_quiver(rng, t)
        return t, q, ["--type", family, "--rank", str(t.rank), "--orientation", orientation_text(q)]

    def _base(self, rng, t):
        if rng.random() < 0.5:
            return None
        return f"{rng.randint(1, t.rank)}={rng.randint(-3, 3)}"

    def _adjacent_pair(self, rng, g):
        key = (g.code, g.N)
        if key not in self._se0:
            self._se0[key] = se0_window(g, 2 * g.N)
        verts = self._se0[key]
        while True:
            v = rng.choice(verts)
            cands = []
            for w in verts:
                if w == v or (w.i, w.x) in (dual_point(g, v.i, v.x), right_dual_point(g, v.i, v.x)):
                    continue
                r = w.x / v.x
                if zero_order(g, v.i, w.i, r) or zero_order(g, w.i, v.i, r.inverse()):
                    cands.append(w)
            if cands:
                return v, rng.choice(cands)

    def _malformed(self, rng):
        choice = rng.randrange(5)
        if choice == 0:
            n = rng.randint(2, DENOMINATOR_MAX_N)
            return ["denominator", "--g", "A1", "--n", str(n), "--k", "0", "--l", "1"]
        if choice == 1:
            n = rng.randint(3, CLASSICAL_MAX_RANK)
            return ["ar-quiver", "--type", "A", "--rank", str(n), "--orientation", "1>2"]
        if choice == 2:
            return ["denominator", "--g", "E1", "--n", "6", "--k", "1", "--l", "1"]
        if choice == 3:
            n = rng.randint(4, CLASSICAL_MAX_RANK)
            t = FiniteType("D", n)
            return ["minimal-pairs", "--type", "D", "--rank", str(n),
                    "--orientation", orientation_text(random_quiver(rng, t)), "--root", "1,1"]
        return ["se-quiver", "--g", "D1", "--n", str(rng.randint(4, SE_QUIVER_MAX_N))]

    def block(self, rng, b):
        out = []
        se_count = 0
        classical = 8 * (b % CLI_PERIOD)
        for stratum in CLI_BLOCK:
            kind, _, variant = stratum.partition(":")
            kind, plus, _ = kind.partition("+")
            spec: dict = {"out": bool(plus), "variant": variant}
            if kind in ("ar-quiver", "schur-weyl"):
                t, q, argv = self._classical(rng, classical)
                classical += 1
                spec.update(quiver=q, base=self._base(rng, t))
                argv = [kind] + argv
                if spec["base"]:
                    argv += ["--base", spec["base"]]
                if kind == "schur-weyl":
                    spec["t"] = rng.randint(1, 2)
                    argv += ["--t", str(spec["t"])]
                spec["format"] = "dot" if variant == "dot" or (kind == "schur-weyl" and rng.random() < 0.3) else "json"
                if spec["format"] == "dot":
                    argv += ["--format", "dot"]
            elif kind in ("convex-order", "minimal-pairs"):
                t, q, argv = self._classical(rng, classical)
                classical += 1
                spec["quiver"] = q
                argv = [kind] + argv
                if kind == "minimal-pairs":
                    spec["root"] = rng.choice(sorted(positive_roots(t)))
                    argv += ["--root", _root_text(spec["root"])]
            elif kind == "denominator":
                code = rng.choice(("A1", "A2", "D1", "D2"))
                g = AffineType.from_code(code, rng.randint(min_rank(code[0]), DENOMINATOR_MAX_N))
                k, l = rng.choice(g.index_set), rng.choice(g.index_set)
                spec.update(g=g, k=k, l=l)
                argv = ["denominator", "--g", code, "--n", str(g.N), "--k", str(k), "--l", str(l)]
            elif kind == "se-quiver":
                code, n, variant = SE_SIZES[3 * (b % CLI_PERIOD) + se_count]
                se_count += 1
                g = AffineType.from_code(code, n)
                spec.update(g=g, variant=variant)
                argv = ["se-quiver", "--g", code, "--n", str(n)]
                if variant == "se0":
                    argv.append("--se0")
                else:
                    spec["seed"] = (rng.choice(g.index_set), SpectralParam(rng.randrange(4), rng.randint(-n, n)))
                    argv += ["--seed", _point_text(spec["seed"])]
                spec["format"] = "dot" if rng.random() < 0.3 else "json"
                if spec["format"] == "dot":
                    argv += ["--format", "dot"]
            elif kind == "dorey":
                family, n = rng.choice(DOREY_TYPES)
                g = AffineType(family, 1, n)
                pts = self.source.triple(rng, family, n, rng.random() < 0.25)
                if rng.random() < 0.5:
                    g = g.partner()
                    pts = tuple((v.i, v.x) for v in (pi(g.partner(), i, x) for i, x in pts))
                spec.update(g=g, pts=pts)
                argv = ["dorey", "--g", g.code, "--n", str(n)]
                for flag, p in zip(("--a", "--b", "--c"), pts):
                    argv += [flag, _point_text(p)]
            elif kind == "embed-pair":
                n = EMBED_SIZES[variant][b % CLI_PERIOD]
                g = AffineType(variant, 1, n)
                v, w = self._adjacent_pair(rng, g)
                spec.update(g=g, v=(v.i, v.x), w=(w.i, w.x))
                argv = ["embed-pair", "--g", g.code, "--n", str(n), "--v", _point_text(spec["v"]),
                        "--w", _point_text(spec["w"])]
            else:
                argv = self._malformed(rng)
            if spec["out"]:
                argv += ["--out", str(self.out_path)]
            spec["argv"] = argv
            out.append((kind, spec))
        return out

    # -- execution

    def execute(self, op, traced=False):
        if traced:
            cmd = [sys.executable, str(HERE / "cli_boot.py"), *op.spec["argv"]]
        else:
            cmd = [sys.executable, "-m", "arquiver.cli", *op.spec["argv"]]
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self.env, cwd=self.root)
        with proc.stdout, proc.stderr:
            stdout = proc.stdout.read()
            stderr = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        written = None
        if op.spec["out"] and self.out_path.exists():
            written = self.out_path.read_bytes()
            self.out_path.unlink()
        return {
            "rc": proc.returncode, "stdout": stdout, "stderr": stderr, "file": written,
            "wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime, "rss_kb": usage.ru_maxrss,
        }

    def expected(self, op) -> str:
        kind, s = op.kind, op.spec
        if kind in ("ar-quiver", "schur-weyl"):
            q = s["quiver"]
            xi = height_function(q) if s["base"] is None else height_function(
                q, *(int(v) for v in s["base"].split("=")))
            ar = ar_quiver(q, xi)
            if kind == "schur-weyl":
                sw = schur_weyl_quiver(ar, s["t"])
                return render_quiver(sw.quiver.vertices, sw.quiver.arrows, s["format"])
            vertices = [(f"{i},{p}", format_root(ar.phi[(i, p)][0])) for i, p in sorted(ar.gamma_vertices)]
            arrows = [(f"{a[0]},{a[1]}", f"{b[0]},{b[1]}", 1) for a, b in ar.gamma_arrows]
            return render_quiver(vertices, arrows, s["format"])
        if kind == "convex-order":
            q = s["quiver"]
            word = adapted_word(q, "w0")
            seq = root_sequence(q.ftype, word)
            return _dumps({"word": list(word), "order": [_root_text(r) for r in seq]}) + "\n"
        if kind == "minimal-pairs":
            q = s["quiver"]
            seq = root_sequence(q.ftype, adapted_word(q, "w0"))
            pairs = minimal_pairs(seq, s["root"])
            return _dumps({"alpha": _root_text(s["root"]),
                           "pairs": [{"beta": _root_text(b), "gamma": _root_text(g)} for b, g in pairs]}) + "\n"
        if kind == "denominator":
            g = s["g"]
            d = denominator(g, s["k"], s["l"])
            return _dumps({"g": g.code, "N": g.N, "k": s["k"], "l": s["l"], "degree": d.degree,
                           "factors": list(d.factors),
                           "roots": [{"root": str(x), "mult": m} for x, m in d.roots]}) + "\n"
        if kind == "se-quiver":
            g = s["g"]
            bound = 2 * g.N
            if s["variant"] == "se0":
                seeds = list(se0_window(g, bound))
            else:
                seeds = [vertex_class(g, *s["seed"])]
            quiver, _ = se_window(g, seeds, bound)
            return render_quiver(quiver.vertices, quiver.arrows, s["format"])
        if kind == "dorey":
            g = s["g"]
            triple = DoreyTriple(g, *s["pts"])
            verdict = dorey(triple)
            obj: dict = {"holds": verdict.holds}
            if verdict.holds and g.twist == 1:
                obj["condition"] = verdict.condition
                obj["pole"] = multiple_pole_class(triple)
            if verdict.holds and g.twist == 2:
                obj["witness"] = [_point_text(p) for p in verdict.witness]
            return _dumps(obj) + "\n"
        if kind == "embed-pair":
            g = s["g"]
            v, w = vertex_class(g, *s["v"]), vertex_class(g, *s["w"])
            res = embed_pair_in_AR(g, v, w)
            require(res.found, "adjacent Se0 pair has no embedding")
            ar = ar_quiver(res.quiver, res.height)
            (i1, s1), (i2, s2) = res.positions
            mq = SpectralParam.minus_q_power
            require((i1, s1) in ar.gamma_vertices and (i2, s2) in ar.gamma_vertices
                    and res.shift * mq(s1) == v.x and res.shift * mq(s2) == w.x,
                    "embedding witness fails revalidation")
            return _dumps({
                "found": True,
                "orientation": orientation_text(res.quiver),
                "height": {str(i): h for i, h in sorted(res.height.items())},
                "shift": str(res.shift),
                "positions": [list(res.positions[0]), list(res.positions[1])],
            }) + "\n"
        raise ValueError(f"no expected output for {kind}")

    def check(self, op, out):
        if op.kind == "malformed":
            require(out["rc"] == 2, f"malformed query exited {out['rc']}, expected 2")
            require(out["stdout"] == b"" and b"error" in out["stderr"], "malformed query gave no error message")
            return b"rc=2"
        require(out["rc"] == 0, f"exit code {out['rc']}: {out['stderr'][-300:]!r}")
        text = self.expected(op).encode()
        if op.spec["out"]:
            require(out["stdout"] == b"", "--out query wrote to stdout")
            require(out["file"] == text, "--out file differs from the library result")
        else:
            require(out["stdout"] == text, "stdout differs from the library result")
        return text


def handler_ms(stderr: bytes) -> tuple[str, int] | None:
    """The CLI's ``# <cmd> <ms>ms`` line, if the handler ran."""
    m = _HANDLER_RE.search(stderr)
    return (m.group(1).decode(), int(m.group(2))) if m else None


def trace_snapshot(stderr: bytes) -> dict | None:
    for line in stderr.splitlines():
        if line.startswith(TRACE_PREFIX):
            return json.loads(line[len(TRACE_PREFIX):])
    return None


WORKLOADS = {w.name: w for w in (ArSweep, DoreyTriples, CliMix)}


# ----------------------------------------------------------------- running


class Reference:
    """Per-op output digests recorded for the default seeds."""

    def __init__(self, workload: str, seed: int) -> None:
        path = HERE / "reference" / f"{workload}.json"
        data = json.loads(path.read_text()) if path.exists() else {}
        self.digests = data.get("seeds", {}).get(str(seed), [])

    def mismatch(self, index: int, canon: bytes) -> bool:
        return index < len(self.digests) and self.digests[index] != digest(canon)


def run_phase(workload: Workload, seconds: float, min_ops: int, reference: Reference | None = None,
              traced: bool = False, tracer=None) -> dict:
    """Execute whole blocks until ``seconds`` of op CPU time and ``min_ops``
    ops have accumulated.  Only the op itself is timed, both in CPU time (the
    benchmark process, or the CLI child) and in wall time; generation and
    checks are not.  An exception, a failed check or a reference mismatch
    counts as a failed op.  ``tracer``, if given, is installed and records
    only inside the timed region."""
    cpu = array("d")  # 8 bytes per op, so the op count barely moves peak RSS
    wall = array("d")
    failures: list[str] = []
    results: list = []
    busy = 0.0
    if tracer is not None:
        tracer.install()
    try:
        while busy < seconds or len(cpu) < min_ops:
            for op in workload.next_block():
                if tracer is not None:
                    tracer.record(True)
                start, cpu_start = time.perf_counter(), time.process_time()
                try:
                    out, err = workload.execute(op, traced), None
                except Exception as exc:  # the program under test failed this op
                    out, err = None, f"{type(exc).__name__}: {exc}"
                op_wall, op_cpu = time.perf_counter() - start, time.process_time() - cpu_start
                if tracer is not None:
                    tracer.record(False)
                if isinstance(out, dict):
                    op_wall, op_cpu = out["wall_s"], out["cpu_s"]
                cpu.append(op_cpu)
                wall.append(op_wall)
                busy += op_cpu
                if err is None:
                    try:
                        canon = workload.check(op, out)
                        if reference is not None and reference.mismatch(op.index, canon):
                            err = "output differs from the recorded reference"
                    except CheckFailed as exc:
                        err = f"check failed: {exc}"
                    except Exception as exc:  # an independent path raised
                        err = f"check raised {type(exc).__name__}: {exc}"
                if err is not None:
                    failures.append(f"op {op.index} ({op.kind}): {err}")
                if isinstance(out, dict):
                    results.append({key: out[key] for key in ("stderr", "wall_s", "cpu_s", "rss_kb")})
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {"cpu": cpu, "wall": wall, "failures": failures, "cli": results}


def cli_layer_metrics(cli_results: list[dict]) -> dict[str, float]:
    """Startup (child CPU time minus handler ms) and per-subcommand handler
    ms, both as medians over the children whose handler ran."""
    startup: list[float] = []
    handler: dict[str, list[int]] = {name: [] for name in CLI_SUBCOMMANDS}
    for out in cli_results:
        found = handler_ms(out["stderr"])
        if found:
            cmd, ms = found
            startup.append(out["cpu_s"] * 1000 - ms)
            handler.setdefault(cmd, []).append(ms)
    metrics = {"cli.startup_ms": statistics.median(startup) if startup else 0.0}
    for cmd, vals in handler.items():
        metrics[f"cli.handler_ms.{cmd}"] = float(statistics.median(vals)) if vals else 0.0
    return metrics
