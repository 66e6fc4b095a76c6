"""Benchmark runner for arquiver.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ar_sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
spends half the time untraced and half with the layer tracer installed, and
reports the per-layer metrics plus ``trace_overhead``.  The metric names and
units come from ``BENCHMARK.json``.  The last stdout line is the result
object; the line before it holds run diagnostics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
MIN_OPS = 100  # a p90 needs at least ten samples beyond it
SETUP_REPS = 7


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def time_fresh_interpreter(root: Path, code: str, env: dict) -> float:
    """Seconds from launching a fresh interpreter until it has run ``code``
    and said so on stdout."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code + "\nimport sys; sys.stdout.write('ready\\n')"],
                            stdout=subprocess.PIPE, env=env, cwd=root)
    with proc.stdout:
        line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    if proc.wait() != 0 or line != b"ready\n":
        fail(f"fresh interpreter failed running {code!r}")
    return elapsed


def median_fresh(root: Path, code: str, env: dict) -> float:
    time_fresh_interpreter(root, code, env)  # warm the bytecode cache
    return statistics.median(time_fresh_interpreter(root, code, env) for _ in range(SETUP_REPS))


def rate(times: list[float]) -> float:
    return len(times) / sum(times)


def timing(times: list[float]) -> dict[str, float]:
    """Throughput and latency quantiles (Python's default exclusive method)
    of per-op times in seconds."""
    return {
        "ops_per_s": rate(times),
        "op_ms_p50": statistics.median(times) * 1000,
        "op_ms_p90": statistics.quantiles(times, n=10)[8] * 1000,
    }


def src_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "arquiver" / "__init__.py").is_file():
        fail(f"no arquiver sources under {root / 'src'}; run from the repository root")
    if not (root / "BENCHMARK.json").is_file():
        fail("BENCHMARK.json not found in the current directory")
    spec = json.loads((root / "BENCHMARK.json").read_text())
    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(names)}")

    wall0, cpu0 = time.perf_counter(), time.process_time()
    sys.path.insert(0, str(root / "src"))
    import layertrace
    import workloads

    env = workloads.child_env(root)
    module = "arquiver.cli" if args.workload == "cli_mix" else "arquiver"
    setup_s = median_fresh(root, f"import {module}", env)
    interpreter_ms = median_fresh(root, "pass", env) * 1000

    out_dir = root / workloads.OUT_DIR
    out_dir.mkdir(exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, root)
        reference = workloads.Reference(args.workload, args.seed)
        if args.trace:
            # The tracer wraps in-process calls; CLI children run under cli_boot.
            tracer = None if args.workload == "cli_mix" else layertrace.Tracer()
            plain = workloads.run_phase(workload, args.seconds / 2, 1, reference)
            traced = workloads.run_phase(workload, args.seconds / 2, 1, reference, traced=True, tracer=tracer)
            phases = [plain, traced]
        else:
            plain = workloads.run_phase(workload, args.seconds, MIN_OPS, reference)
            phases = [plain]
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    attempted = sum(len(p["cpu"]) for p in phases)
    failures = [f for p in phases for f in p["failures"]]
    values: dict[str, float] = {}
    if args.trace:
        if tracer is None:
            snaps = (workloads.trace_snapshot(out["stderr"]) for out in traced["cli"])
            snap = layertrace.merge([s for s in snaps if s is not None])
        else:
            snap = tracer.snapshot()
        values.update(layertrace.layer_metrics(snap, len(traced["cpu"])))
        values["trace_overhead"] = rate(traced["cpu"]) / rate(plain["cpu"])
        values.update(workloads.cli_layer_metrics(plain["cli"]))
        values["cli.interpreter_ms"] = interpreter_ms
        wanted = spec["per_layer"]
    else:
        values.update(timing(plain["cpu"]), setup_s=setup_s)
        if args.workload == "cli_mix":
            values["peak_rss_mb"] = max(out["rss_kb"] for out in plain["cli"]) / 1024
        else:
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        wanted = spec["end_to_end"]

    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    diagnostics = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "samples": len(plain["cpu"]),
        "error_rate": len(failures) / attempted,
        "run.wall_s": time.perf_counter() - wall0,
        "run.cpu_s": time.process_time() - cpu0 + children.ru_utime + children.ru_stime,
        "cli.interpreter_ms": interpreter_ms,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(root),
        "src_sha256": src_digest(root),
        "wall_time": timing(plain["wall"]) if len(plain["wall"]) > 1 else None,
        "failures": failures[:20],
    }
    print(json.dumps({"diagnostics": diagnostics}))
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
