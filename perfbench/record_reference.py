"""Record per-op output digests for the default seeds.

Run from the repository root:  python3 perfbench/record_reference.py [workload ...]

For each workload and each seed in DEFAULT_SEEDS this executes the first
blocks of the op stream, checks every op, and writes the digests of the
checked outputs to ``perfbench/reference/<workload>.json``.  ``run.py``
compares later runs of these seeds against them.  Re-record only when a change
is meant to alter outputs.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

DEFAULT_SEEDS = range(10)
# Blocks per seed: about one measured run of each workload.
BLOCKS = {"ar_sweep": 4, "dorey_triples": 20, "cli_mix": 5}


def record(workloads, name: str, root: Path) -> dict:
    seeds = {}
    for seed in DEFAULT_SEEDS:
        wl = workloads.WORKLOADS[name](seed, root)
        digests = []
        for _ in range(BLOCKS[name]):
            for op in wl.next_block():
                canon = wl.check(op, wl.execute(op))
                digests.append(workloads.digest(canon))
        seeds[str(seed)] = digests
        print(f"{name} seed {seed}: {len(digests)} ops", file=sys.stderr)
    return {"blocks": BLOCKS[name], "seeds": seeds}


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import workloads

    names = sys.argv[1:] or list(BLOCKS)
    out_dir = root / workloads.OUT_DIR
    out_dir.mkdir(exist_ok=True)
    try:
        for name in names:
            data = record(workloads, name, root)
            path = workloads.HERE / "reference" / f"{name}.json"
            path.write_text(json.dumps(data, separators=(",", ":")) + "\n")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
