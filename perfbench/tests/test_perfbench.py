"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402


def signature(ops) -> list[str]:
    return [repr((op.kind, op.spec)) for op in ops]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    cls = workloads.WORKLOADS[name]
    first = [cls(7, ROOT) for _ in range(2)]
    blocks = [[signature(w.next_block()) for _ in range(2)] for w in first]
    assert blocks[0] == blocks[1]
    other = cls(8, ROOT)
    assert [signature(other.next_block()) for _ in range(2)] != blocks[0]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_emits_every_metric(name, trace, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(run, "MIN_OPS", 1)
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    assert run.main(["--workload", name, "--seed", "3", "--seconds", "0.01", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    diagnostics = json.loads(lines[-2])["diagnostics"]
    assert diagnostics["error_rate"] == 0 and diagnostics["nproc"] >= 1


class WrongMultiplicity(workloads.DoreyTriples):
    """Returns an arrow multiplicity one too high."""

    def execute(self, op, traced=False):
        folded, v1, v2, pole, m1, m2 = super().execute(op, traced)
        return folded, v1, v2, pole, m1 + 1, m2


class Raising(workloads.DoreyTriples):
    def execute(self, op, traced=False):
        raise AssertionError("invariant failure inside the program")


@pytest.mark.parametrize("cls", [WrongMultiplicity, Raising])
def test_wrong_output_counts_as_failed_op(cls):
    phase = workloads.run_phase(cls(1, ROOT), 0, 1)
    assert len(phase["cpu"]) == len(workloads.DOREY_TYPES) * 4
    assert len(phase["failures"]) == len(phase["cpu"])


def test_reference_mismatch_counts_as_failed_op():
    reference = workloads.Reference("dorey_triples", 1)
    reference.digests = ["0" * 12] * 3
    phase = workloads.run_phase(workloads.DoreyTriples(1, ROOT), 0, 1, reference)
    assert len(phase["failures"]) == 3
    assert all("reference" in f for f in phase["failures"])


def _flag(argv: list[str], name: str) -> int:
    return int(argv[argv.index(name) + 1])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cli_size_caps(seed):
    wl = workloads.CliMix(seed, ROOT)
    kinds = set()
    for _ in range(4):
        for op in wl.next_block():
            argv = op.spec["argv"]
            kinds.add(op.kind)
            if op.kind == "embed-pair":
                assert _flag(argv, "--n") <= workloads.EMBED_MAX_N[argv[argv.index("--g") + 1][0]] <= 12
            elif op.kind == "se-quiver":
                assert _flag(argv, "--n") <= workloads.SE_QUIVER_MAX_N == 8
            elif op.kind == "denominator":
                assert _flag(argv, "--n") <= workloads.DENOMINATOR_MAX_N == 12
            elif op.kind == "dorey":
                assert _flag(argv, "--n") <= workloads.DOREY_MAX_N
            elif op.kind != "malformed":
                assert _flag(argv, "--rank") <= workloads.CLASSICAL_MAX_RANK == 16
    assert kinds == set(workloads.CLI_SUBCOMMANDS) | {"malformed"}
    assert workloads.EMBED_MAX_N == {"A": 12, "D": 10}
