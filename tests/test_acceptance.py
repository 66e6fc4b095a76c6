"""Acceptance gate: one pass/fail line per criterion.

Criteria 1-9 run the package's exhaustive self-verification checks under a
wall-clock budget; criterion 10 compares command-line output byte for byte.
Run with ``pytest tests/test_acceptance.py -s`` to see every line.
"""

from __future__ import annotations

import subprocess
import sys
import time

from arquiver.verify import run_check

FROZEN_CLI = (
    (
        ("denominator", "--g", "A1", "--n", "3", "--k", "1", "--l", "1"),
        '{"g":"A1","N":3,"k":1,"l":1,"degree":1,"factors":["z-(-q)^2"],'
        '"roots":[{"root":"q^2","mult":1}]}\n',
    ),
    (
        ("denominator", "--g", "A2", "--n", "4", "--k", "1", "--l", "1"),
        '{"g":"A2","N":4,"k":1,"l":1,"degree":2,"factors":["z-(-q)^2","z+q^5(-q)^0"],'
        '"roots":[{"root":"q^2","mult":1},{"root":"-q^5","mult":1}]}\n',
    ),
    (
        ("denominator", "--g", "D2", "--n", "4", "--k", "3", "--l", "3"),
        '{"g":"D2","N":4,"k":3,"l":3,"degree":3,'
        '"factors":["z+(-q^2)^1","z+(-q^2)^2","z+(-q^2)^3"],'
        '"roots":[{"root":"q^2","mult":1},{"root":"-q^4","mult":1},'
        '{"root":"q^6","mult":1}]}\n',
    ),
    (
        ("denominator", "--g", "D1", "--n", "4", "--k", "3", "--l", "4"),
        '{"g":"D1","N":4,"k":3,"l":4,"degree":1,"factors":["z-(-q)^4"],'
        '"roots":[{"root":"q^4","mult":1}]}\n',
    ),
    (
        ("denominator", "--g", "D1", "--n", "4", "--k", "2", "--l", "2"),
        '{"g":"D1","N":4,"k":2,"l":2,"degree":4,'
        '"factors":["z-(-q)^2","z-(-q)^4","z-(-q)^4","z-(-q)^6"],'
        '"roots":[{"root":"q^2","mult":1},{"root":"q^4","mult":2},'
        '{"root":"q^6","mult":1}]}\n',
    ),
)


# Cases each check examines.  A universe that shrinks (or a generator that
# stops early) changes its count, so the change shows here.
VERIFY_CASES = {
    "se_j_equals_qrev": 8140,
    "denominator_structure": 4619,
    "pi_two_to_one": 19254,
    "pi_iso_on_se0": 289444,
    "pi_duality": 25672,
    "m_values": 2056,
    "order_eq_paths": 246,
    "adapted_refines": 246,
    "dorey_bruteforce_agree": 845,
    "twisted_lift_consistency": 124507,
    "minimal_pairs_dorey": 3400,
    "pole_class": 164,
    "lemma_embedding": 9763,
}


def _report(num: int, label: str, elapsed_ms: int, passed: bool, detail: str = "") -> None:
    line = f"{'PASS' if passed else 'FAIL'} criterion {num:02d} [{label}] {elapsed_ms}ms"
    if detail:
        line += f" :: {detail}"
    print(line, flush=True)
    assert passed, line


def _verify_criterion(num: int, label: str, checks: tuple[str, ...], budget_ms: int) -> None:
    reports = [run_check(name) for name in checks]
    elapsed = sum(r.elapsed_ms for r in reports)
    failures = "; ".join(
        [f"{r.check_name}: {r.counterexample}" for r in reports if not r.passed]
        + [
            f"{r.check_name}: {r.cases} cases, pinned {VERIFY_CASES[r.check_name]}"
            for r in reports
            if r.cases != VERIFY_CASES[r.check_name]
        ]
    )
    if elapsed >= budget_ms:
        failures = (failures + f" exceeded {budget_ms}ms budget").strip()
    _report(num, label, elapsed, not failures, failures)


def test_criterion_01_folded_quiver_matches_reversed_orientation():
    _verify_criterion(
        1, "folded quiver equals the reversed orientation", ("se_j_equals_qrev",), 60_000
    )


def test_criterion_02_fold_is_two_to_one_and_respects_duals():
    _verify_criterion(
        2,
        "fold is 2:1, bijective on the distinguished component, dual-compatible",
        ("pi_two_to_one", "pi_iso_on_se0", "pi_duality"),
        60_000,
    )


def test_criterion_03_row_lengths_match_closed_form():
    _verify_criterion(3, "AR-quiver row lengths match the closed form", ("m_values",), 10_000)


def test_criterion_04_orders_agree_and_word_refines():
    _verify_criterion(
        4,
        "quiver order equals path order; adapted word refines it",
        ("order_eq_paths", "adapted_refines"),
        60_000,
    )


def test_criterion_05_conditions_match_brute_force():
    _verify_criterion(
        5,
        "surjection conditions agree with denominator brute force",
        ("dorey_bruteforce_agree",),
        120_000,
    )


def test_criterion_06_twisted_verdicts_lift():
    _verify_criterion(
        6,
        "twisted verdicts consistent with untwisted lifts",
        ("twisted_lift_consistency",),
        120_000,
    )


def test_criterion_07_minimal_pairs_give_surjections():
    _verify_criterion(
        7, "minimal pairs produce holding triples", ("minimal_pairs_dorey",), 60_000
    )


def test_criterion_08_double_poles_only_at_second_condition():
    _verify_criterion(
        8, "double poles occur exactly at the folded-sum condition", ("pole_class",), 30_000
    )


def test_criterion_09_adjacent_pairs_embed():
    _verify_criterion(
        9, "adjacent non-dual pairs embed in an AR quiver", ("lemma_embedding",), 120_000
    )


def test_criterion_10_denominator_cli_bytes():
    start = time.monotonic()
    mismatches = []
    for argv, expected in FROZEN_CLI:
        res = subprocess.run(
            [sys.executable, "-m", "arquiver.cli", *argv], capture_output=True, text=True
        )
        if res.returncode != 0 or res.stdout != expected:
            mismatches.append(" ".join(argv))
    elapsed = int((time.monotonic() - start) * 1000)
    _report(
        10,
        "denominator CLI output is byte-exact on five frozen cases",
        elapsed,
        not mismatches,
        "; ".join(mismatches),
    )
