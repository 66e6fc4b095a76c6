"""End-to-end tests of the command-line interface."""

from __future__ import annotations

import contextlib
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from arquiver.cli import main
from arquiver.quiver import all_orientations
from arquiver.rootsys import FiniteType, positive_roots
from arquiver.spectral import AffineType


def run_cli(*argv: str):
    return subprocess.run(
        [sys.executable, "-m", "arquiver.cli", *argv],
        capture_output=True,
        text=True,
    )


def test_denominator_frozen_output():
    res = run_cli("denominator", "--g", "A1", "--n", "3", "--k", "1", "--l", "1")
    assert res.returncode == 0
    assert res.stdout == (
        '{"g":"A1","N":3,"k":1,"l":1,"degree":1,"factors":["z-(-q)^2"],'
        '"roots":[{"root":"q^2","mult":1}]}\n'
    )


def test_denominator_twisted_output():
    res = run_cli("denominator", "--g", "D2", "--n", "4", "--k", "3", "--l", "3")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["degree"] == 3
    assert payload["factors"] == ["z+(-q^2)^1", "z+(-q^2)^2", "z+(-q^2)^3"]
    assert payload["roots"] == [
        {"root": "q^2", "mult": 1},
        {"root": "-q^4", "mult": 1},
        {"root": "q^6", "mult": 1},
    ]


def test_denominator_rejects_bad_index():
    res = run_cli("denominator", "--g", "A1", "--n", "3", "--k", "0", "--l", "1")
    assert res.returncode == 2
    assert res.stderr.startswith("error:")


def test_denominator_rejects_bad_family():
    res = run_cli("denominator", "--g", "E1", "--n", "6", "--k", "1", "--l", "1")
    assert res.returncode == 2


def test_ar_quiver_json():
    res = run_cli(
        "ar-quiver", "--type", "A", "--rank", "2", "--orientation", "1>2", "--base", "1=1"
    )
    assert res.returncode == 0
    assert res.stdout == (
        '{"vertices":[{"id":"1,-1","label":"a2"},{"id":"1,1","label":"a1"},'
        '{"id":"2,0","label":"a1+a2"}],'
        '"arrows":[{"src":"1,-1","dst":"2,0","mult":1},{"src":"2,0","dst":"1,1","mult":1}]}\n'
    )


def test_ar_quiver_dot():
    res = run_cli("ar-quiver", "--type", "A", "--rank", "2", "--orientation", "1>2",
                  "--format", "dot")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert lines[0] == "digraph G {"
    assert lines[-1] == "}"
    assert '  "1,-2" -> "2,-1";' in lines


def test_ar_quiver_rejects_partial_orientation():
    res = run_cli("ar-quiver", "--type", "A", "--rank", "3", "--orientation", "1>2")
    assert res.returncode == 2
    assert res.stderr.startswith("error:")


def test_convex_order():
    res = run_cli("convex-order", "--type", "A", "--rank", "2", "--orientation", "1>2")
    assert res.returncode == 0
    assert res.stdout == '{"word":[1,2,1],"order":["1,0","1,1","0,1"]}\n'


def test_minimal_pairs():
    res = run_cli(
        "minimal-pairs", "--type", "A", "--rank", "2", "--orientation", "1>2",
        "--root", "1,1"
    )
    assert res.returncode == 0
    assert res.stdout == '{"alpha":"1,1","pairs":[{"beta":"1,0","gamma":"0,1"}]}\n'


def test_se_quiver_window():
    res = run_cli("se-quiver", "--g", "A1", "--n", "2", "--seed", "1:q^0", "--bound", "2")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert [v["id"] for v in payload["vertices"]] == [
        "1:q^-2", "1:q^0", "1:q^2", "2:-q^-1", "2:-q^1",
    ]
    assert {"src": "1:q^-2", "dst": "2:-q^1", "mult": 1} in payload["arrows"]


def test_se_quiver_distinguished_component():
    res = run_cli("se-quiver", "--g", "A2", "--n", "3", "--se0", "--bound", "2")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["vertices"]


def test_se_quiver_rejects_a_negative_bound():
    res = run_cli("se-quiver", "--g", "A1", "--n", "3", "--se0", "--bound", "-1")
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error: power bound must be non-negative, got -1")


def test_schur_weyl():
    res = run_cli("schur-weyl", "--type", "A", "--rank", "2", "--orientation", "1>2",
                  "--t", "1")
    assert res.returncode == 0
    assert res.stdout == (
        '{"vertices":[{"id":"1","label":"1,0"},{"id":"2","label":"1,-2"}],'
        '"arrows":[{"src":"2","dst":"1","mult":1}]}\n'
    )


def test_dorey_untwisted():
    res = run_cli("dorey", "--g", "A1", "--n", "3",
                  "--a", "1:(-q)^-1", "--b", "1:(-q)^1", "--c", "2:q^0")
    assert res.returncode == 0
    assert res.stdout == '{"holds":true,"condition":"A-i","pole":"simple"}\n'


def test_dorey_twisted_witness():
    res = run_cli("dorey", "--g", "A2", "--n", "3",
                  "--a", "1:q^-1", "--b", "1:q^1", "--c", "2:q^0")
    assert res.returncode == 0
    assert res.stdout == '{"holds":true,"witness":["1:q^-1","1:q^1","2:-q^0"]}\n'


def test_dorey_negative():
    res = run_cli("dorey", "--g", "A1", "--n", "3",
                  "--a", "1:q^0", "--b", "1:q^0", "--c", "2:q^0")
    assert res.returncode == 0
    assert res.stdout == '{"holds":false}\n'


def test_embed_pair_found():
    res = run_cli("embed-pair", "--g", "A1", "--n", "2", "--v", "1:q^0", "--w", "1:(-q)^2")
    assert res.returncode == 0
    assert res.stdout == (
        '{"found":true,"orientation":"1>2","height":{"1":0,"2":-1},'
        '"shift":"q^2","positions":[[1,-2],[1,0]]}\n'
    )


def test_embed_pair_dual():
    res = run_cli("embed-pair", "--g", "A1", "--n", "2", "--v", "1:q^0", "--w", "2:(-q)^3")
    assert res.returncode == 0
    assert res.stdout == '{"found":false,"reason":"dual pair"}\n'


def test_import_leaves_verify_unloaded():
    code = "import sys, arquiver, arquiver.cli; print('arquiver.verify' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "False\n"


def test_the_console_script_target_answers_a_query():
    """pyproject's ``arquiver`` script, resolved and called as the generated
    wrapper calls it: no arguments, the query in sys.argv."""
    pyproject = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    script = r'^\[project\.scripts\]\narquiver = "([\w.]+):(\w+)"$'
    module, func = re.search(script, pyproject, re.M).groups()
    argv = ["arquiver", "denominator", "--g", "A1", "--n", "3", "--k", "1", "--l", "1"]
    code = f"import sys; from {module} import {func}; sys.argv = {argv!r}; sys.exit({func}())"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == run_cli(*argv[1:]).stdout != ""


def test_verify_single_check():
    res = run_cli("verify", "--check", "pole_class")
    assert res.returncode == 0
    assert res.stdout.startswith("PASS pole_class [")
    assert "# pole_class" in res.stderr


def test_verify_unknown_check():
    res = run_cli("verify", "--check", "nope")
    assert res.returncode == 2
    assert res.stderr.startswith("error: unknown check")


def test_output_to_file(tmp_path):
    target = tmp_path / "out.json"
    res = run_cli("denominator", "--g", "A1", "--n", "3", "--k", "1", "--l", "1",
                  "--out", str(target))
    assert res.returncode == 0
    assert res.stdout == ""
    assert target.read_text().endswith('"mult":1}]}\n')


def _assert_cannot_write(target, reason):
    res = run_cli("denominator", "--g", "A1", "--n", "3", "--k", "1", "--l", "1",
                  "--out", str(target))
    assert res.returncode == 2
    assert res.stdout == ""
    error, timing = res.stderr.splitlines()
    assert error == f"error: cannot write --out {target}: {reason}"
    assert timing.startswith("# denominator ") and timing.endswith("ms")


def test_output_to_a_missing_directory_exits_2(tmp_path):
    _assert_cannot_write(tmp_path / "missing" / "out.json", "No such file or directory")


def test_output_to_a_directory_exits_2(tmp_path):
    _assert_cannot_write(tmp_path, "Is a directory")


def test_output_to_an_empty_path_exits_2():
    _assert_cannot_write("", "Is a directory")


HELP_OPTIONS = {
    "ar-quiver": ("--type", "--rank", "--orientation", "--base", "--format", "--out"),
    "convex-order": ("--type", "--rank", "--orientation", "--out"),
    "minimal-pairs": ("--type", "--rank", "--orientation", "--root", "--out"),
    "denominator": ("--g", "--n", "--k", "--l", "--out"),
    "se-quiver": ("--g", "--n", "--seed", "--se0", "--bound", "--format", "--out"),
    "schur-weyl": ("--type", "--rank", "--orientation", "--base", "--t", "--format", "--out"),
    "dorey": ("--g", "--n", "--a", "--b", "--c", "--out"),
    "embed-pair": ("--g", "--n", "--v", "--w", "--out"),
    "verify": ("--check",),
}


def test_help_lists_each_subcommands_options_in_order():
    """--out comes last wherever a query has it; verify has none."""
    for command, options in HELP_OPTIONS.items():
        res = run_cli(command, "--help")
        assert res.returncode == 0
        listed = re.findall(r"^  (-[-\w]+)", res.stdout, re.MULTILINE)
        assert tuple(listed) == ("-h", *options), command


def test_output_is_deterministic():
    argv = ("se-quiver", "--g", "D2", "--n", "4", "--se0", "--bound", "3")
    assert run_cli(*argv).stdout == run_cli(*argv).stdout


def test_command_timing_goes_to_stderr():
    res = run_cli("denominator", "--g", "A1", "--n", "2", "--k", "1", "--l", "1")
    assert res.stderr.startswith("# denominator ")
    assert res.stderr.strip().endswith("ms")


CAPPED = (
    ("--rank", 64, ("convex-order", "--type", "A", "--orientation", "1>2")),
    ("--n", 4096, ("denominator", "--g", "D2", "--k", "1", "--l", "1")),
    ("--n", 16, ("se-quiver", "--g", "A1", "--se0")),
    ("--n", 4096, ("dorey", "--g", "A1", "--a", "1:q^0", "--b", "1:q^2", "--c", "2:q^1")),
    ("--n", 64, ("embed-pair", "--g", "D1", "--v", "1:q^0", "--w", "1:(-q)^2")),
    ("--bound", 32, ("se-quiver", "--g", "A1", "--n", "2", "--se0")),
)


def test_size_caps_exit_2_above_the_limit():
    for option, cap, argv in CAPPED:
        res = run_cli(*argv, option, str(cap + 1))
        assert res.returncode == 2, option
        assert res.stdout == ""
        assert res.stderr.startswith(f"error: {option} must be at most {cap}, got {cap + 1}\n")


def test_size_caps_admit_the_limit():
    chain = ",".join(f"{i}>{i + 1}" for i in range(1, 64))
    res = run_cli("convex-order", "--type", "A", "--rank", "64", "--orientation", chain)
    assert res.returncode == 0
    assert len(json.loads(res.stdout)["order"]) == 64 * 65 // 2
    res = run_cli("denominator", "--g", "D2", "--n", "4096", "--k", "1", "--l", "1")
    assert res.returncode == 0 and json.loads(res.stdout)["N"] == 4096
    res = run_cli("se-quiver", "--g", "A1", "--n", "16", "--seed", "1:q^0", "--bound", "4")
    assert res.returncode == 0 and '"1:q^0"' in res.stdout
    res = run_cli("dorey", "--g", "A1", "--n", "4096", "--a", "1:(-q)^-1", "--b", "1:(-q)^1",
                  "--c", "2:q^0")
    assert res.returncode == 0 and json.loads(res.stdout)["holds"]
    res = run_cli("embed-pair", "--g", "D1", "--n", "64", "--v", "1:q^0", "--w", "1:(-q)^2")
    assert res.returncode == 0 and json.loads(res.stdout)["found"]
    res = run_cli("se-quiver", "--g", "A1", "--n", "2", "--se0", "--bound", "32")
    assert res.returncode == 0 and '"1:q^32"' in res.stdout


def test_size_caps_are_listed_in_help():
    for option, cap, argv in CAPPED:
        res = run_cli(argv[0], "--help")
        assert res.returncode == 0
        line = next(ln for ln in res.stdout.splitlines() if ln.strip().startswith(option))
        assert f"at most {cap})" in line


def main_stdout(*argv: str) -> tuple[int, str]:
    """Exit status and stdout of an in-process ``main`` call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


CLASSICAL = st.sampled_from(
    [FiniteType("A", n) for n in range(2, 7)] + [FiniteType("D", n) for n in range(4, 7)]
)


@settings(max_examples=60, deadline=None)
@given(st.data(), CLASSICAL)
def test_orientations_spelled_differently_print_the_same_bytes(data, t):
    """The arrows of --orientation in another order, with spaces around them."""
    arrows = data.draw(st.sampled_from(all_orientations(t))).arrows
    shuffled = data.draw(st.permutations(arrows))
    pad = st.sampled_from(["", " "])
    spelled = ",".join(f"{data.draw(pad)}{a}>{b}{data.draw(pad)}" for a, b in shuffled)
    root = ",".join(map(str, data.draw(st.sampled_from(sorted(positive_roots(t))))))
    command = data.draw(
        st.sampled_from(
            [
                ("ar-quiver",),
                ("ar-quiver", "--format", "dot"),
                ("convex-order",),
                ("minimal-pairs", "--root", root),
                ("schur-weyl", "--t", "1"),
                ("schur-weyl", "--t", "2", "--format", "dot"),
            ]
        )
    )
    head = (command[0], "--type", t.family, "--rank", str(t.rank))
    listed = ",".join(f"{a}>{b}" for a, b in arrows)
    plain = main_stdout(*head, "--orientation", listed, *command[1:])
    assert plain[0] == 0 and plain[1]
    assert main_stdout(*head, "--orientation", spelled, *command[1:]) == plain


AFFINE = st.sampled_from(
    [
        AffineType(family, twist, n)
        for family, low in (("A", 2), ("D", 4))
        for twist in (1, 2)
        for n in range(low, low + 4)
    ]
)


def minus_q_spellings(k: int) -> list[str]:
    """(-q)^k and its i^zeta q^m forms: q^k or +q^k for even k, -q^k for odd k."""
    return [f"(-q)^{k}"] + ([f"q^{k}", f"+q^{k}"] if k % 2 == 0 else [f"-q^{k}"])


@settings(max_examples=60, deadline=None)
@given(st.data(), AFFINE)
def test_vertices_spelled_differently_print_the_same_bytes(data, g):
    """Each 'i:param' of dorey, se-quiver and (untwisted) embed-pair as (-q)^k
    or +-q^k."""
    points = [
        (data.draw(st.sampled_from(g.index_set)), data.draw(st.integers(-6, 6))) for _ in range(3)
    ]

    def spell(i: int, k: int) -> str:
        return f"{i}:{data.draw(st.sampled_from(minus_q_spellings(k)))}"

    def argv(spelled: list[str]) -> tuple[str, ...]:
        a, b, c = spelled
        head = ("--g", g.code, "--n", str(g.N))
        return {
            "dorey": ("dorey", *head, "--a", a, "--b", b, "--c", c),
            "embed-pair": ("embed-pair", *head, "--v", a, "--w", b),
            "se-quiver": ("se-quiver", *head, "--seed", a, "--seed", c, "--bound", "3"),
        }[command]

    untwisted = ["embed-pair"] if g.twist == 1 else []
    command = data.draw(st.sampled_from(["dorey", "se-quiver", *untwisted]))
    plain = main_stdout(*argv([f"{i}:(-q)^{k}" for i, k in points]))
    assert plain[0] == 0 and plain[1]
    assert main_stdout(*argv([spell(i, k) for i, k in points])) == plain


def main_result(*argv: str) -> tuple[int, str, str]:
    """Exit status, stdout and stderr of an in-process ``main`` call,
    argparse's own exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


A3_CHAIN = ("--type", "A", "--rank", "3", "--orientation", "1>2,2>3")
# Each option and grammar that reads an integer, with "{}" where it goes and an
# ASCII integer that makes the query answer.
INTEGER_SLOTS = {
    "rank": (("convex-order", "--type", "A", "--rank", "{}", "--orientation", "1>2,2>3"), "3"),
    "n": (("denominator", "--g", "A1", "--n", "{}", "--k", "1", "--l", "2"), "4"),
    "k": (("denominator", "--g", "A1", "--n", "4", "--k", "{}", "--l", "2"), "1"),
    "l": (("denominator", "--g", "A1", "--n", "4", "--k", "1", "--l", "{}"), "2"),
    "bound": (("se-quiver", "--g", "A1", "--n", "2", "--se0", "--bound", "{}"), "2"),
    "t": (("schur-weyl", *A3_CHAIN, "--t", "{}"), "1"),
    "orientation": (("convex-order", "--type", "A", "--rank", "3", "--orientation", "{}>2,3>2"), "1"),
    "base-vertex": (("ar-quiver", *A3_CHAIN, "--base", "{}=0"), "2"),
    "base-value": (("ar-quiver", *A3_CHAIN, "--base", "1={}"), "-1"),
    "vertex-index": (("dorey", "--g", "A1", "--n", "3", "--a", "{}:q^0", "--b", "1:q^2",
                      "--c", "2:q^1"), "1"),
    "q-power": (("dorey", "--g", "A1", "--n", "3", "--a", "1:-q^{}", "--b", "1:q^2",
                 "--c", "2:q^1"), "-1"),
    "minus-q-power": (("embed-pair", "--g", "A1", "--n", "3", "--v", "1:(-q)^{}",
                       "--w", "2:(-q)^1"), "0"),
    "root": (("minimal-pairs", "--type", "A", "--rank", "3", "--orientation", "1>2,3>2",
              "--root", "1,{},0"), "1"),
}


def _non_ascii_spellings(text: str) -> list[str]:
    """The same integer in Arabic-Indic and in fullwidth digits, with a '+',
    and with an underscore: int() reads each, the CLI reads none."""
    arabic = "".join(chr(0x660 + int(c)) if c.isdigit() else c for c in text)
    fullwidth = "".join(chr(0xFF10 + int(c)) if c.isdigit() else c for c in text)
    plus = "+" + text if not text.startswith("-") else text.replace("-", "-+", 1)
    return [arabic, fullwidth, plus, text.replace(text.lstrip("-"), "0_" + text.lstrip("-"))]


@pytest.mark.parametrize("slot", INTEGER_SLOTS)
def test_every_integer_is_read_by_one_ascii_rule(slot):
    """ASCII digits answer; any other spelling int() accepts exits 2 with an
    error line and prints nothing."""
    argv, value = INTEGER_SLOTS[slot]
    code, out, _ = main_result(*(a.replace("{}", value) for a in argv))
    assert code == 0 and out, slot
    for spelled in _non_ascii_spellings(value):
        code, out, err = main_result(*(a.replace("{}", spelled) for a in argv))
        assert (code, out) == (2, ""), (slot, spelled)
        assert "error: " in err and spelled in err, (slot, spelled)


def test_an_ascii_non_number_keeps_its_message():
    code, _, err = main_result("denominator", "--g", "A1", "--n", "abc", "--k", "1", "--l", "2")
    assert code == 2 and err.endswith("error: argument --n: invalid int value: 'abc'\n")
    code, _, err = main_result("minimal-pairs", *A3_CHAIN, "--root", "1,x,0")
    assert code == 2
    assert err.startswith("error: invalid literal for int() with base 10: 'x'\n")



def test_an_empty_base_exits_2():
    for command in ("ar-quiver", "schur-weyl"):
        extra = ("--t", "1") if command == "schur-weyl" else ()
        code, out, err = main_result(command, *A3_CHAIN, *extra, "--base", "")
        assert (code, out) == (2, "")
        assert err.startswith("error: bad base ''; expected 'vertex=value'\n")

# The CLI grammar as a property: every query, with valid and malformed tokens
# mixed, answers with JSON or DOT and exit 0, or exits 2 with an error line.
BAD_INTS = ["x", "", "1.5", "٣", "+2", "1_0"]
PARAMS = ["q^{}", "-q^{}", "iq^{}", "-iq^{}", "+q^{}", "(-q)^{}"]
BAD_PARAMS = ["q^", "q^x", "(-q)^", "q", "", "iq^1.5", "q^٣", "z^1"]


def _token(data, valid, bad: list[str]) -> str:
    """A valid token three times in four, else a malformed one."""
    if not bad or data.draw(st.integers(0, 3)) < 3:
        return data.draw(valid)
    return data.draw(st.sampled_from(bad))


def _classical_args(data, command: str) -> list[str]:
    family = _token(data, st.sampled_from("AD"), ["E", "a"])
    rank = _token(data, st.integers(4, 6).map(str), [*BAD_INTS, "65", "-1", "1", "2", "3"])
    args = ["--type", family, "--rank", rank]
    t = None
    if family in "AD" and rank.isdigit() and (2 if family == "A" else 4) <= int(rank) <= 6:
        t = FiniteType(family, int(rank))
    chain = ",".join(f"{i}>{i + 1}" for i in range(1, int(rank) if rank.isdigit() else 3))
    good = st.sampled_from(all_orientations(t)).map(
        lambda q: ",".join(f"{a}>{b}" for a, b in q.arrows)
    ) if t else st.just(chain)
    args += ["--orientation", _token(data, good, ["1>2,2>1", "1-2", "", "1>9", "1>2", chain])]
    if command == "minimal-pairs":
        roots = sorted(positive_roots(t)) if t else [(1, 0, 0)]
        good = st.sampled_from(roots).map(lambda r: ",".join(map(str, r)))
        args += ["--root", _token(data, good, ["9,9", "1,x", "", "1,1,1,1,1,1,1", "2,2,2"])]
    if command in ("ar-quiver", "schur-weyl") and data.draw(st.booleans()):
        base = st.tuples(st.integers(1, 6), st.integers(-3, 3)).map(lambda p: f"{p[0]}={p[1]}")
        args += ["--base", _token(data, base, ["", "1=", "=1", "9=0", "1=a", "1:0", "١=0"])]
    if command == "schur-weyl":
        args += ["--t", _token(data, st.sampled_from("12"), ["3", "x", "0"])]
    return args


def _point(data, top: int) -> str:
    i = _token(data, st.integers(1, top).map(str), ["0", str(top + 1), "x", ""])
    k = data.draw(st.integers(-4, 4))
    param = _token(data, st.sampled_from(PARAMS).map(lambda p: p.format(k)), BAD_PARAMS)
    return _token(data, st.just(f"{i}:{param}"), [i, f":{param}", f"{i}:"])


def _affine_args(data, command: str) -> list[str]:
    code = _token(data, st.sampled_from(["A1", "A2", "D1", "D2"]), ["E1", "A3", "A"])
    cap = {"denominator": 4096, "se-quiver": 16, "dorey": 4096, "embed-pair": 64}[command]
    # The caps themselves only where the query is cheap.
    big = [str(cap)] if command in ("denominator", "dorey") else []
    n = _token(data, st.integers(4, 6).map(str), [*BAD_INTS, str(cap + 1), "0", "-3", "2", *big])
    args = ["--g", code, "--n", n]
    top = int(n) if n.isdigit() and 2 <= int(n) <= 6 else 4
    if command == "denominator":
        for option in ("--k", "--l"):
            args += [option, _token(data, st.integers(1, top).map(str), [*BAD_INTS, "0", "9"])]
    elif command == "se-quiver":
        if data.draw(st.booleans()):
            args.append("--se0")
        for _ in range(data.draw(st.integers(0, 2))):
            args += ["--seed", _point(data, top)]
        if data.draw(st.booleans()):
            args += ["--bound", _token(data, st.integers(0, 4).map(str), [*BAD_INTS, "33", "-1"])]
    else:
        options = ("--a", "--b", "--c") if command == "dorey" else ("--v", "--w")
        for option in options:
            args += [option, _point(data, top)]
    return args


QUERIES = ("ar-quiver", "convex-order", "minimal-pairs", "denominator", "se-quiver",
           "schur-weyl", "dorey", "embed-pair")


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_every_query_answers_or_exits_2_with_an_error_line(data):
    command = data.draw(st.sampled_from(QUERIES))
    classical = command in ("ar-quiver", "convex-order", "minimal-pairs", "schur-weyl")
    argv = [command, *(_classical_args if classical else _affine_args)(data, command)]
    if "--format" in HELP_OPTIONS[command] and data.draw(st.booleans()):
        argv += ["--format", _token(data, st.sampled_from(["json", "dot"]), ["xml", ""])]
    code, out, err = main_result(*argv)
    assert code in (0, 2), (argv, code, err)
    if code == 2:
        assert out == "" and "error: " in err, (argv, err)
    elif not out.startswith("digraph G {"):
        json.loads(out)
