"""What a fresh interpreter loads: ``import arquiver`` resolves its public
names lazily, each CLI subcommand loads only the library modules its
handler runs, no query or import loads ``dataclasses``, and a Gamma_Q
query never builds the positive-root set.  Each test runs in its own
interpreter, because the test session has long since imported every module
and filled its caches."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

# Prints the loaded arquiver submodules as the last line of stdout.
_LOADED = (
    "import json, sys\n"
    "print(json.dumps(sorted(m for m in sys.modules if m.startswith('arquiver.'))))\n"
)


def _last_line(code: str):
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.splitlines()[-1])


def test_import_loads_no_submodule():
    assert _last_line("import arquiver\n" + _LOADED) == []


def test_every_exported_name_is_the_attribute_of_its_submodule():
    code = (
        "import importlib, json, arquiver\n"
        "bad = []\n"
        "for name in arquiver.__all__:\n"
        "    ns = {}\n"
        "    exec(f'from arquiver import {name}', ns)\n"
        "    # Root is a type alias, whose __module__ is builtins.\n"
        "    home = 'arquiver.rootsys' if name == 'Root' else ns[name].__module__\n"
        "    if ns[name] is not getattr(importlib.import_module(home), name):\n"
        "        bad.append(name)\n"
        "print(json.dumps(bad))\n"
    )
    assert _last_line(code) == []


DOREY_ARGV = ["dorey", "--g", "A1", "--n", "3", "--a", "1:q^0", "--b", "1:q^2", "--c", "2:q^1"]


@pytest.mark.parametrize(
    "first",
    [
        "from arquiver import dorey",
        "import importlib; importlib.import_module('arquiver.dorey')",
        "from arquiver import verify",
        f"from arquiver.cli import main; main({DOREY_ARGV!r})",
    ],
    ids=["name", "import_module", "verify", "cli_handler"],
)
def test_dorey_stays_the_function_in_every_import_order(first):
    """The package binds the submodule ``arquiver.dorey`` under the name of
    its public function; the function must win whichever comes first."""
    code = (
        f"{first}\n"
        "import json, sys, arquiver\n"
        "from arquiver import dorey\n"
        "fn = sys.modules['arquiver.dorey'].dorey\n"
        "print(json.dumps([dorey is fn, arquiver.dorey is fn]))\n"
    )
    assert _last_line(code) == [True, True]


QUIVER = ["arquiver.quiver", "arquiver.rootsys"]
SPECTRAL = ["arquiver.rootsys", "arquiver.spectral"]
SEQUIVER = ["arquiver.rootsys", "arquiver.sequiver", "arquiver.spectral"]
ALL_BUT_VERIFY = [
    "arquiver.dorey", "arquiver.quiver", "arquiver.rootsys", "arquiver.sequiver",
    "arquiver.spectral",
]
A3 = ["--type", "A", "--rank", "3", "--orientation", "1>2,3>2"]


# One query per subcommand, with the library modules its handler loads.
QUERIES = [
    pytest.param(["ar-quiver", *A3], QUIVER, id="ar-quiver"),
    pytest.param(["convex-order", *A3], QUIVER, id="convex-order"),
    pytest.param(["minimal-pairs", *A3, "--root", "1,1,0"], QUIVER, id="minimal-pairs"),
    pytest.param(
        ["denominator", "--g", "A1", "--n", "3", "--k", "1", "--l", "1"],
        SPECTRAL,
        id="denominator",
    ),
    pytest.param(
        ["se-quiver", "--g", "D2", "--n", "4", "--se0", "--bound", "3"],
        SEQUIVER,
        id="se-quiver",
    ),
    pytest.param(["schur-weyl", *A3, "--t", "2"], QUIVER + SEQUIVER[1:], id="schur-weyl"),
    pytest.param(DOREY_ARGV, ["arquiver.dorey", *SEQUIVER], id="dorey"),
    pytest.param(
        ["embed-pair", "--g", "A1", "--n", "2", "--v", "1:q^0", "--w", "2:q^1"],
        ALL_BUT_VERIFY,
        id="embed-pair",
    ),
    pytest.param(["denominator", "--g", "A1"], [], id="argparse-error"),
]


@pytest.mark.parametrize("argv, modules", QUERIES)
def test_subcommand_loads_only_its_modules(argv, modules):
    """A later top-level import in cli.py or in a library module would show
    here as an extra module.  The last case is an argparse error."""
    code = (
        "from arquiver.cli import main\n"
        "try:\n"
        f"    main({argv!r})\n"
        "except SystemExit:\n"
        "    pass\n" + _LOADED
    )
    assert _last_line(code) == sorted(["arquiver.cli", *modules])


SUBMODULES = ["cli", "dorey", "quiver", "rootsys", "sequiver", "spectral", "verify"]


def test_no_query_or_import_loads_dataclasses_or_inspect():
    """The value classes are written out by hand, so neither a CLI query nor
    a library import loads ``dataclasses`` or the ``inspect`` it pulls in.
    One interpreter runs every query of QUERIES, each loading only its own
    modules, then imports every submodule, noting both after each step."""
    steps = [f"main({query.values[0]!r})" for query in QUERIES]
    steps += [f"import arquiver.{name}" for name in SUBMODULES]
    code = (
        "import contextlib, io, json, sys\n"
        "from arquiver.cli import main\n"
        "loaded = []\n"
        f"for step in {steps!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "        try:\n"
        "            exec(step)\n"
        "        except SystemExit:\n"
        "            pass\n"
        "    loaded.append([m for m in ('dataclasses', 'inspect') if m in sys.modules])\n"
        "print(json.dumps(loaded))\n"
    )
    assert dict(zip(steps, _last_line(code))) == dict.fromkeys(steps, [])


def _monotone(family: str, rank: int) -> str:
    """The chain 1>2>..., with both fork arrows out of the hub on D."""
    top = rank if family == "A" else rank - 2
    arrows = [f"{i}>{i + 1}" for i in range(1, top)]
    if family == "D":
        arrows += [f"{rank - 2}>{rank - 1}", f"{rank - 2}>{rank}"]
    return ",".join(arrows)


def test_gamma_q_queries_never_build_the_positive_roots():
    """Gamma_Q certifies its w0 word by length, so ar-quiver, convex-order,
    minimal-pairs and schur-weyl leave the positive_roots cache empty, up to
    rank 64."""
    argvs = []
    for family, ranks in (("A", (2, 8, 64)), ("D", (4, 8, 64))):
        for rank in ranks:
            given = ["--type", family, "--rank", str(rank), "--orientation", _monotone(family, rank)]
            root = ",".join(["1", "1"] + ["0"] * (rank - 2))
            argvs += [
                ["ar-quiver", *given],
                ["convex-order", *given],
                ["minimal-pairs", *given, "--root", root],
                ["schur-weyl", *given, "--t", "1"],
                ["schur-weyl", *given, "--t", "2"],
            ]
    code = (
        "import contextlib, io, json\n"
        "from arquiver import rootsys\n"
        "from arquiver.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main(argv) for argv in {argvs!r}]\n"
        "print(json.dumps([codes, rootsys.positive_roots.cache_info().misses]))\n"
    )
    assert _last_line(code) == [[0] * len(argvs), 0]
