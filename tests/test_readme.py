"""README.md's examples, run as written: each ``$ arquiver ...`` line against
the output line under it, and each ``>>>`` session of the Library section."""

from __future__ import annotations

import doctest
import re
import shlex
from pathlib import Path

import pytest

from arquiver.cli import main
from test_acceptance import VERIFY_CASES

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
_LINES = README.splitlines()
COMMANDS = [
    (line[len("$ arquiver "):], _LINES[n + 1])
    for n, line in enumerate(_LINES)
    if line.startswith("$ arquiver ")
]
SESSIONS = re.findall(r"```python\n(.*?)```", README, re.DOTALL)
CHECK_CASES = re.findall(r"^- `(\w+)`: (\d+) cases", README, re.MULTILINE)


def test_readme_has_examples():
    assert len(COMMANDS) >= 9 and len(SESSIONS) >= 2


@pytest.mark.parametrize("command, expected", COMMANDS, ids=[c for c, _ in COMMANDS])
def test_readme_command_prints_the_line_under_it(command, expected, capsys):
    """An elided line matches with each "..." standing for any text."""
    assert main(shlex.split(command)) == 0
    out = capsys.readouterr().out
    pattern = ".*".join(map(re.escape, expected.split("...")))
    assert out.endswith("\n") and re.fullmatch(pattern, out[:-1])


@pytest.mark.parametrize("n", range(len(SESSIONS)))
def test_readme_python_session_runs_as_shown(n):
    test = doctest.DocTestParser().get_doctest(SESSIONS[n], {}, f"README.md session {n}", None, 0)
    runner = doctest.DocTestRunner()
    runner.run(test)
    failed, attempted = runner.summarize(verbose=False)
    assert attempted > 0 and failed == 0


def test_readme_lists_every_check_with_its_pinned_case_count():
    assert [(name, int(cases)) for name, cases in CHECK_CASES] == list(VERIFY_CASES.items())
