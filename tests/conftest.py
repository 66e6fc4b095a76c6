"""Child interpreters that tests start (``python -m arquiver.cli ...``) find
the package under ``src/`` too, as the test process does through
``pythonpath`` in ``pyproject.toml``, so a fresh checkout needs no install."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
