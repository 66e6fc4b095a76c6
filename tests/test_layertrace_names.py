"""The benchmark's layer tracer wraps library functions by name; a deletion in
the library must not leave it a name that no longer resolves."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import arquiver

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def _load_layertrace():
    """The tracer module, loaded from its file without touching sys.path or
    sys.modules."""
    spec = importlib.util.spec_from_file_location("_layertrace_under_test", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves_on_its_layer():
    layertrace = _load_layertrace()
    missing = [
        f"{layer}.{name}"
        for layer, names in layertrace.WRAPPED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"arquiver.{layer}"), name, None))
    ]
    assert missing == []


def test_every_exported_name_resolves():
    assert [name for name in arquiver.__all__ if not hasattr(arquiver, name)] == []
