"""The library's caches, listed module by module: a new cache, or a cache
removed, has to change this list on purpose.  Each one is there because a
profile said it pays."""

from __future__ import annotations

import importlib
import json
import re
from pathlib import Path

import pytest

from arquiver.spectral import AffineType, _raw_tables

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "arquiver"

# The lru_cache functions of each module.
CACHES = {
    "rootsys": ["_adjacency", "_all_distances", "cartan_matrix", "positive_roots", "w0_involution"],
    "quiver": ["_root_codes", "_tau_data"],
    "spectral": ["_denominator_data", "_raw_tables"],
    "sequiver": ["pi_preimages"],
    "dorey": [],
    "verify": [],
    "cli": [],
}
# Caches built at run time: _raw_tables makes one per affine type.
INNER = {"spectral": 1}
# The one-entry memos: the module globals a function rebinds.
MEMOS = {"rootsys": ["_last_sequence"], "quiver": ["_last_order"]}


def test_every_module_is_listed():
    assert sorted(p.stem for p in SRC.glob("*.py")) == sorted([*CACHES, "__init__"])
    assert not re.search(r"lru_cache|@cache\b|cached_property|global ", (SRC / "__init__.py").read_text())


@pytest.mark.parametrize("name", CACHES)
def test_every_cache_and_memo_is_listed(name):
    module = importlib.import_module(f"arquiver.{name}")
    found = sorted(
        attr for attr, value in vars(module).items()
        if callable(getattr(value, "cache_info", None)) and value.__module__ == module.__name__
    )
    assert found == CACHES[name]
    source = (SRC / f"{name}.py").read_text()
    sites = re.findall(r"lru_cache\(|@cache\b|cached_property", source)
    assert len(sites) == len(CACHES[name]) + INNER.get(name, 0)
    assert sorted(re.findall(r"^\s+global (\w+)$", source, re.MULTILINE)) == MEMOS.get(name, [])
    for memo in MEMOS.get(name, []):
        assert type(getattr(module, memo)) is tuple


def test_raw_tables_keeps_one_cache_per_type():
    tables = _raw_tables(AffineType("D", 2, 5))
    assert tables is _raw_tables(AffineType("D", 2, 5))
    assert callable(tables.cache_info)


def test_every_cache_a_benchmark_metric_names_exists():
    """Except dorey._ar_cached, which reads _tau_data's cache and has none of
    its own, so its cache metrics read 0."""
    metrics = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    named = {m.rsplit(".", 1)[0] for m in metrics if m.endswith((".cache_hit_ratio", ".cache_size"))}
    assert "dorey._ar_cached" in named
    for key in named - {"dorey._ar_cached"}:
        layer, name = key.split(".")
        assert name in CACHES[layer], key
