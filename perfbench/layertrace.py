"""Per-layer tracing of arquiver from outside the package.

A ``Tracer`` replaces selected public functions of each layer module with a
timing wrapper wherever the function object is bound in a loaded module: its
defining module, every module that imported it (including the benchmark's
own), and the ``arquiver`` namespace.  Calls and inclusive time are aggregated
in memory per function; calls, self time (time in the layer's wrapped functions
minus the time in wrapped callees) and total time (from the outermost entry)
per layer.  Hot leaves such as ``reflect``, ``pairing`` and ``cartan_matrix`` are left
unwrapped; their time counts as self time of the wrapped caller.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

LAYERS = ("rootsys", "quiver", "spectral", "sequiver", "dorey", "cli")

WRAPPED = {
    "rootsys": (
        "positive_roots", "apply_word", "root_sequence", "represents_w0",
        "w0_involution", "is_convex",
    ),
    "quiver": (
        "all_orientations", "is_adapted", "adapted_word", "height_function",
        "coxeter_word", "gamma_root", "phi", "ar_quiver", "convex_order_Q",
        "gamma_path_order", "minimal_pairs",
    ),
    "spectral": (
        "denominator_roots_raw", "denominator", "zero_order", "dual_index",
        "p_star", "dual_point", "right_dual_point",
    ),
    "sequiver": (
        "class_arrow_mult", "se0_contains", "pi", "pi_preimages", "lattice_test",
        "se_window", "se0_window", "schur_weyl_quiver",
    ),
    # _ar_cached is private but is called once per orientation an embedding
    # search tries, which gives dorey.orientations_per_embed.
    "dorey": (
        "dorey_untwisted", "dorey_twisted", "dorey", "multiple_pole_class",
        "minimal_pair_triple", "embed_pair_in_AR", "_ar_cached",
    ),
    "cli": ("main",),
}

# Ratio metrics: calls from a caller into a callee, per call of the caller.
RATIOS = {
    "dorey.lifts_per_twisted": ("dorey.dorey_twisted", "dorey.dorey_untwisted"),
    "dorey.orientations_per_embed": ("dorey.embed_pair_in_AR", "dorey._ar_cached"),
}


def layer_module(layer: str):
    return importlib.import_module(f"arquiver.{layer}")


def cache_functions() -> dict[str, object]:
    """Every functools cache on a layer's module-level functions, by
    ``layer.name``."""
    out = {}
    for layer in LAYERS:
        mod = layer_module(layer)
        for name, val in vars(mod).items():
            if callable(getattr(val, "cache_info", None)) and getattr(val, "__module__", None) == mod.__name__:
                out[f"{layer}.{name}"] = val
    return out


class Tracer:
    def __init__(self) -> None:
        self.funcs: dict[str, list] = {}  # key -> [calls, inclusive s, nonzero int results]
        self.layers: dict[str, list] = {layer: [0, 0.0, 0.0] for layer in LAYERS}  # calls, self_s, total_s
        self.edges: dict[tuple[str, str], int] = {}
        self._stack: list[list] = []  # [key, time in wrapped callees]
        self._depth: dict[str, int] = {layer: 0 for layer in LAYERS}
        self._bindings: list[tuple[object, str, object]] = []
        self._caches: dict[str, object] = {}
        self._cache_hits: dict[str, list[int]] = {}  # key -> [hits, misses] while recording
        self._cache_mark: dict[str, tuple[int, int]] = {}
        self._active = [False]

    def _wrap(self, layer: str, name: str, fn):
        key = f"{layer}.{name}"
        fstat = self.funcs.setdefault(key, [0, 0.0, 0])
        lstat = self.layers[layer]
        stack, depth, edges, active = self._stack, self._depth, self.edges, self._active
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not active[0]:
                return fn(*args, **kwargs)
            if stack:
                edge = (stack[-1][0], key)
                edges[edge] = edges.get(edge, 0) + 1
            frame = [key, 0.0]
            stack.append(frame)
            outer = depth[layer]
            depth[layer] = outer + 1
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - start
                stack.pop()
                depth[layer] = outer
                fstat[0] += 1
                fstat[1] += dt
                lstat[0] += 1
                lstat[1] += dt - frame[1]
                if not outer:
                    lstat[2] += dt
                if stack:
                    stack[-1][1] += dt
            if out.__class__ is int and out:
                fstat[2] += 1
            return out

        return wrapper

    def install(self) -> None:
        """Bind the wrappers; they aggregate only while ``record(True)``."""
        if self._bindings:
            raise RuntimeError("tracer already installed")
        self._caches = cache_functions()
        self._cache_hits = {key: [0, 0] for key in self._caches}
        wrappers = {}
        for layer, names in WRAPPED.items():
            mod = layer_module(layer)
            for name in names:
                orig = getattr(mod, name)
                wrappers[id(orig)] = (orig, self._wrap(layer, name, orig))
        for module in list(sys.modules.values()):
            for attr, val in list(getattr(module, "__dict__", {}).items()):
                found = wrappers.get(id(val))
                if found is not None and found[0] is val:
                    self._bindings.append((module, attr, val))
                    setattr(module, attr, found[1])

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._bindings):
            setattr(mod, attr, orig)
        self._bindings.clear()

    def record(self, on: bool) -> None:
        """Switch aggregation on or off while the wrappers stay installed,
        so that untimed checks between operations are not counted."""
        if on == self._active[0]:
            return
        for key, fn in self._caches.items():
            info = fn.cache_info()
            if on:
                self._cache_mark[key] = (info.hits, info.misses)
            else:
                h0, m0 = self._cache_mark[key]
                acc = self._cache_hits[key]
                acc[0] += info.hits - h0
                acc[1] += info.misses - m0
        self._active[0] = on

    def snapshot(self) -> dict:
        """Plain-data aggregates; cache hits and misses are counted while
        recording, cache sizes are the current ones."""
        caches = {
            key: [*self._cache_hits[key], fn.cache_info().currsize] for key, fn in self._caches.items()
        }
        return {
            "funcs": self.funcs,
            "layers": self.layers,
            "edges": [[a, b, n] for (a, b), n in self.edges.items()],
            "caches": caches,
        }


def merge(snapshots: list[dict]) -> dict:
    """Sum several snapshots (one per CLI child); cache sizes take the max."""
    funcs: dict[str, list] = {}
    layers = {layer: [0, 0.0, 0.0] for layer in LAYERS}
    edges: dict[tuple[str, str], int] = {}
    caches: dict[str, list[int]] = {}
    for snap in snapshots:
        for key, vals in snap["funcs"].items():
            acc = funcs.setdefault(key, [0, 0.0, 0])
            for n, v in enumerate(vals):
                acc[n] += v
        for layer, vals in snap["layers"].items():
            for n, v in enumerate(vals):
                layers[layer][n] += v
        for a, b, n in snap["edges"]:
            edges[(a, b)] = edges.get((a, b), 0) + n
        for key, (hits, misses, size) in snap["caches"].items():
            acc = caches.setdefault(key, [0, 0, 0])
            acc[0] += hits
            acc[1] += misses
            acc[2] = max(acc[2], size)
    return {
        "funcs": funcs,
        "layers": layers,
        "edges": [[a, b, n] for (a, b), n in edges.items()],
        "caches": caches,
    }


def layer_metrics(snap: dict, ops: int) -> dict[str, float]:
    """Per-op layer metrics named ``layer.calls``, ``layer.fn.ms`` and so on,
    plus the ratios and cache metrics, from one (merged) snapshot."""
    out: dict[str, float] = {}
    for layer, (calls, self_s, total_s) in snap["layers"].items():
        out[f"{layer}.calls"] = calls / ops
        out[f"{layer}.self_ms"] = self_s * 1000 / ops
        out[f"{layer}.total_ms"] = total_s * 1000 / ops
    for key, (calls, incl_s, _) in snap["funcs"].items():
        out[f"{key}.calls"] = calls / ops
        out[f"{key}.ms"] = incl_s * 1000 / ops
    funcs = snap["funcs"]
    edges = {(a, b): n for a, b, n in snap["edges"]}
    mult = funcs.get("sequiver.class_arrow_mult", [0, 0.0, 0])
    out["sequiver.arrows_per_mult_call"] = mult[2] / mult[0] if mult[0] else 0.0
    for metric, (parent, child) in RATIOS.items():
        n_parent = funcs.get(parent, [0])[0]
        out[metric] = edges.get((parent, child), 0) / n_parent if n_parent else 0.0
    for key, (hits, misses, size) in snap["caches"].items():
        out[f"{key}.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        out[f"{key}.cache_size"] = float(size)
    return out
