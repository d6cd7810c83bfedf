"""Fold a cProfile run into the benchmark's layer map.

A layer is a set of ``src/repro`` files, named by path prefix; the
longest matching prefix wins, so ``sim/timerqueue.py`` is its own layer
inside ``sim/``.  Everything outside the package (the standard library,
builtins and the benchmark's own code) is ``other``.

For each layer the fold reports:

- ``self_s`` — host seconds spent in the layer's own code;
- ``self_share`` — ``self_s`` over the total, so shares sum to 1;
- ``calls_in`` — calls into the layer's functions from another layer,
  summed over the profile's caller edges (an exact count).
"""

from __future__ import annotations

import os
import pstats
from typing import Any

LAYER_PREFIXES: dict[str, tuple[str, ...]] = {
    "sim.kernel": ("sim/",),
    "sim.timerqueue": ("sim/timerqueue.py",),
    "core": ("core/",),
    "switchless": ("switchless/",),
    "sgx": ("sgx/",),
    "hostos": ("hostos/",),
    "serve.router": ("serve/router.py",),
    "serve.shard": ("serve/shard.py",),
    "serve": ("serve/",),
    "scenarios": ("scenarios/",),
    "apps": ("apps/",),
    "crypto": ("crypto/",),
    "obs": ("obs/",),
    "autoscale": ("autoscale/",),
    "analysis": ("analysis/",),
    "experiments": ("experiments/", "workloads/", "parallel/", "tuner/"),
    "telemetry": ("telemetry/", "profiler/"),
    "faults": ("faults/",),
    "regress": ("regress/",),
    "slo": ("slo/",),
    "api": ("__init__.py", "__main__.py", "api.py", "cli.py"),
}
OTHER = "other"
LAYERS: tuple[str, ...] = (*LAYER_PREFIXES, OTHER)
METRIC_SUFFIXES = ("self_s", "self_share", "calls_in")


def layer_of(relpath: str | None) -> str:
    """The layer of a file, given its ``/``-separated path inside the
    ``repro`` package (None for a file outside it)."""
    if relpath is None:
        return OTHER
    best, best_len = OTHER, -1
    for layer, prefixes in LAYER_PREFIXES.items():
        for prefix in prefixes:
            matches = relpath == prefix or (
                prefix.endswith("/") and relpath.startswith(prefix)
            )
            if matches and len(prefix) > best_len:
                best, best_len = layer, len(prefix)
    return best


def fold(stats: pstats.Stats, package_dir: str) -> dict[str, float]:
    """Per-layer ``<layer>.self_s``/``.self_share``/``.calls_in`` metrics."""
    root = os.path.realpath(package_dir) + os.sep
    by_file: dict[str, str] = {}

    def layer(func: tuple[str, int, str]) -> str:
        filename = func[0]
        if filename not in by_file:
            path = os.path.realpath(filename) if filename.endswith(".py") else ""
            relpath = (
                path[len(root):].replace(os.sep, "/")
                if path.startswith(root)
                else None
            )
            by_file[filename] = layer_of(relpath)
        return by_file[filename]

    self_s = dict.fromkeys(LAYERS, 0.0)
    calls_in = dict.fromkeys(LAYERS, 0)
    raw: dict[Any, Any] = stats.stats  # type: ignore[attr-defined]
    for func, (_cc, _nc, tottime, _ct, callers) in raw.items():
        own = layer(func)
        self_s[own] += tottime
        for caller, edge in callers.items():
            if layer(caller) != own:
                calls_in[own] += edge[0]
    total = sum(self_s.values()) or 1.0
    metrics: dict[str, float] = {}
    for name in LAYERS:
        metrics[f"{name}.self_s"] = self_s[name]
        metrics[f"{name}.self_share"] = self_s[name] / total
        metrics[f"{name}.calls_in"] = calls_in[name]
    return metrics
