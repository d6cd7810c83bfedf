"""The benchmark's layer map covers the package, and its fold is a partition."""

import cProfile
import os
import pstats
from pathlib import Path

import repro
from benchmarks.e2e.layers import LAYER_PREFIXES, LAYERS, OTHER, fold, layer_of
from benchmarks.e2e.workloads import WORKLOADS

PACKAGE_DIR = Path(repro.__file__).parent


def test_every_module_maps_to_a_named_layer():
    modules = sorted(
        path.relative_to(PACKAGE_DIR).as_posix() for path in PACKAGE_DIR.rglob("*.py")
    )
    assert modules
    unmapped = [module for module in modules if layer_of(module) == OTHER]
    assert unmapped == []


def test_prefixes_name_one_layer_each():
    prefixes = [prefix for group in LAYER_PREFIXES.values() for prefix in group]
    assert len(prefixes) == len(set(prefixes))


def test_longest_prefix_wins():
    assert layer_of("sim/timerqueue.py") == "sim.timerqueue"
    assert layer_of("sim/kernel.py") == "sim.kernel"
    assert layer_of("serve/router.py") == "serve.router"
    assert layer_of("serve/bench.py") == "serve"
    assert layer_of("__init__.py") == "api"
    assert layer_of("sim/__init__.py") == "sim.kernel"
    assert layer_of(None) == OTHER


def test_fold_shares_sum_to_one():
    workload = WORKLOADS["serve-zc-mixed"]
    inputs = workload.prepare(1, 1 / 400)
    profiler = cProfile.Profile()
    profiler.runcall(workload.run, inputs)
    metrics = fold(pstats.Stats(profiler), os.fspath(PACKAGE_DIR))
    shares = [metrics[f"{layer}.self_share"] for layer in LAYERS]
    assert abs(sum(shares) - 1.0) <= 0.01
    assert metrics["sim.kernel.self_s"] > 0
    assert metrics["serve.router.calls_in"] > 0
    # No control plane runs on this workload.
    assert metrics["autoscale.calls_in"] == 0
    assert set(metrics) == {
        f"{layer}.{suffix}"
        for layer in LAYERS
        for suffix in ("self_s", "self_share", "calls_in")
    }
