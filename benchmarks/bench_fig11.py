"""Bench: Fig. 11 — lmbench dynamic throughput."""

from benchmarks.conftest import emit
from repro.experiments import fig11
from repro.experiments.suite import run_experiment


def test_fig11_dynamic_throughput(benchmark, shared_results):
    result = benchmark.pedantic(
        run_experiment, args=("fig11",), rounds=1, iterations=1
    ).result
    shared_results["fig11"] = result
    emit("Fig. 11 lmbench dynamic throughput", fig11.report(result))
    assert fig11.check_shape(result) == []
