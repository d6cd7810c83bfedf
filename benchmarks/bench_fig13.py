"""Bench: Fig. 13 — improved memcpy (vanilla vs zc) write throughput."""

from benchmarks.conftest import emit
from repro.experiments import fig13
from repro.experiments.suite import run_experiment


def test_fig13_memcpy_speedup(benchmark):
    result = benchmark.pedantic(
        run_experiment, args=("fig13",), kwargs={"ops": 300}, rounds=1, iterations=1
    ).result
    emit("Fig. 13 memcpy comparison", fig13.report(result))
    assert fig13.check_shape(result) == []
