"""Bench: Fig. 7 — write-ocall throughput, vanilla memcpy."""

from benchmarks.conftest import emit
from repro.experiments import fig7
from repro.experiments.suite import run_experiment


def test_fig7_alignment_throughput(benchmark):
    result = benchmark.pedantic(
        run_experiment, args=("fig7",), kwargs={"ops": 300}, rounds=1, iterations=1
    ).result
    emit("Fig. 7 vanilla memcpy write throughput", fig7.report(result))
    assert fig7.check_shape(result) == []
