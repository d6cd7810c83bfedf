"""Bench: Fig. 2 — synthetic runtime vs. Intel worker count, C1–C5."""

from benchmarks.conftest import emit
from repro.experiments import fig2
from repro.experiments.suite import run_experiment


def test_fig2_worker_sweep(benchmark):
    result = benchmark.pedantic(
        run_experiment,
        args=("fig2",),
        kwargs={"total_calls": 10_000},
        rounds=1,
        iterations=1,
    ).result
    emit("Fig. 2 worker sweep", fig2.report(result))
    assert fig2.check_shape(result) == []
