"""Bench: Fig. 3 — runtime vs. duration of g, per worker count."""

from benchmarks.conftest import emit
from repro.experiments import fig3
from repro.experiments.suite import run_experiment


def test_fig3_g_duration_sweep(benchmark):
    result = benchmark.pedantic(
        run_experiment,
        args=("fig3",),
        kwargs={
            "total_calls": 6_000,
            "workers": (1, 3, 5),
            "g_sweep": (0, 100, 300, 500),
        },
        rounds=1,
        iterations=1,
    ).result
    emit("Fig. 3 g-duration sweep", fig3.report(result))
    assert fig3.check_shape(result) == []
