"""Bench: §III-A inline numbers (C1–C5 runtimes, 2 workers)."""

from benchmarks.conftest import emit
from repro.experiments import sec3a
from repro.experiments.suite import run_experiment


def test_sec3a_config_ordering(benchmark):
    result = benchmark.pedantic(
        run_experiment,
        args=("sec3a",),
        kwargs={"total_calls": 20_000},
        rounds=1,
        iterations=1,
    ).result
    emit("§III-A synthetic configurations", sec3a.report(result))
    assert sec3a.check_shape(result) == []
