"""Bench: Fig. 8 — kissdb SET latency across all configurations."""

from benchmarks.conftest import emit
from repro.experiments import fig8
from repro.experiments.suite import run_experiment


def test_fig8_kissdb_latency(benchmark, shared_results):
    result = benchmark.pedantic(
        run_experiment,
        args=("fig8",),
        kwargs={"n_keys_sweep": (1000, 2000, 3000), "worker_counts": (2, 4)},
        rounds=1,
        iterations=1,
    ).result
    shared_results["fig8"] = result
    emit("Fig. 8 kissdb SET latency", fig8.report(result))
    assert fig8.check_shape(result) == []
