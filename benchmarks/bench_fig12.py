"""Bench: Fig. 12 — lmbench dynamic CPU usage (same runs as Fig. 11)."""

from benchmarks.conftest import emit
from repro.experiments import fig12
from repro.experiments.suite import run_experiment


def test_fig12_dynamic_cpu(benchmark, shared_results):
    base = shared_results.get("fig11")

    def fig12_result():
        # Same runs as Fig. 11: reuse its result when that bench ran.
        if base is not None:
            return fig12.Fig12Result(base=base)
        return run_experiment("fig12").result

    result = benchmark.pedantic(fig12_result, rounds=1, iterations=1)
    emit("Fig. 12 lmbench dynamic CPU usage", fig12.report(result))
    assert fig12.check_shape(result) == []
