"""Bench: Fig. 9 — kissdb CPU usage (same runs as Fig. 8)."""

from benchmarks.conftest import emit
from repro.experiments import fig9
from repro.experiments.suite import run_experiment


def test_fig9_kissdb_cpu(benchmark, shared_results):
    base = shared_results.get("fig8")

    def fig9_result():
        # Same runs as Fig. 8: reuse its result when that bench ran.
        if base is not None:
            return fig9.Fig9Result(base=base)
        return run_experiment("fig9").result

    result = benchmark.pedantic(fig9_result, rounds=1, iterations=1)
    emit("Fig. 9 kissdb CPU usage", fig9.report(result))
    assert fig9.check_shape(result) == []
