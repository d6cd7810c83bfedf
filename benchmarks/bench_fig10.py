"""Bench: Fig. 10 — OpenSSL-style pipeline latency and CPU."""

from benchmarks.conftest import emit
from repro.experiments import fig10
from repro.experiments.suite import run_experiment


def test_fig10_crypto_pipeline(benchmark):
    result = benchmark.pedantic(
        run_experiment, args=("fig10",), rounds=1, iterations=1
    ).result
    emit("Fig. 10 OpenSSL-style pipeline", fig10.report(result))
    assert fig10.check_shape(result) == []
