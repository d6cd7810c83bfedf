"""Bench: §V-D — zc-memcpy impact on inter-enclave SSL transfers."""

from benchmarks.conftest import emit
from repro.experiments import sec5d
from repro.experiments.suite import run_experiment


def test_sec5d_interenclave_transfers(benchmark):
    result = benchmark.pedantic(
        run_experiment, args=("sec5d",), rounds=1, iterations=1
    ).result
    emit("§V-D inter-enclave SSL transfers", sec5d.report(result))
    assert sec5d.check_shape(result) == []
