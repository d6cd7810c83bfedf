"""Tests for the experiment system-under-test builders."""

import pytest

from repro.core.backend import ZcSwitchlessBackend
from repro.experiments.common import (
    BackendSpec,
    build_stack,
    intel_spec,
    no_sl_spec,
    zc_spec,
)
from repro.sgx.backend import RegularBackend
from repro.switchless.backend import IntelSwitchlessBackend


class TestSpecs:
    def test_labels_follow_paper_conventions(self):
        assert no_sl_spec().label == "no_sl"
        assert zc_spec().label == "zc"
        assert intel_spec("frw", {"fread", "fwrite"}, 4).label == "i-frw-4"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            BackendSpec(label="x", kind="mystery")


class TestBuildStack:
    def test_no_sl_uses_regular_backend(self):
        stack = build_stack(no_sl_spec())
        assert isinstance(stack.enclave.backend, RegularBackend)
        stack.close()

    def test_intel_backend_with_config(self):
        stack = build_stack(intel_spec("all", {"read", "write"}, 3))
        backend = stack.enclave.backend
        assert isinstance(backend, IntelSwitchlessBackend)
        assert backend.config.num_uworkers == 3
        assert backend.config.is_switchless("read")
        stack.close()

    def test_zc_backend(self):
        stack = build_stack(zc_spec())
        assert isinstance(stack.enclave.backend, ZcSwitchlessBackend)
        stack.close()

    def test_devices_and_files_present(self):
        stack = build_stack(no_sl_spec(), files={"/data": b"abc"})
        assert stack.fs.exists("/dev/null")
        assert stack.fs.exists("/dev/zero")
        assert stack.fs.contents("/data") == b"abc"
        stack.close()

    def test_cpu_measurement_window(self):
        from repro.sim import Compute

        stack = build_stack(no_sl_spec())
        stack.start_measuring()

        def busy():
            yield Compute(100_000)

        t = stack.kernel.spawn(busy())
        stack.kernel.join(t)
        usage = stack.cpu_usage_pct()
        assert usage == pytest.approx(100.0 / 8, rel=0.05)
        stack.close()

    def test_measurement_requires_start(self):
        stack = build_stack(no_sl_spec())
        with pytest.raises(RuntimeError):
            stack.cpu_usage_pct()
        stack.close()

    def test_finish_stops_backend_threads(self):
        stack = build_stack(zc_spec())
        stack.kernel.run(until_time=100_000)
        stack.close()
        backend = stack.enclave.backend
        assert all(t.done for t in backend.worker_threads)
