"""Tests for the Chrome trace-event builders."""

import json

import pytest

from repro.profiler import CallTracer
from repro.profiler.chrometrace import call_trace_events, sched_trace_events
from repro.sgx import Enclave, UntrustedRuntime
from repro.sim import Compute, Kernel, MachineSpec, SchedTrace
from repro.telemetry.exporters import write_chrome_trace


def build(trace=None):
    kernel = Kernel(MachineSpec(n_cores=2, smt=1, freq_hz=1e6), trace=trace)
    urts = UntrustedRuntime()
    enclave = Enclave(kernel, urts)

    def handler():
        yield Compute(500)
        return None

    urts.register("f", handler)
    return kernel, enclave


class TestSchedTraceExport:
    def test_dispatch_intervals_become_slices(self):
        trace = SchedTrace()
        kernel, enclave = build(trace)

        def app():
            yield from enclave.ocall("f")

        kernel.join(kernel.spawn(app(), name="app"))
        events = sched_trace_events(trace, freq_hz=1e6)
        assert events, "expected at least one slice"
        slice_ = events[0]
        assert slice_["ph"] == "X"
        assert slice_["name"] == "app"
        assert slice_["dur"] > 0
        # At 1 MHz, 1 cycle = 1 us: bookkeeping(300) + T_es(13,500) +
        # handler(500) = 14,300 cycles on-CPU, in one uninterrupted slice.
        assert slice_["dur"] == pytest.approx(14_300)

    def test_unmatched_dispatch_skipped(self):
        trace = SchedTrace(max_entries=1)  # dispatches fall off the ring
        kernel, enclave = build(trace)

        def app():
            yield Compute(100)

        kernel.join(kernel.spawn(app(), name="a"))
        # Only the finish survives; exporter must not crash.
        events = sched_trace_events(trace, freq_hz=1e6)
        assert events == []


class TestCallTraceExport:
    def test_ocalls_become_coloured_slices(self):
        kernel, enclave = build()
        tracer = CallTracer().install(enclave)

        def app():
            for _ in range(3):
                yield from enclave.ocall("f")

        kernel.join(kernel.spawn(app()))
        events = call_trace_events(tracer.events, freq_hz=1e6)
        assert len(events) == 3
        assert all(e["name"] == "f" for e in events)
        assert all(e["cname"] == "bad" for e in events)  # regular mode
        assert all(e["args"]["mode"] == "regular" for e in events)
        # Slices are disjoint and ordered.
        ends = [e["ts"] + e["dur"] for e in events]
        starts = [e["ts"] for e in events]
        assert all(end <= start + 1e-9 for end, start in zip(ends, starts[1:]))


class TestCombinedExport:
    def test_export_writes_loadable_json(self, tmp_path):
        trace = SchedTrace()
        kernel, enclave = build(trace)
        tracer = CallTracer().install(enclave)

        def app():
            yield from enclave.ocall("f")

        kernel.join(kernel.spawn(app(), name="app"))
        events = sched_trace_events(trace, freq_hz=1e6)
        events += call_trace_events(tracer.events, freq_hz=1e6)
        out = tmp_path / "trace.json"
        count = write_chrome_trace(str(out), events)
        data = json.loads(out.read_text())
        assert data["artifact"] == "chrome-trace"
        assert data["traceEvents"] == events
        assert count == len(events)
        assert {e["ph"] for e in data["traceEvents"]} == {"X"}
        # CPU lane (pid 0) and ocall lane (pid 1) both present.
        assert {e["pid"] for e in data["traceEvents"]} == {0, 1}
