"""Tests for telemetry sessions and the run-artifact exporters."""

import json

from repro import telemetry
from repro.experiments import fig8
from repro.experiments.common import build_stack, no_sl_spec, zc_spec
from repro.telemetry.ledger import CATEGORIES


class TestSessionAttachment:
    def test_no_session_means_no_instrumentation(self):
        stack = build_stack(no_sl_spec())
        assert stack.telemetry is None
        assert stack.kernel.bus is None
        assert stack.kernel.ledger is None

    def test_session_attaches_and_finalizes(self):
        with telemetry.TelemetrySession() as session:
            stack = build_stack(no_sl_spec())
            assert stack.telemetry is not None
            assert stack.kernel.bus is stack.telemetry.bus
            assert stack.kernel.ledger is stack.telemetry.ledger
            stack.close()
        capture = session.captures[0]
        assert capture.finalized
        assert capture.label == "no_sl"
        # Simulation references are dropped so sessions stay lightweight.
        assert capture.kernel is None
        assert stack.kernel.bus is None

    def test_duplicate_labels_get_unique_suffixes(self):
        with telemetry.TelemetrySession() as session:
            build_stack(no_sl_spec()).close()
            build_stack(no_sl_spec()).close()
        assert [c.label for c in session.captures] == ["no_sl", "no_sl#1"]

    def test_active_session_stack(self):
        assert telemetry.active_session() is None
        with telemetry.TelemetrySession() as outer:
            assert telemetry.active_session() is outer
            with telemetry.TelemetrySession() as inner:
                assert telemetry.active_session() is inner
            assert telemetry.active_session() is outer
        assert telemetry.active_session() is None


class TestExporters:
    def _run_session(self):
        with telemetry.TelemetrySession() as session:
            fig8.run_one(no_sl_spec(), n_keys=120)
            fig8.run_one(zc_spec(), n_keys=120)
        return session

    def test_full_export(self, tmp_path):
        session = self._run_session()
        paths = session.export(str(tmp_path), "fig8")
        records = [
            json.loads(line)
            for line in (tmp_path / "fig8.events.jsonl").read_text().splitlines()
        ]
        assert all({"t_cycles", "cell", "event"} <= set(r) for r in records)
        # Line 1 is the schema stamp that lets ``repro diff``/replay refuse
        # artifacts from an incompatible exporter.
        assert records[0]["event"] == "telemetry.schema"
        assert records[0]["schema_version"] == telemetry.SCHEMA_VERSION
        cells = {r["cell"] for r in records if r["event"] != "telemetry.schema"}
        assert cells == {"no_sl", "zc"}
        assert any(r["event"] == "ocall.complete" for r in records)
        assert any(r["event"] == "syscall" for r in records)
        # The kernel's dispatches live in the sched trace ring, not the log.
        assert not any(r["event"].startswith("sched.") for r in records)
        # Every cell closes with a meta line carrying the drop counters
        # and the machine context replay needs.
        metas = [r for r in records if r["event"] == "telemetry.meta"]
        assert len(metas) == 2
        assert all(m["n_cpus"] > 0 and m["freq_hz"] > 0 for m in metas)

        document = json.loads((tmp_path / "fig8.trace.json").read_text())
        assert document["schema_version"] == telemetry.SCHEMA_VERSION
        trace = document["traceEvents"]
        names = {e["args"]["name"] for e in trace if e["name"] == "process_name"}
        assert names == {"no_sl", "zc"}
        assert any(e["ph"] == "X" for e in trace)  # sched/ocall slices
        assert any(e["ph"] == "C" for e in trace)  # zc worker counter

        prom = (tmp_path / "fig8.metrics.prom").read_text()
        assert f"# repro_schema_version {telemetry.SCHEMA_VERSION}" in prom
        assert "repro_build_info{" in prom
        assert "# TYPE repro_cycles_total counter" in prom
        assert 'repro_ocalls_total{cell="no_sl",mode="regular"}' in prom
        assert "repro_ocall_latency_cycles" in prom

        budget = (tmp_path / "fig8.cycle_budget.txt").read_text()
        for category in CATEGORIES:
            assert category in budget
        assert "no_sl" in budget and "zc" in budget
        assert set(paths) == {"events", "trace", "metrics", "budget"}

    def test_trace_only_export(self, tmp_path):
        session = self._run_session()
        path = session.export_trace(str(tmp_path), "fig8")
        trace = json.loads((tmp_path / "fig8.trace.json").read_text())
        assert path.endswith("fig8.trace.json")
        assert len(trace["traceEvents"]) > 10

    def test_export_finalizes_unfinished_captures(self, tmp_path):
        with telemetry.TelemetrySession() as session:
            stack = build_stack(no_sl_spec())
            stack.kernel.run()  # drained, but finish() never called
        session.export(str(tmp_path), "x")
        assert session.captures[0].finalized

    def test_latency_summary_matches_call_count(self):
        session = self._run_session()
        capture = session.captures[0]
        summary = capture.latency_summary()
        assert summary["count"] == len(capture.call_events) > 0
        assert summary["p50"] <= summary["p99"] <= summary["max"]


class TestRingDrops:
    def test_every_completed_ocall_is_traced_or_counted_dropped(self, monkeypatch):
        # A 16-entry call ring and a 4-entry sched ring under 200 zc
        # ocalls: telemetry.meta must account for every completed call and
        # report the sched drops, in the live session and in a session
        # that absorbed the cell as a pool worker's payload.
        from repro.sim import Compute
        from repro.telemetry import session as session_module
        from repro.telemetry.exporters import _event_records

        monkeypatch.setattr(session_module, "TRACER_MAX_EVENTS", 16)
        monkeypatch.setattr(session_module, "SCHED_TRACE_ENTRIES", 4)
        with telemetry.TelemetrySession() as session:
            stack = build_stack(zc_spec())
            enclave = stack.enclave

            def handler():
                yield Compute(500, tag="host")

            enclave.urts.register("f", handler)

            def app():
                for _ in range(100):
                    yield from enclave.ocall("f")

            stack.kernel.join(*(stack.kernel.spawn(app()) for _ in range(2)))
            stats = enclave.stats
            completed = stats.total_regular + stats.total_switchless + stats.total_fallback
            stack.close()
        assert completed == 200
        absorbed = telemetry.TelemetrySession()
        absorbed.absorb(session.to_payload())
        for captures in (session.captures, absorbed.captures):
            (meta,) = [r for r in _event_records(captures) if r["event"] == "telemetry.meta"]
            assert meta["call_events"] == 16
            assert meta["call_events"] + meta["calls_dropped"] == completed
            assert meta["sched_dropped"] == captures[0].sched_trace.dropped > 0
