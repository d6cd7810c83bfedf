"""Exporter edge cases: empty runs, escaping, and the replay round-trip.

These are the paths a CI artifact pipeline hits but a happy-path figure
run never does: a session that captured nothing, metric/label content
with characters the Prometheus text format must escape, and the
JSONL-export → :func:`repro.regress.read_events_jsonl` round-trip the
replay auditor depends on (the stamp refusals that guard it are
``tests/telemetry/test_schema.py``'s).
"""

import json

from repro import __version__, telemetry
from repro.regress import read_events_jsonl
from repro.telemetry.exporters import (
    _escape_label_value,
    _sanitize_metric_name,
    render_prometheus,
    write_chrome_trace,
    write_events_jsonl,
)
from repro.telemetry.registry import MetricsRegistry


class TestEmptyRun:
    def test_empty_session_exports_valid_artifacts(self, tmp_path):
        with telemetry.TelemetrySession() as session:
            pass  # no cells attached at all
        paths = session.export(str(tmp_path), "empty")
        lines = (tmp_path / "empty.events.jsonl").read_text().splitlines()
        # Only the schema stamp: still a well-formed, replayable file.
        assert len(lines) == 1
        assert json.loads(lines[0])["event"] == "telemetry.schema"
        assert read_events_jsonl(paths["events"]) == {}
        trace = json.loads((tmp_path / "empty.trace.json").read_text())
        assert trace["traceEvents"] == []
        prom = (tmp_path / "empty.metrics.prom").read_text()
        assert "repro_build_info{" in prom  # never an empty file

    def test_events_jsonl_counts_the_stamp(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        assert write_events_jsonl(path, []) == 1

    def test_chrome_trace_empty(self, tmp_path):
        path = str(tmp_path / "trace.json")
        assert write_chrome_trace(path, []) == 0
        document = json.loads(open(path).read())
        assert document["artifact"] == "chrome-trace"
        assert document["repro_version"] == __version__


class TestPrometheusEscaping:
    def test_label_value_escaping(self):
        assert _escape_label_value('say "hi"') == 'say \\"hi\\"'
        assert _escape_label_value("a\\b") == "a\\\\b"
        assert _escape_label_value("two\nlines") == "two\\nlines"

    def test_metric_name_sanitization(self):
        assert _sanitize_metric_name("valid_name:ok") == "valid_name:ok"
        assert _sanitize_metric_name("has-dash.dot") == "has_dash_dot"
        assert _sanitize_metric_name("9starts_digit") == "_9starts_digit"
        assert _sanitize_metric_name("") == "_"

    def test_rendered_output_escapes_hostile_values(self):
        registry = MetricsRegistry()
        registry.counter("calls.total", cell='C1 "zc"\npath\\x').inc(3)
        text = render_prometheus(registry)
        assert "# TYPE calls_total counter" in text
        assert 'cell="C1 \\"zc\\"\\npath\\\\x"' in text
        # Escaping keeps every sample on its own line.
        assert all(
            line.startswith(("#", "repro_", "calls_total"))
            for line in text.strip().splitlines()
        )

    def test_build_info_carries_versions(self):
        text = render_prometheus(MetricsRegistry())
        assert f"# repro_version {__version__}" in text
        assert f'repro_version="{__version__}"' in text


class TestJsonlRoundTrip:
    def _export(self, tmp_path):
        from repro.experiments import fig8
        from repro.experiments.common import zc_spec

        with telemetry.TelemetrySession() as session:
            fig8.run_one(zc_spec(), n_keys=60)
        return session.export(str(tmp_path), "rt")["events"]

    def test_round_trip_preserves_events_and_meta(self, tmp_path):
        path = self._export(tmp_path)
        streams = read_events_jsonl(path)
        assert set(streams) == {"zc"}
        stream = streams["zc"]
        assert stream.n_cpus > 0
        assert stream.workers_cap >= 1
        # Events come back in file (= time) order with their fields.
        times = [event.t_cycles for event in stream.events]
        assert times == sorted(times)
        names = {event.name for event in stream.events}
        assert "ocall.complete" in names
        complete = next(e for e in stream.events if e.name == "ocall.complete")
        assert {"name", "mode", "latency_cycles"} <= set(complete.fields)
        # The meta/schema bookkeeping lines are context, not events.
        assert "telemetry.meta" not in names
        assert "telemetry.schema" not in names
