"""Tests for the scenario trace format: round-trip and tamper evidence."""

import json

import pytest

from repro.scenarios.trace import (
    TRACE_ARTIFACT,
    ScenarioTrace,
    TraceEvent,
    load_trace,
    trace_digest,
    write_trace,
)
from repro.telemetry.schema import SchemaMismatch


def _tiny_trace(**overrides):
    events = (
        TraceEvent(t=0.001, app="kv", op="set", key=b"\x00" * 8, value=b"v" * 8),
        TraceEvent(t=0.002, app="kv", op="get", key=b"\x00" * 8, tenant="gold"),
        TraceEvent(t=0.003, app="session", op="delete", key=b"\x01" * 8),
    )
    fields = dict(
        name="tiny",
        seed=7,
        duration_s=0.01,
        keyspace=4,
        apps=("kv", "session"),
        tenants={"gold": 1.0},
        generator={"rate_rps": 300.0},
        events=events,
    )
    fields.update(overrides)
    return ScenarioTrace(**fields)


class TestEventSerialization:
    def test_round_trip_preserves_every_field(self):
        event = TraceEvent(
            t=0.0125, app="crypto", op="set", key=b"\x02" * 8,
            tenant="silver", value=b"\xff" * 4,
        )
        assert TraceEvent.from_record(json.loads(event.to_json())) == event

    def test_valueless_event_omits_the_value_field(self):
        event = TraceEvent(t=0.1, app="kv", op="get", key=b"k" * 8)
        assert "value" not in json.loads(event.to_json())
        assert TraceEvent.from_record(json.loads(event.to_json())).value is None

    def test_serialization_is_canonical(self):
        # Sorted keys, compact separators: the digest depends on it.
        line = _tiny_trace().events[0].to_json()
        record = json.loads(line)
        assert line == json.dumps(record, sort_keys=True, separators=(",", ":"))


class TestTraceValidation:
    def test_events_past_the_duration_rejected(self):
        late = TraceEvent(t=0.02, app="kv", op="get", key=b"k" * 8)
        with pytest.raises(ValueError, match="outside"):
            _tiny_trace(events=(late,))

    def test_undeclared_app_rejected(self):
        stray = TraceEvent(t=0.001, app="crypto", op="get", key=b"k" * 8)
        with pytest.raises(ValueError, match="undeclared"):
            _tiny_trace(events=(stray,))

    def test_empty_app_set_rejected(self):
        with pytest.raises(ValueError, match="at least one app"):
            _tiny_trace(apps=(), events=())


class TestFileRoundTrip:
    def test_write_then_load_preserves_everything(self, tmp_path):
        trace = _tiny_trace()
        path = write_trace(trace, str(tmp_path / "t.jsonl"))
        loaded = load_trace(path)
        assert loaded == trace
        assert loaded.digest == trace.digest

    def test_header_carries_the_stamp_and_digest(self, tmp_path):
        trace = _tiny_trace()
        path = write_trace(trace, str(tmp_path / "t.jsonl"))
        header = json.loads(open(path, encoding="utf-8").readline())
        assert header["artifact"] == TRACE_ARTIFACT
        assert header["sha256"] == trace_digest(trace.events)
        assert header["events"] == len(trace.events)

    def test_same_trace_writes_byte_identical_files(self, tmp_path):
        a = write_trace(_tiny_trace(), str(tmp_path / "a.jsonl"))
        b = write_trace(_tiny_trace(), str(tmp_path / "b.jsonl"))
        assert open(a, "rb").read() == open(b, "rb").read()


class TestTamperEvidence:
    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(SchemaMismatch, match="empty"):
            load_trace(str(path))

    def test_missing_stamp_rejected(self, tmp_path):
        path = tmp_path / "unstamped.jsonl"
        path.write_text('{"name": "x"}\n')
        with pytest.raises(SchemaMismatch):
            load_trace(str(path))

    def test_unparsable_header_rejected(self, tmp_path):
        path = tmp_path / "garbage.jsonl"
        path.write_text("not json at all\n")
        with pytest.raises(SchemaMismatch, match="line 1 is not JSON"):
            load_trace(str(path))

    def test_dropped_event_caught_by_the_count(self, tmp_path):
        trace = _tiny_trace()
        path = write_trace(trace, str(tmp_path / "t.jsonl"))
        lines = open(path, encoding="utf-8").read().splitlines()
        open(path, "w", encoding="utf-8").write("\n".join(lines[:-1]) + "\n")
        with pytest.raises(SchemaMismatch, match="declares"):
            load_trace(str(path))

    def test_edited_event_caught_by_the_digest(self, tmp_path):
        trace = _tiny_trace()
        path = write_trace(trace, str(tmp_path / "t.jsonl"))
        lines = open(path, encoding="utf-8").read().splitlines()
        record = json.loads(lines[1])
        record["op"] = "delete"
        lines[1] = json.dumps(record, sort_keys=True, separators=(",", ":"))
        open(path, "w", encoding="utf-8").write("\n".join(lines) + "\n")
        with pytest.raises(SchemaMismatch, match="modified"):
            load_trace(str(path))

    def test_corrupt_event_line_rejected(self, tmp_path):
        trace = _tiny_trace()
        path = write_trace(trace, str(tmp_path / "t.jsonl"))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("{broken\n")
        with pytest.raises(SchemaMismatch, match=r"line \d+ is not JSON"):
            load_trace(str(path))
