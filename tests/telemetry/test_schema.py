"""The artifact I/O layer: one stream pair and one document pair.

Every stamped JSONL stream the repo writes (telemetry events, request
spans, scenario traces) goes through
``write_stream``/``read_stream``, and every JSON document through
``write_artifact``/``read_artifact``.  These tests hold the pair to its
contract with real payloads of each kind, refuse every malformed input
on the one ``SchemaMismatch`` path, and read streams in the form the
previous per-format writers produced.
"""

import json

import pytest

from repro import __version__
from repro.api import BenchSpec, ServeSpec
from repro.cli import main
from repro.regress import read_events_jsonl
from repro.scenarios import ScenarioSpec, generate_trace, load_trace, write_trace
from repro.scenarios.trace import TRACE_ARTIFACT
from repro.serve.bench import run_bench
from repro.slo import SPANS_ARTIFACT
from repro.telemetry.exporters import EVENTS_ARTIFACT
from repro.telemetry.schema import (
    SCHEMA_VERSION,
    SchemaMismatch,
    read_artifact,
    read_stream,
    render_stream,
    stamp,
    write_artifact,
    write_stream,
)

KINDS = (EVENTS_ARTIFACT, SPANS_ARTIFACT, TRACE_ARTIFACT)


@pytest.fixture(scope="module")
def streams(tmp_path_factory):
    """One file per stream kind, each written by its real producer."""
    root = tmp_path_factory.mktemp("streams")
    assert main(["run", "fig13", "--quick", "--telemetry", str(root)]) == 0
    spans = []
    run_bench(
        BenchSpec(
            serve=ServeSpec(shards=2, tenants=(("bronze", 1.0), ("gold", 2.0))),
            seconds=0.02,
            seed=3,
        ),
        telemetry=False,
        span_sink=spans,
    )
    trace = generate_trace(
        ScenarioSpec(name="io", seed=5, duration_s=0.01, rate_rps=2_000.0)
    )
    paths = {
        EVENTS_ARTIFACT: str(root / "fig13.events.jsonl"),
        SPANS_ARTIFACT: str(root / "spans.jsonl"),
        TRACE_ARTIFACT: str(root / "io.trace.jsonl"),
    }
    write_stream(paths[SPANS_ARTIFACT], stamp(SPANS_ARTIFACT), spans)
    write_trace(trace, paths[TRACE_ARTIFACT])
    return {"paths": paths, "spans": spans, "trace": trace}


def lines_of(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read().splitlines()


class TestRoundTrip:
    @pytest.mark.parametrize("kind", KINDS)
    def test_read_then_render_reproduces_the_file(self, streams, kind):
        path = streams["paths"][kind]
        header, records = read_stream(path, kind)
        assert header["artifact"] == kind
        assert header["schema_version"] == SCHEMA_VERSION
        records = list(records)
        assert records, f"{kind}: the producer wrote no records"
        with open(path, encoding="utf-8") as handle:
            assert render_stream(header, records) == handle.read()

    def test_events(self, streams):
        path = streams["paths"][EVENTS_ARTIFACT]
        header, records = read_stream(path, EVENTS_ARTIFACT)
        # The header keeps the record shape it always had.
        assert (header["t_cycles"], header["cell"], header["event"]) == (
            0.0,
            "",
            "telemetry.schema",
        )
        records = list(records)
        cells = read_events_jsonl(path)
        metas = [r for r in records if r["event"] == "telemetry.meta"]
        assert set(cells) == {r["cell"] for r in metas}
        assert sum(len(s.events) for s in cells.values()) == len(records) - len(metas)
        assert any(r["event"] == "ocall.complete" for r in records)

    def test_spans(self, streams):
        header, records = read_stream(streams["paths"][SPANS_ARTIFACT], SPANS_ARTIFACT)
        assert header == stamp(SPANS_ARTIFACT)
        assert list(records) == streams["spans"]

    def test_scenario_trace(self, streams):
        trace = streams["trace"]
        path = streams["paths"][TRACE_ARTIFACT]
        header, records = read_stream(path, TRACE_ARTIFACT)
        assert header == trace.header()
        assert list(records) == [event.to_record() for event in trace.events]
        assert load_trace(path) == trace

    def test_writer_creates_parent_directories(self, tmp_path):
        path = str(tmp_path / "a" / "b" / "s.jsonl")
        assert write_stream(path, stamp(SPANS_ARTIFACT), [{"x": 1}, {"x": 2}]) == 2
        assert list(read_stream(path, SPANS_ARTIFACT)[1]) == [{"x": 1}, {"x": 2}]

    def test_a_stream_without_records_is_its_stamped_header(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        assert write_stream(path, stamp(SPANS_ARTIFACT), []) == 0
        header, records = read_stream(path, SPANS_ARTIFACT)
        assert header["repro_version"] == __version__
        assert list(records) == []

    def test_lines_are_canonical(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        write_stream(path, stamp(SPANS_ARTIFACT), [{"b": 1, "a": [1, 2]}])
        assert lines_of(path)[1] == '{"a":[1,2],"b":1}'


HEADER = json.dumps(stamp(SPANS_ARTIFACT))

#: (text, message) per malformed stream; ``None`` text = no file at all.
STREAM_CASES = {
    "missing": (None, "no such file"),
    "empty": ("", "empty file"),
    "line-1-not-json": ("not json\n", "line 1 is not JSON"),
    "line-1-not-an-object": ("[1, 2]\n", "line 1 is a JSON list"),
    "unstamped": ('{"cell": "x"}\n', "found None"),
    "foreign-stamp": (json.dumps(stamp("chrome-trace")) + "\n", "found 'chrome-trace'"),
    "future-schema": (
        json.dumps(dict(stamp(SPANS_ARTIFACT), schema_version=SCHEMA_VERSION + 1)) + "\n",
        "schema_version",
    ),
    "bad-later-line": (HEADER + '\n{"ok": 1}\n\n{"broken\n', "line 4 is not JSON"),
    "later-line-not-an-object": (HEADER + '\n{"ok": 1}\n"text"\n', "line 3 is a JSON str"),
    "bad-utf8": (None, "not UTF-8 text"),
}

#: (text, message) per malformed JSON document.
DOCUMENT_CASES = {
    "missing": (None, "no such file"),
    "empty": ("", "not JSON"),
    "not-json": ("not json\n", "not JSON"),
    "array": ("[1, 2]\n", "found a JSON list"),
    "unstamped": ('{"totals": {}}\n', "found None"),
    "foreign-stamp": (json.dumps({"meta": stamp("obs-windows")}), "found 'obs-windows'"),
    "future-schema": (
        json.dumps({"meta": dict(stamp("slo-contracts"), schema_version=99)}),
        "schema_version 99",
    ),
}


def write_case(tmp_path, name, text):
    path = tmp_path / f"{name}.in"
    if name == "bad-utf8":
        path.write_bytes(HEADER.encode() + b'\n{"x": "\xff"}\n')
    elif text is not None:
        path.write_text(text)
    return str(path)


def assert_one_line_naming(exc, path):
    message = str(exc.value)
    assert path in message and "\n" not in message


class TestMalformedStreams:
    @pytest.mark.parametrize("case", list(STREAM_CASES))
    def test_read_stream_refuses(self, tmp_path, case):
        text, message = STREAM_CASES[case]
        path = write_case(tmp_path, case, text)
        with pytest.raises(SchemaMismatch, match=message) as excinfo:
            header, records = read_stream(path, SPANS_ARTIFACT)
            list(records)  # a bad line aborts the read: no partial result
        assert_one_line_naming(excinfo, path)

    def test_a_directory_is_refused(self, tmp_path):
        with pytest.raises(SchemaMismatch, match="unreadable") as excinfo:
            read_stream(str(tmp_path), SPANS_ARTIFACT)
        assert_one_line_naming(excinfo, str(tmp_path))

    def test_the_stamp_is_checked_before_any_record(self, tmp_path):
        path = write_case(tmp_path, "foreign", '{"artifact": "x"}\nnot json\n')
        with pytest.raises(SchemaMismatch, match="stamp"):
            read_stream(path, SPANS_ARTIFACT)


class TestMalformedDocuments:
    @pytest.mark.parametrize("case", list(DOCUMENT_CASES))
    def test_read_artifact_refuses(self, tmp_path, case):
        text, message = DOCUMENT_CASES[case]
        path = write_case(tmp_path, case, text)
        with pytest.raises(SchemaMismatch, match=message) as excinfo:
            read_artifact(path, ("slo-contracts",))
        assert_one_line_naming(excinfo, path)

    def test_a_directory_is_refused(self, tmp_path):
        with pytest.raises(SchemaMismatch, match="unreadable") as excinfo:
            read_artifact(str(tmp_path))
        assert_one_line_naming(excinfo, str(tmp_path))

    def test_round_trip(self, tmp_path):
        document = {"meta": stamp("slo-contracts"), "contracts": [{"tenant": "gold"}]}
        path = write_artifact(document, str(tmp_path / "nested" / "c.json"))
        assert read_artifact(path, ("slo-contracts",)) == document


#: Each format's own reader, which must refuse through the shared path.
FORMAT_READERS = {
    EVENTS_ARTIFACT: read_events_jsonl,
    SPANS_ARTIFACT: lambda path: list(read_stream(path, SPANS_ARTIFACT)[1]),
    TRACE_ARTIFACT: load_trace,
}

HEADER_FAULTS = {
    "unstamped": lambda header: {
        k: v for k, v in header.items() if k not in ("artifact", "schema_version")
    },
    "future-schema": lambda header: dict(header, schema_version=SCHEMA_VERSION + 1),
    "foreign-stamp": lambda header: dict(header, artifact="chrome-trace"),
}


class TestFormatReaders:
    @pytest.mark.parametrize("fault", list(HEADER_FAULTS))
    @pytest.mark.parametrize("kind", KINDS)
    def test_refuses_header(self, streams, tmp_path, kind, fault):
        lines = lines_of(streams["paths"][kind])
        lines[0] = json.dumps(HEADER_FAULTS[fault](json.loads(lines[0])))
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaMismatch) as excinfo:
            FORMAT_READERS[kind](str(path))
        assert_one_line_naming(excinfo, str(path))


def parent_form(header, records, **dumps):
    """Stream text as the per-format writers before the shared pair wrote it."""
    return "".join(json.dumps(line, **dumps) + "\n" for line in (header, *records))


class TestParentFormStreams:
    """Streams written before the shared encoder still read unchanged."""

    def test_events_header_with_record_fields(self, tmp_path):
        header = {
            "t_cycles": 0.0,
            "cell": "",
            "event": "telemetry.schema",
            **stamp(EVENTS_ARTIFACT),
        }
        fallback = {
            "t_cycles": 5.0,
            "cell": "zc",
            "event": "zc.fallback",
            "name": "write",
            "waited_cycles": 0.0,
        }
        meta = {"t_cycles": 9.0, "cell": "zc", "event": "telemetry.meta", "n_cpus": 4}
        path = tmp_path / "parent.events.jsonl"
        path.write_text(parent_form(header, [fallback, meta]))
        read_header, _ = read_stream(str(path), EVENTS_ARTIFACT)
        assert read_header == header
        (stream,) = read_events_jsonl(str(path)).values()
        assert stream.n_cpus == 4
        assert [(e.t_cycles, e.name, e.fields) for e in stream.events] == [
            (5.0, "zc.fallback", {"name": "write", "waited_cycles": 0.0})
        ]

    def test_spans(self, streams, tmp_path):
        spans = tmp_path / "parent.spans.jsonl"
        spans.write_text(parent_form(stamp(SPANS_ARTIFACT), streams["spans"]))
        assert list(read_stream(str(spans), SPANS_ARTIFACT)[1]) == streams["spans"]
