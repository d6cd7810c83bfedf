"""Tests for the window stream (header + record kinds) and HTML dashboard."""

import json

import pytest

from repro.obs import (
    read_windows,
    render_html_report,
    window_stream,
    write_html_report,
)
from repro.api import BenchSpec, ServeSpec
from repro.serve.bench import run_bench
from repro.telemetry.schema import SchemaMismatch, render_stream, write_stream

SCENARIO = BenchSpec(
    serve=ServeSpec(
        shards=2,
        backend="intel",
        tenants=(("bronze", 1.0), ("gold", 2.0)),
    ),
    seconds=0.02,
    rate=2_000.0,
    seed=3,
    obs=True,
)


@pytest.fixture(scope="module")
def obs():
    return run_bench(SCENARIO, telemetry=False)["obs"]


class TestJsonl:
    def test_roundtrip(self, obs, tmp_path):
        path = tmp_path / "stream.windows.jsonl"
        write_stream(str(path), *window_stream(obs))
        loaded = read_windows(str(path))
        assert loaded["records"] == obs["records"]
        assert loaded["anomalies"] == obs["anomalies"]
        assert loaded["lanes"] == obs["lanes"]
        assert loaded["interval_cycles"] == obs["interval_cycles"]

    def test_stream_is_stamped_and_line_oriented(self, obs):
        lines = render_stream(*window_stream(obs)).strip().splitlines()
        header = json.loads(lines[0])
        assert header["artifact"] == "obs-windows"
        kinds = {json.loads(line)["record"] for line in lines[1:]}
        assert kinds <= {"serve.window", "obs.anomaly"}
        assert len(lines) == 1 + len(obs["records"]) + len(obs["anomalies"])

    def test_load_refuses_a_foreign_stamp(self, tmp_path):
        path = tmp_path / "bogus.jsonl"
        path.write_text(
            json.dumps({"artifact": "spans-jsonl", "schema_version": 1}) + "\n"
        )
        with pytest.raises(SchemaMismatch):
            read_windows(str(path))


class TestHtml:
    def test_report_is_self_contained(self, obs):
        html = render_html_report(obs)
        assert html.startswith("<!DOCTYPE html>")
        # No external fetches: everything inline (offline CI artifact).
        assert "http://" not in html and "https://" not in html
        assert "<svg" in html  # sparklines render inline
        for lane in obs["lanes"]:
            assert lane in html

    def test_anomalies_are_marked(self):
        obs = {
            "interval_cycles": 100.0,
            "windows": 2,
            "freq_hz": 1e9,
            "lanes": ["total"],
            "records": [
                {
                    "record": "serve.window",
                    "window": i,
                    "lane": "total",
                    "throughput_rps": value,
                    "p50_us": 1.0,
                    "p99_us": 2.0,
                    "queue_depth": 0,
                    "occupancy": None,
                    "shed": 0,
                    "u_cycles": 0.0,
                }
                for i, value in enumerate((100.0, 900.0))
            ],
            "anomalies": [
                {
                    "record": "obs.anomaly",
                    "lane": "total",
                    "metric": "throughput_rps",
                    "kind": "ewma-band",
                    "window": 1,
                    "t_cycles": 200.0,
                    "value": 900.0,
                    "mean": 100.0,
                    "z": 9.0,
                    "score": 9.0,
                }
            ],
        }
        html = render_html_report(obs, title="flash crowd")
        assert "flash crowd" in html
        assert "ewma-band" in html

    def test_write_creates_parent_dirs(self, obs, tmp_path):
        target = tmp_path / "nested" / "dash.html"
        write_html_report(obs, str(target))
        assert target.read_text().startswith("<!DOCTYPE html>")
