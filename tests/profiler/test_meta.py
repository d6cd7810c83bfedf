"""repro profile meta: hot-function table and scheduler trace export."""

import json

import pytest

from repro.profiler.meta import (
    export_sched_trace,
    profile_storm,
    render_profile,
    run_storm,
)


@pytest.fixture(scope="module")
def artifact():
    return profile_storm(use_zc=True, n_ocalls=200, top=10)


class TestProfileStorm:
    def test_artifact_shape(self, artifact):
        assert artifact["backend"] == "zc"
        assert artifact["n_ocalls"] == 200
        assert artifact["events_processed"] > 0
        assert artifact["simulated_s"] > 0
        assert artifact["host_seconds"] > 0
        assert "timer_stats" in artifact

    def test_hot_rows_are_ranked_by_tottime(self, artifact):
        hot = artifact["hot"]
        assert hot, "profile found no functions"
        times = [row["tottime_s"] for row in hot]
        assert times == sorted(times, reverse=True)
        for row in hot:
            assert set(row) >= {"function", "ncalls", "tottime_s", "cumtime_s"}

    def test_storm_is_deterministic(self):
        a = run_storm(use_zc=True, n_ocalls=150)
        b = run_storm(use_zc=True, n_ocalls=150)
        assert a.events_processed == b.events_processed
        assert a.now == b.now

    def test_regular_backend_storm(self):
        kernel = run_storm(use_zc=False, n_ocalls=100)
        assert kernel.events_processed > 0


class TestRendering:
    def test_render_includes_header_and_rows(self, artifact):
        text = render_profile(artifact)
        assert "events" in text
        assert artifact["hot"][0]["function"] in text

    def test_render_paths_are_repo_relative(self, artifact):
        text = render_profile(artifact)
        assert "/root/" not in text


class TestTraceExport:
    def test_trace_file_is_chrome_compatible(self, tmp_path):
        path = tmp_path / "trace.json"
        count = export_sched_trace(str(path), use_zc=True, n_ocalls=120)
        trace = json.loads(path.read_text())
        assert trace["artifact"] == "chrome-trace"
        events = trace["traceEvents"]
        assert len(events) == count > 0
        for event in events[:20]:
            assert {"name", "ph", "ts", "pid", "tid"} <= set(event)
