"""Tests for the HTML dashboard rendered from a run's obs section."""

import pytest

from repro.obs import render_html_report, write_html_report
from repro.api import BenchSpec, ServeSpec
from repro.serve.bench import run_bench

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
