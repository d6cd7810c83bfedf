"""Tests for obs-windows baselines and the ``repro diff`` gate."""

import json
import os

import pytest

from repro.obs import OBS_ARTIFACT, compare_obs_baseline, obs_snapshot
from repro.api import BenchSpec, ServeSpec
from repro.regress.baselines import BASELINES
from repro.serve.bench import run_bench
from repro.telemetry.schema import SchemaMismatch, read_artifact, write_artifact

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SCENARIO = BenchSpec(
    serve=ServeSpec(shards=2, backend="intel"),
    seconds=0.02,
    rate=2_000.0,
    seed=7,
    obs=True,
)


@pytest.fixture(scope="module")
def snapshot():
    return obs_snapshot(run_bench(SCENARIO, telemetry=False))


class TestSnapshot:
    def test_snapshot_requires_an_obs_section(self):
        with pytest.raises(ValueError, match="obs"):
            obs_snapshot({"params": {}})

    def test_roundtrip_through_disk(self, snapshot, tmp_path):
        path = write_artifact(snapshot, str(tmp_path / "obs.json"))
        loaded = read_artifact(path, (OBS_ARTIFACT,))
        assert loaded == json.loads(json.dumps(snapshot))

    def test_load_refuses_a_foreign_artifact(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(
            json.dumps({"meta": {"artifact": "serve-bench", "schema_version": 1}})
        )
        with pytest.raises(SchemaMismatch):
            read_artifact(str(path), (OBS_ARTIFACT,))


class TestCompare:
    def test_identical_snapshots_pass(self, snapshot):
        assert compare_obs_baseline(snapshot, snapshot) == []

    def test_rerun_from_params_matches(self, snapshot):
        # The gate's own loop: re-running the embedded spec must
        # reproduce the stream (simulated runs are deterministic).
        current = obs_snapshot(BASELINES[OBS_ARTIFACT].rerun(snapshot))
        assert compare_obs_baseline(current, snapshot) == []
        assert current["records"] == snapshot["records"]

    def test_structural_drift_is_reported(self, snapshot):
        drifted = json.loads(json.dumps(snapshot))
        drifted["windows"] += 1
        drifted["lanes"] = drifted["lanes"][:-1]
        drifted["summary"]["records"] -= 1
        violations = compare_obs_baseline(drifted, snapshot)
        text = "\n".join(violations)
        assert "window count" in text
        assert "lane coverage" in text
        assert "record count" in text

    def test_anomaly_verdict_drift_is_reported(self, snapshot):
        drifted = json.loads(json.dumps(snapshot))
        drifted["anomalies"] = [
            {
                "window": 3,
                "lane": "total",
                "metric": "p99_us",
                "kind": "ewma-band",
            }
        ]
        (violation,) = compare_obs_baseline(drifted, snapshot)
        assert "anomaly verdicts" in violation

    def test_completion_drift_beyond_threshold_is_reported(self, snapshot):
        drifted = json.loads(json.dumps(snapshot))
        drifted["summary"]["completed"] = int(
            snapshot["summary"]["completed"] * 1.5
        )
        violations = compare_obs_baseline(drifted, snapshot, threshold=0.05)
        assert any("completions moved" in v for v in violations)
        # A generous threshold absorbs the same drift.
        assert compare_obs_baseline(drifted, snapshot, threshold=0.6) == []


class TestCommittedBaseline:
    def test_obs_quick_baseline_still_reproduces(self):
        # The CI gate in miniature: baselines/obs-quick.json re-runs its
        # own spec and must match bit-for-bit.
        path = os.path.join(ROOT, "baselines", "obs-quick.json")
        baseline = read_artifact(path, (OBS_ARTIFACT,))
        current = obs_snapshot(BASELINES[OBS_ARTIFACT].rerun(baseline))
        assert compare_obs_baseline(current, baseline) == []
        assert current["records"] == baseline["records"]
        assert current["anomalies"] == baseline["anomalies"]
