"""The windows half of the serve gate: a ``serve-bench`` baseline with an
``obs`` section gates the window stream under ``repro diff``."""

import copy
import json
import os

import pytest

from repro.api import BenchSpec, ServeSpec
from repro.regress.baselines import BASELINES, compare_serve, gate
from repro.serve.bench import run_bench
from repro.telemetry.schema import (
    SchemaMismatch,
    read_artifact,
    stamp,
    write_artifact,
)

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
    """The baseline: the obs run's own artifact."""
    return run_bench(SCENARIO, telemetry=False)


class TestSnapshot:
    def test_snapshot_requires_an_obs_section(self, snapshot):
        plain = copy.deepcopy(snapshot)
        del plain["obs"]
        violations = compare_serve(plain, snapshot)
        assert "the run has no obs section to gate the baseline's windows" in violations

    def test_roundtrip_through_disk(self, snapshot, tmp_path):
        path = write_artifact(snapshot, str(tmp_path / "obs.json"))
        loaded = read_artifact(path, BASELINES)
        assert loaded == json.loads(json.dumps(snapshot))
        assert gate(snapshot, loaded, threshold=0.0) == []

    def test_load_refuses_a_foreign_artifact(self, tmp_path):
        # A JSON baseline stamped obs-windows is a retired format: a
        # run's windows live in its serve-bench artifact only.
        path = write_artifact(
            {"meta": stamp("obs-windows"), "windows": 10},
            str(tmp_path / "obs-quick.json"),
        )
        with pytest.raises(SchemaMismatch, match="found 'obs-windows'"):
            read_artifact(path, BASELINES)


class TestCompare:
    def test_identical_snapshots_pass(self, snapshot):
        assert compare_serve(snapshot, snapshot, 0.0) == []

    def test_rerun_from_params_matches(self, snapshot):
        # The gate's own loop: re-running the embedded spec must
        # reproduce the stream (simulated runs are deterministic).
        current = BASELINES["serve-bench"].rerun(snapshot)
        assert compare_serve(current, snapshot, 0.0) == []
        assert current["obs"]["records"] == snapshot["obs"]["records"]

    def test_structural_drift_is_reported(self, snapshot):
        drifted = copy.deepcopy(snapshot)
        drifted["obs"]["windows"] += 1
        drifted["obs"]["interval_cycles"] *= 2
        drifted["obs"]["lanes"] = drifted["obs"]["lanes"][:-1]
        drifted["obs"]["records"] = [
            record for record in drifted["obs"]["records"] if record["lane"] != "shard1"
        ]
        violations = compare_serve(drifted, snapshot)
        text = "\n".join(violations)
        assert len(violations) == 4
        assert "window count" in text
        assert "window interval" in text
        assert "lane coverage" in text
        assert "record count" in text

    def test_anomaly_verdict_drift_is_reported(self, snapshot):
        drifted = copy.deepcopy(snapshot)
        drifted["obs"]["anomalies"] = [
            {
                "window": 3,
                "lane": "total",
                "metric": "p99_us",
                "kind": "ewma-band",
            }
        ]
        (violation,) = compare_serve(drifted, snapshot)
        assert "anomaly verdicts" in violation

    def test_completion_drift_beyond_threshold_is_reported(self, snapshot):
        drifted = copy.deepcopy(snapshot)
        for record in drifted["obs"]["records"]:
            if record["lane"] == "total":
                record["completed"] = int(record["completed"] * 1.5)
        violations = compare_serve(drifted, snapshot, threshold=0.05)
        assert any("completions moved" in v for v in violations)
        # A generous threshold absorbs the same drift.
        assert compare_serve(drifted, snapshot, threshold=0.6) == []


class TestCommittedBaseline:
    def test_obs_quick_baseline_still_reproduces(self):
        # The CI gate in miniature: baselines/obs-quick.json re-runs its
        # own spec and must match bit-for-bit.
        path = os.path.join(ROOT, "baselines", "obs-quick.json")
        baseline = read_artifact(path, BASELINES)
        current = BASELINES["serve-bench"].rerun(baseline)
        assert gate(current, baseline, threshold=0.0) == []
        assert current["obs"]["records"] == baseline["obs"]["records"]
        assert current["obs"]["anomalies"] == baseline["obs"]["anomalies"]
