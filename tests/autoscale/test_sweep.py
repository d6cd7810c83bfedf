"""Tests for the diurnal sweep's gate predicate and baseline compare.

The expensive end-to-end sweep runs in CI (``repro autoscale sweep``);
these tests pin the pure logic around it: arm construction, the
acceptance predicate, and the committed-baseline drift gate
(:func:`repro.regress.baselines.compare_sweep`; a sweep artifact is its
own baseline).
"""

import pytest

from repro.autoscale.bench import (
    AUTOSCALE_ARTIFACT,
    P99_TOLERANCE,
    STATIC_GRID,
    evaluate_sweep,
    sweep_specs,
)
from repro.regress.baselines import compare_sweep
from repro.telemetry.schema import SchemaMismatch, read_artifact, stamp, write_artifact


def arm(cpr, p99, completed=1_000, shed=0):
    return {
        "completed": completed,
        "shed": shed,
        "p99_us": p99,
        "cycles_per_request": cpr,
    }


GOOD = {
    "autoscale": arm(3_000_000.0, 15.0),
    "static-2x8": arm(10_000_000.0, 15.0),
    "static-4x16": arm(20_000_000.0, 16.0),
}


def result(arms=None, **overrides):
    doc = {
        "meta": stamp(AUTOSCALE_ARTIFACT),
        "scenario": "diurnal-kv",
        "trace_digest": "abc123",
        "arms": dict(arms if arms is not None else GOOD),
        "gate": {"ok": True, "violations": []},
    }
    doc.update(overrides)
    return doc


class TestSweepSpecs:
    def test_one_elastic_arm_plus_the_static_grid(self):
        arms = sweep_specs()
        names = [name for name, _ in arms]
        assert names[0] == "autoscale"
        assert names[1:] == [f"static-{s}x{b}" for s, b in STATIC_GRID]

    def test_only_the_provisioning_policy_differs(self):
        arms = dict(sweep_specs())
        elastic = arms["autoscale"]
        static = arms["static-2x8"]
        assert elastic.serve.autoscale is not None
        assert elastic.serve.budget is None
        assert static.serve.autoscale is None
        assert static.serve.budget == 8
        # Identical trace and load shape: the comparison is pure policy.
        assert elastic.scenario == static.scenario
        assert elastic.seconds == static.seconds
        assert elastic.seed == static.seed


class TestEvaluateSweep:
    def test_a_winning_sweep_passes(self):
        assert evaluate_sweep(dict(GOOD)) == []

    def test_missing_elastic_arm(self):
        assert evaluate_sweep({"static-2x8": arm(1.0, 1.0)}) == [
            "sweep has no 'autoscale' arm"
        ]

    def test_an_empty_elastic_arm_cannot_be_gated(self):
        arms = dict(GOOD)
        arms["autoscale"] = {"cycles_per_request": None, "p99_us": None}
        violations = evaluate_sweep(arms)
        assert violations == ["autoscale arm completed no requests — nothing to gate"]

    def test_cpr_must_beat_every_static_arm(self):
        arms = dict(GOOD)
        arms["autoscale"] = arm(15_000_000.0, 15.0)
        violations = evaluate_sweep(arms)
        # Beats 20M but not 10M: exactly one violation, naming the arm.
        assert len(violations) == 1
        assert "static-2x8" in violations[0]
        assert "cycles/request" in violations[0]

    def test_p99_slack_is_enforced(self):
        arms = dict(GOOD)
        arms["autoscale"] = arm(3_000_000.0, 15.0 * (1 + P99_TOLERANCE) + 0.1)
        violations = evaluate_sweep(arms)
        assert any("p99 worse than static-2x8" in v for v in violations)

    def test_p99_within_slack_is_tolerated(self):
        arms = dict(GOOD)
        arms["autoscale"] = arm(3_000_000.0, 15.0 * (1 + P99_TOLERANCE) - 0.01)
        assert [v for v in evaluate_sweep(arms) if "static-2x8" in v] == []


class TestBaselineRoundTrip:
    def test_snapshot_write_load(self, tmp_path):
        snapshot = result()
        path = write_artifact(snapshot, str(tmp_path / "b.json"))
        loaded = read_artifact(path, (AUTOSCALE_ARTIFACT,))
        assert loaded == snapshot
        assert compare_sweep(result(), loaded) == []

    def test_load_rejects_a_wrong_stamp(self, tmp_path):
        snapshot = result()
        snapshot["meta"]["artifact"] = "serve-bench"
        path = write_artifact(snapshot, str(tmp_path / "b.json"))
        with pytest.raises(SchemaMismatch):
            read_artifact(path, (AUTOSCALE_ARTIFACT,))


class TestCompareSweepBaseline:
    def test_identity_mismatches_are_flagged(self):
        baseline = result()
        drifted = result(scenario="flashcrowd-kv", trace_digest="zzz")
        violations = compare_sweep(drifted, baseline)
        assert any("scenario mismatch" in v for v in violations)
        assert any("trace_digest mismatch" in v for v in violations)

    def test_a_failing_live_gate_fails_the_compare(self):
        baseline = result()
        failing = result(gate={"ok": False, "violations": ["cycles/request not better"]})
        violations = compare_sweep(failing, baseline)
        assert any(v.startswith("acceptance gate:") for v in violations)

    def test_arm_set_changes_are_flagged(self):
        baseline = result()
        arms = dict(GOOD)
        arms.pop("static-4x16")
        violations = compare_sweep(result(arms=arms), baseline)
        assert any("arm set changed" in v for v in violations)

    def test_completed_counts_must_match_exactly(self):
        baseline = result()
        arms = dict(GOOD)
        arms["autoscale"] = arm(3_000_000.0, 15.0, completed=999)
        violations = compare_sweep(result(arms=arms), baseline)
        assert violations == [
            "autoscale: completed changed: 999 vs baseline 1000"
        ]

    def test_metric_drift_beyond_threshold_is_flagged(self):
        baseline = result()
        arms = dict(GOOD)
        arms["autoscale"] = arm(3_400_000.0, 15.0)  # ~13% CPR drift
        violations = compare_sweep(result(arms=arms), baseline)
        assert len(violations) == 1
        assert "cycles_per_request drifted 13%" in violations[0]

    def test_drift_within_threshold_passes(self):
        baseline = result()
        arms = dict(GOOD)
        arms["autoscale"] = arm(3_200_000.0, 15.0)  # ~7% drift
        assert compare_sweep(result(arms=arms), baseline) == []

    def test_threshold_is_adjustable(self):
        baseline = result()
        arms = dict(GOOD)
        arms["autoscale"] = arm(3_200_000.0, 15.0)
        assert compare_sweep(
            result(arms=arms), baseline, threshold=0.05
        ) != []
