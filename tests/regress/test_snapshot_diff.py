"""Tests for run snapshots and the statistical regression diff.

The acceptance pair: a self-diff of an unchanged tree exits 0, while a
run with doubled enclave-transition cost (T_es) is flagged with a
per-category cycle delta and a non-zero exit code.
"""

import copy

import pytest

from repro.regress import (
    bootstrap_rel_delta,
    capture_run,
    diff_snapshots,
    load_snapshot,
)
from repro.sgx.costmodel import SgxCostModel
from repro.telemetry.schema import SchemaMismatch, write_artifact

#: One small experiment, scaled down further than --quick: these tests
#: exercise the snapshot/diff machinery, not the figure.
TINY = {"sec3a": {"total_calls": 1_200, "workers": 2, "g_pauses": 200}}


@pytest.fixture(scope="module")
def baseline():
    return capture_run(["sec3a"], overrides=TINY, repeats=2, name="base")


class TestBootstrap:
    def test_identical_samples_give_zero_delta(self):
        assert bootstrap_rel_delta([5.0, 5.0], [5.0, 5.0]) == (0.0, 0.0, 0.0)

    def test_doubling_gives_plus_hundred_percent(self):
        delta, lo, hi = bootstrap_rel_delta([10.0], [20.0])
        assert delta == lo == hi == 1.0

    def test_zero_baseline_reports_inf(self):
        delta, _, _ = bootstrap_rel_delta([0.0], [7.0])
        assert delta == float("inf")

    def test_ci_contains_point_and_is_deterministic(self):
        base = [100.0, 104.0, 96.0, 101.0]
        cur = [110.0, 113.0, 108.0, 109.0]
        first = bootstrap_rel_delta(base, cur)
        second = bootstrap_rel_delta(base, cur)
        assert first == second  # seeded resampling
        delta, lo, hi = first
        assert lo <= delta <= hi
        assert lo < hi  # noisy samples: a real interval


class TestSnapshot:
    def test_structure_and_stamp(self, baseline):
        assert baseline["artifact"] == "run-snapshot"
        assert baseline["repeats"] == 2
        record = baseline["experiments"]["sec3a"]
        assert len(record["violations"]) == 2
        assert set(record["cells"]) == {f"C{i}-w2" for i in range(1, 6)}
        cell = record["cells"]["C1-w2"]
        assert len(cell["now_cycles"]) == 2
        assert len(cell["wall_by_category"]["transition"]) == 2
        assert cell["n_cpus"] > 0
        assert any(key.startswith("repro_") for key in record["metrics"])

    def test_deterministic_repeats(self, baseline):
        # The simulator is deterministic: both repeats must be identical,
        # which is what makes degenerate (zero-width) CIs meaningful.
        cell = baseline["experiments"]["sec3a"]["cells"]["C1-w2"]
        assert cell["now_cycles"][0] == cell["now_cycles"][1]

    def test_save_load_round_trip(self, baseline, tmp_path):
        path = write_artifact(baseline, str(tmp_path / "b.json"))
        assert load_snapshot(path) == baseline

    def test_load_refuses_tampered_version(self, baseline, tmp_path):
        bad = dict(baseline, schema_version=baseline["schema_version"] + 1)
        path = write_artifact(bad, str(tmp_path / "bad.json"))
        with pytest.raises(SchemaMismatch):
            load_snapshot(path)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            capture_run(["fig99"])


class TestDiff:
    def test_self_diff_exits_zero(self, baseline):
        current = capture_run(["sec3a"], overrides=TINY, repeats=1, name="cur")
        report = diff_snapshots(baseline, current)
        assert report.ok
        assert report.exit_code() == 0
        assert report.entries == []
        assert report.compared > 50
        assert "PASS" in report.render()

    def test_doubled_t_es_is_flagged(self, baseline, monkeypatch):
        doubled = SgxCostModel(eexit_cycles=13_500.0, eenter_cycles=13_500.0)
        monkeypatch.setattr(
            "repro.workloads.synthetic.SgxCostModel", lambda: doubled
        )
        current = capture_run(["sec3a"], overrides=TINY, repeats=1, name="slow")
        report = diff_snapshots(baseline, current)
        assert not report.ok
        assert report.exit_code() == 1
        transition = [
            entry
            for entry in report.regressions
            if entry.key == "cycles[transition]"
        ]
        assert transition, report.render()
        # T_es doubled, so transition-heavy cells roughly double (the
        # all-switchless C4 cell pays T_es only on its rare crossings).
        assert max(entry.delta for entry in transition) > 0.8
        assert all(entry.delta > 0.05 for entry in transition)
        rendered = report.render()
        assert "FAIL" in rendered and "cycles[transition]" in rendered

    def test_schema_mismatch_refused(self, baseline):
        other = dict(baseline, schema_version=baseline["schema_version"] + 1)
        with pytest.raises(SchemaMismatch):
            diff_snapshots(baseline, other)


def _synthetic_snapshot(**cell_overrides):
    """A minimal hand-built snapshot for severity-rule tests."""
    cell = {
        "n_cpus": 8,
        "backend": "zc-switchless",
        "now_cycles": [1_000_000.0],
        "wall_by_category": {
            "app": [500_000.0],
            "transition": [100_000.0],
            "idle": [400_000.0],
        },
        "work_by_category": {},
    }
    cell.update(cell_overrides)
    return {
        "artifact": "run-snapshot",
        "schema_version": 1,
        "repro_version": "x",
        "name": "synthetic",
        "quick": True,
        "repeats": 1,
        "experiment_ids": ["e"],
        "experiments": {
            "e": {
                "violations": [[]],
                "cells": {"c": cell},
                "metrics": {"repro_sim_time_cycles{cell=c}": [1_000_000.0]},
            }
        },
    }


class TestSeverityRules:
    def test_overhead_increase_gates_but_app_drifts(self):
        base = _synthetic_snapshot()
        cur = _synthetic_snapshot(
            wall_by_category={
                "app": [600_000.0],  # +20% useful work: drift
                "transition": [150_000.0],  # +50% overhead: regression
                "idle": [250_000.0],
            }
        )
        report = diff_snapshots(base, cur)
        severities = {entry.key: entry.severity for entry in report.entries}
        assert severities["cycles[transition]"] == "regression"
        assert severities["cycles[app]"] == "drift"
        # Idle is capacity, not cost: never a regression.
        assert severities.get("cycles[idle]", "drift") != "regression"

    def test_improvement_is_a_note_not_a_gate(self):
        base = _synthetic_snapshot()
        cur = _synthetic_snapshot(
            wall_by_category={
                "app": [500_000.0],
                "transition": [50_000.0],  # halved: improvement
                "idle": [450_000.0],
            }
        )
        report = diff_snapshots(base, cur)
        assert report.ok
        entry = next(e for e in report.entries if e.key == "cycles[transition]")
        assert entry.severity == "info"

    def test_new_shape_violation_is_a_regression(self):
        base = _synthetic_snapshot()
        cur = _synthetic_snapshot()
        cur["experiments"]["e"]["violations"] = [["C4 slower than C5"]]
        report = diff_snapshots(base, cur)
        assert not report.ok
        assert any(
            entry.scope == "shape" and entry.severity == "regression"
            for entry in report.entries
        )

    def test_resolved_shape_violation_is_a_note(self):
        base = _synthetic_snapshot()
        base["experiments"]["e"]["violations"] = [["old wart"]]
        cur = _synthetic_snapshot()
        report = diff_snapshots(base, cur)
        assert report.ok
        assert any(entry.severity == "info" for entry in report.entries)

    def test_missing_experiment_is_a_regression(self):
        base = _synthetic_snapshot()
        cur = copy.deepcopy(base)
        cur["experiments"] = {}
        report = diff_snapshots(base, cur)
        assert not report.ok

    def test_gated_metric_regression(self):
        base = _synthetic_snapshot()
        cur = _synthetic_snapshot()
        cur["experiments"]["e"]["metrics"] = {
            "repro_sim_time_cycles{cell=c}": [1_200_000.0]
        }
        report = diff_snapshots(base, cur)
        assert any(
            entry.scope == "metrics" and entry.severity == "regression"
            for entry in report.entries
        )

    def test_cycle_counter_metrics_skipped(self):
        # repro_cycles_total duplicates the ledger walk; one finding per
        # cause, so the metric family is excluded from the diff.
        base = _synthetic_snapshot()
        cur = _synthetic_snapshot()
        for snap, value in ((base, 1.0), (cur, 999.0)):
            snap["experiments"]["e"]["metrics"][
                "repro_cycles_total{category=transition,cell=c}"
            ] = [value]
        report = diff_snapshots(base, cur)
        assert not any("repro_cycles_total" in entry.key for entry in report.entries)


class TestFaultAwareDiffs:
    def test_fault_overhead_growth_gates(self):
        base = _synthetic_snapshot(
            wall_by_category={
                "app": [500_000.0],
                "fault": [100_000.0],
                "idle": [400_000.0],
            }
        )
        cur = _synthetic_snapshot(
            wall_by_category={
                "app": [500_000.0],
                "fault": [200_000.0],  # doubled recovery cost: regression
                "idle": [300_000.0],
            }
        )
        base["fault_plan"] = cur["fault_plan"] = {"name": "crash-heavy", "seed": 0}
        report = diff_snapshots(base, cur)
        severities = {entry.key: entry.severity for entry in report.entries}
        assert severities["cycles[fault]"] == "regression"

    def test_mismatched_fault_plans_refuse_to_compare_quietly(self):
        base = _synthetic_snapshot()
        cur = _synthetic_snapshot()
        base["fault_plan"] = None
        cur["fault_plan"] = {"name": "crash-heavy", "seed": 0}
        report = diff_snapshots(base, cur)
        assert not report.ok
        entry = next(e for e in report.entries if e.scope == "fault_plan")
        assert entry.severity == "regression"
        assert "fault plans differ" in entry.message

    def test_matching_fault_plans_do_not_gate(self):
        base = _synthetic_snapshot()
        cur = _synthetic_snapshot()
        base["fault_plan"] = cur["fault_plan"] = {"name": "stall", "seed": 0}
        report = diff_snapshots(base, cur)
        assert report.ok
        assert not any(entry.scope == "fault_plan" for entry in report.entries)
