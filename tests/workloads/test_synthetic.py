"""Tests for the §III synthetic f/g workload."""

import pytest

from repro.telemetry import TelemetrySession
from repro.workloads.synthetic import (
    SYNTHETIC_CONFIGS,
    SyntheticSpec,
    _call_plan,
    run_synthetic,
)


class TestCallPlan:
    def test_fraction_is_three_to_one(self):
        spec = SyntheticSpec(total_calls=8000, n_threads=8)
        plan = _call_plan(spec, 0)
        f_calls = sum(1 for name in plan if name.startswith("f"))
        g_calls = sum(1 for name in plan if name.startswith("g"))
        assert f_calls == 750
        assert g_calls == 250

    def test_aliases_split_evenly(self):
        spec = SyntheticSpec(total_calls=8000, n_threads=8)
        plan = _call_plan(spec, 0)
        assert plan.count("f") == plan.count("f2")
        assert abs(plan.count("g") - plan.count("g2")) <= 1

    def test_total_calls_across_threads(self):
        spec = SyntheticSpec(total_calls=1003, n_threads=8)
        total = sum(len(_call_plan(spec, i)) for i in range(8))
        assert total == 1003

    def test_all_f_when_fraction_one(self):
        spec = SyntheticSpec(total_calls=100, f_fraction=1.0, n_threads=1)
        plan = _call_plan(spec, 0)
        assert all(name.startswith("f") for name in plan)


class TestConfigs:
    def test_config_semantics(self):
        assert SYNTHETIC_CONFIGS["C1"] == {"f", "f2"}
        assert SYNTHETIC_CONFIGS["C2"] == {"g", "g2"}
        assert SYNTHETIC_CONFIGS["C5"] == frozenset()

    def test_unknown_config_rejected(self):
        with pytest.raises(ValueError):
            run_synthetic("C9", workers=2)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(total_calls=0)
        with pytest.raises(ValueError):
            SyntheticSpec(f_fraction=1.5)
        with pytest.raises(ValueError):
            SyntheticSpec(g_pauses=-1)


class TestRun:
    # 1600 calls over 8 threads: each thread's plan is exactly 150 f + 50 g.
    SPEC = SyntheticSpec(total_calls=1600, g_pauses=200)

    def test_c1_runs_all_f_switchless(self):
        result = run_synthetic("C1", 2, self.SPEC)
        # All f calls are switchless-eligible; g all regular.
        assert result.regular_calls == 400  # the g calls
        assert result.switchless_calls + result.fallback_calls == 1200

    def test_c5_runs_everything_regular(self):
        result = run_synthetic("C5", 2, self.SPEC)
        assert result.regular_calls == 1600
        assert result.switchless_calls == 0

    def test_c1_beats_c2(self):
        c1 = run_synthetic("C1", 2, self.SPEC)
        c2 = run_synthetic("C2", 2, self.SPEC)
        assert c1.elapsed_seconds < c2.elapsed_seconds

    def test_deterministic(self):
        a = run_synthetic("C3", 3, self.SPEC)
        b = run_synthetic("C3", 3, self.SPEC)
        assert a == b

    def test_cpu_usage_is_percentage(self):
        result = run_synthetic("C4", 2, self.SPEC)
        assert 0 < result.cpu_usage_pct <= 100


class TestObserved:
    def test_trace_finishes_every_dispatched_thread(self):
        # The runtime drains the kernel before the capture finalizes, so
        # each switchless worker's last on-CPU slice ends in the trace.
        with TelemetrySession() as session:
            run_synthetic("C1", 2, SyntheticSpec(total_calls=400, g_pauses=50))
        (capture,) = session.captures
        entries = capture.sched_trace.entries
        dispatched = {thread for _, event, thread, _ in entries if event == "dispatch"}
        finished = {thread for _, event, thread, _ in entries if event == "finish"}
        assert any(name.startswith("enclave-") for name in dispatched)
        assert dispatched - finished == set()
