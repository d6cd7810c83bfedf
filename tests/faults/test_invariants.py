"""Injected faults must not break the paper's invariants.

Worker crashes, stalls and recoveries are allowed to cost time — they
are not allowed to lose cycles from the ledger, reintroduce busy-waiting
in front of the zc fallback (§IV-C), malform configuration phases, or
silently drop calls.  The live :class:`~repro.regress.InvariantAuditor`
(the ``--audit-invariants`` machinery) is the judge.
"""

from repro.experiments.suite import run_experiment
from repro.experiments.common import build_stack, zc_spec
from repro.faults import NAMED_PLANS, FaultPlan, FaultSpec, activate_plan
from repro.regress import InvariantAuditor, RecoveryChecker, attach_auditor
from repro.telemetry import TelemetrySession
from repro.telemetry.events import TelemetryEvent

CRASH_PLAN = FaultPlan(
    name="crash-audit",
    seed=3,
    faults=(
        FaultSpec(kind="worker-crash", at_ms=0.05, respawn_after_ms=0.05),
        FaultSpec(kind="worker-crash", at_ms=0.15, index=0),
        FaultSpec(kind="worker-stall", at_ms=0.2, duration_ms=0.1),
    ),
)


def test_zc_crashes_preserve_conservation_and_immediate_fallback():
    auditors = []
    with TelemetrySession(
        on_attach=lambda capture: auditors.append(attach_auditor(capture))
    ):
        with activate_plan(CRASH_PLAN):
            stack = build_stack(zc_spec())

        def app(i):
            for _ in range(400):
                yield from stack.enclave.ocall("getppid")

        threads = [
            stack.kernel.spawn(app(i), name=f"app-{i}", kind="app")
            for i in range(2)
        ]
        stack.kernel.join(*threads)
        stats = stack.enclave.stats
        total = stats.total_switchless + stats.total_fallback + stats.total_regular
        assert total == 800  # crashes recovered, never dropped
        crash_names = [name for _, name, _ in stack.faults.fault_log]
        assert crash_names.count("fault.worker.crash") == 2
        stack.close()
    violations = [v for auditor in auditors for v in auditor.finish()]
    assert not violations, "\n".join(str(v) for v in violations)


def test_experiment_under_crash_plan_passes_full_audit():
    auditors = []
    with TelemetrySession(
        on_attach=lambda capture: auditors.append(attach_auditor(capture))
    ):
        with activate_plan(NAMED_PLANS["crash-heavy"]):
            result = run_experiment("sec3a", total_calls=2_000).result
    violations = [v for auditor in auditors for v in auditor.finish()]
    assert not violations, "\n".join(str(v) for v in violations)
    spec = result.spec
    for row in result.rows:
        completed = row.switchless_calls + row.fallback_calls + row.regular_calls
        assert completed == spec.total_calls, row.config


class TestRecoveryChecker:
    @staticmethod
    def feed(events):
        auditor = InvariantAuditor(cell="t", checkers=[RecoveryChecker()])
        auditor.feed(
            [TelemetryEvent(t, name, dict(fields)) for t, name, fields in events]
        )
        return auditor.finish()

    def test_respawned_crash_is_clean(self):
        violations = self.feed(
            [
                (10.0, "fault.worker.crash", {"target": "zc-worker", "worker": 1,
                                              "respawn_after_cycles": 100.0}),
                (110.0, "fault.worker.respawn", {"target": "zc-worker", "worker": 1}),
                (500.0, "fault.plan.detached", {"plan": "p"}),
            ]
        )
        assert violations == []

    def test_unsupervised_crash_is_clean(self):
        violations = self.feed(
            [
                (10.0, "fault.worker.crash", {"target": "zc-worker", "worker": 0,
                                              "respawn_after_cycles": None}),
                (500.0, "fault.plan.detached", {"plan": "p"}),
            ]
        )
        assert violations == []

    def test_missed_respawn_deadline_is_flagged(self):
        violations = self.feed(
            [
                (10.0, "fault.worker.crash", {"target": "zc-worker", "worker": 1,
                                              "respawn_after_cycles": 100.0}),
                (200.0, "zc.fallback", {"waited_cycles": 0.0}),
            ]
        )
        assert len(violations) == 1
        assert violations[0].checker == "fault-recovery"
        assert "no fault.worker.respawn" in violations[0].message

    def test_detach_before_deadline_cancels_cleanly(self):
        violations = self.feed(
            [
                (10.0, "fault.worker.crash", {"target": "zc-worker", "worker": 1,
                                              "respawn_after_cycles": 1_000.0}),
                (100.0, "fault.plan.detached", {"plan": "p"}),
            ]
        )
        assert violations == []

    def test_explicit_skip_clears_the_deadline(self):
        violations = self.feed(
            [
                (10.0, "fault.worker.crash", {"target": "intel-worker", "worker": 0,
                                              "respawn_after_cycles": 50.0}),
                (60.0, "fault.worker.respawn.skipped", {"target": "intel-worker",
                                                        "worker": 0}),
                (900.0, "fault.plan.detached", {"plan": "p"}),
            ]
        )
        assert violations == []
