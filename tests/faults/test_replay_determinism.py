"""Deterministic replay: same seed + plan => identical fault sequences.

The whole point of a seedable fault plan is that a failure seen once can
be replayed bit-for-bit: the injector's ``fault_log`` (every action with
its simulated timestamp), the end-of-run clock, the call counters, and
the figure rows an experiment produces must all be identical across
runs.
"""

from repro.experiments import sec3a
from repro.experiments.suite import run_experiment
from repro.experiments.common import build_stack, zc_spec
from repro.faults import NAMED_PLANS, FaultPlan, FaultSpec, activate_plan

PLAN = FaultPlan(
    name="replay",
    seed=42,
    faults=(
        FaultSpec(kind="worker-crash", at_ms=0.1, respawn_after_ms=0.05),
        FaultSpec(kind="worker-stall", at_ms=0.25, duration_ms=0.1),
        FaultSpec(kind="enclave-lost", at_ms=0.4),
    ),
    backoff_base_ms=0.01,
)


def run_stack_once():
    with activate_plan(PLAN):
        stack = build_stack(zc_spec())

    def app(i):
        for _ in range(400):
            yield from stack.enclave.ocall("getppid")

    threads = [
        stack.kernel.spawn(app(i), name=f"app-{i}", kind="app") for i in range(2)
    ]
    stack.kernel.join(*threads)
    log = list(stack.faults.fault_log)
    now = stack.kernel.now
    stats = stack.enclave.stats
    counts = (stats.total_switchless, stats.total_fallback, stats.total_regular)
    stack.close()
    return log, now, counts


def test_same_seed_same_fault_log_and_clock():
    log_a, now_a, counts_a = run_stack_once()
    log_b, now_b, counts_b = run_stack_once()
    assert log_a == log_b
    assert now_a == now_b
    assert counts_a == counts_b
    # Non-vacuous: the plan actually fired and recovered.
    names = [name for _, name, _ in log_a]
    assert "fault.worker.crash" in names
    assert "fault.worker.respawn" in names
    assert "fault.enclave.recovered" in names
    assert sum(counts_a) == 800  # every call accounted for


def test_same_plan_same_figure_rows():
    plan = NAMED_PLANS["crash-heavy"]
    with activate_plan(plan):
        run_a = run_experiment("sec3a", total_calls=2_000).result
    with activate_plan(plan):
        run_b = run_experiment("sec3a", total_calls=2_000).result
    assert sec3a.table(run_a) == sec3a.table(run_b)

    healthy = run_experiment("sec3a", total_calls=2_000).result
    # The crash plan perturbs the run: identical rows would mean the
    # faults never took effect.
    assert sec3a.table(healthy) != sec3a.table(run_a)
