"""The fault injector: executes a :class:`FaultPlan` against a live stack.

``FaultInjector.attach(kernel, enclave)`` installs itself as
``kernel.faults`` (the single attribute every runtime fault check gates
on — healthy runs with ``kernel.faults is None`` are byte-identical to
builds without this package) and schedules one kernel timer per
:class:`~repro.faults.spec.FaultSpec`.  When a timer fires the injector
perturbs the stack directly:

- **worker-crash** — :meth:`repro.sim.kernel.Kernel.kill` on the worker
  thread; ZC workers are additionally *quarantined* so the caller scan
  and the scheduler's activation sweep skip the dead slot; an optional
  respawn timer asks the backend to supervise the slot back to life.
- **worker-stall / worker-slowdown** — consumed by the worker loops at
  their next dispatch point via :meth:`take_stall` / :meth:`cost_factor`.
- **enclave-lost** — marks the enclave lost; the next entry attempt runs
  :class:`repro.faults.recovery.EnclaveRecovery` (re-create + capped
  exponential backoff).
- **epc-pressure** — swaps the enclave's cost model for a copy with
  inflated transition costs, restoring the original when the window ends.
- **handoff** — intercepts worker kicks and futex wakes via
  :meth:`perturb_handoff`, dropping (with deterministic re-delivery) or
  delaying them.
- **clock-skew** — stretches the scheduler's accounting windows via
  :meth:`scaled_window`.

Every injection and recovery action is appended to :attr:`fault_log`
(the deterministic-replay witness) and emitted as a ``fault.*`` event on
the telemetry bus when one is installed.

Plans are activated for experiment runs with :func:`activate_plan`::

    with activate_plan(plan):
        stack = build_stack(...)   # build_stack attaches the injector
"""

from __future__ import annotations

import contextlib
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Iterator

from repro.faults.recovery import BackoffPolicy, EnclaveRecovery
from repro.faults.spec import (
    CLOCK_SKEW,
    ENCLAVE_LOST,
    EPC_PRESSURE,
    HANDOFF,
    WORKER_CRASH,
    WORKER_SLOWDOWN,
    WORKER_STALL,
    FaultPlan,
    FaultSpec,
)
from repro.sim.kernel import Kernel, ThreadState

if TYPE_CHECKING:
    from repro.sgx.enclave import Enclave

import random

# ----------------------------------------------------------------------
# Active-plan stack (mirrors telemetry.session.active_session)
# ----------------------------------------------------------------------
_ACTIVE_PLANS: list[FaultPlan] = []


def active_fault_plan() -> FaultPlan | None:
    """The innermost plan activated with :func:`activate_plan`, if any.

    ``repro.experiments.common.build_stack`` consults this to decide
    whether to attach a :class:`FaultInjector` to the stack it builds.
    """
    return _ACTIVE_PLANS[-1] if _ACTIVE_PLANS else None


@contextlib.contextmanager
def activate_plan(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Make ``plan`` the active fault plan for stacks built inside."""
    _ACTIVE_PLANS.append(plan)
    try:
        yield plan
    finally:
        _ACTIVE_PLANS.pop()


class FaultInjector:
    """Schedules and applies one plan's faults on one kernel + enclave."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.rng = random.Random(plan.seed)
        self.kernel: Kernel | None = None
        self.enclave: "Enclave | None" = None
        #: Deterministic-replay witness: (now, event name, sorted fields).
        self.fault_log: list[tuple[float, str, tuple]] = []
        self._timers: list[Any] = []
        self._stalls: dict[tuple[str, int], float] = {}
        self._slowdowns: dict[tuple[str, int], tuple[float, float]] = {}
        self._skew: tuple[float, float] | None = None  # (factor, until)
        self._handoff: dict[str, float] | None = None
        self._base_cost: Any = None
        self._detached = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def attach(self, kernel: Kernel, enclave: "Enclave") -> "FaultInjector":
        """Install on ``kernel``/``enclave`` and schedule the plan."""
        if kernel.faults is not None:
            raise RuntimeError("a fault injector is already attached to this kernel")
        self.kernel = kernel
        self.enclave = enclave
        kernel.faults = self
        if enclave.recovery is None:
            policy = BackoffPolicy(
                base_cycles=self._cycles(self.plan.backoff_base_ms),
                cap_cycles=self._cycles(self.plan.backoff_cap_ms),
                seed=self.plan.seed,
            )
            enclave.recovery = EnclaveRecovery(enclave, policy)
        for spec in self.plan.sorted_faults():
            when = max(self._cycles(spec.at_ms), kernel.now)
            self._timers.append(kernel.call_at(when, partial(self._apply, spec)))
        self.emit(
            "fault.plan.attached",
            plan=self.plan.name,
            seed=self.plan.seed,
            n_faults=len(self.plan.faults),
        )
        return self

    def detach(self) -> None:
        """Cancel pending fault timers and restore unperturbed state.

        Called by ``Runtime.close()`` *before* the teardown drain so
        not-yet-fired faults (and respawn/redelivery timers) cannot drag
        the drain out to their firing instants.  Idempotent.
        """
        if self._detached or self.kernel is None:
            return
        self._detached = True
        for timer in self._timers:
            timer.cancel()
        self._timers.clear()
        if self._base_cost is not None and self.enclave is not None:
            self.enclave.cost = self._base_cost
            self._base_cost = None
        self.emit("fault.plan.detached", plan=self.plan.name)
        if self.kernel.faults is self:
            self.kernel.faults = None

    def _cycles(self, ms: float) -> float:
        assert self.kernel is not None
        return self.kernel.spec.cycles(ms / 1_000.0)

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def emit(self, event: str, **fields: Any) -> None:
        """Record a ``fault.*`` action in the log and on the bus.

        (The parameter is named ``event`` because several faults carry a
        ``name=<ocall name>`` field.)
        """
        assert self.kernel is not None
        self.fault_log.append((self.kernel.now, event, tuple(sorted(fields.items()))))
        bus = self.kernel.bus
        if bus is not None:
            bus.emit(event, **fields)

    # ------------------------------------------------------------------
    # Runtime query API (called from worker/backend/scheduler hot paths,
    # always behind a ``kernel.faults is not None`` gate)
    # ------------------------------------------------------------------
    def take_stall(self, target: str, index: int) -> float:
        """Pop any pending stall cycles for worker ``index`` of ``target``."""
        return self._stalls.pop((target, index), 0.0)

    def cost_factor(self, target: str, index: int) -> float:
        """Current cost multiplier for worker ``index`` of ``target``."""
        entry = self._slowdowns.get((target, index))
        if entry is None:
            return 1.0
        factor, until = entry
        assert self.kernel is not None
        if self.kernel.now >= until:
            del self._slowdowns[(target, index)]
            return 1.0
        return factor

    def scaled_window(self, cycles: float) -> float:
        """Apply any active clock skew to a scheduler accounting window."""
        if self._skew is None:
            return cycles
        factor, until = self._skew
        assert self.kernel is not None
        if self.kernel.now >= until:
            self._skew = None
            return cycles
        return cycles * factor

    def caller_timeout_cycles(self, default: float) -> float:
        """Completion-wait timeout: the plan's override or ``default``."""
        if self.plan.caller_timeout_ms is None:
            return default
        return self._cycles(self.plan.caller_timeout_ms)

    def perturb_handoff(self, fire: Callable[[], Any]) -> bool:
        """Maybe drop or delay one task-slot handoff.

        ``fire`` delivers the handoff (an ``Event.fire_if_unfired`` bound
        method).  Returns True when the injector took ownership of the
        delivery: dropped handoffs are re-delivered after the window's
        ``redelivery`` latency (modelling a futex timeout, preserving
        liveness), delayed ones fire late.  False means the caller should
        deliver normally.
        """
        window = self._handoff
        if window is None:
            return False
        assert self.kernel is not None
        if self.kernel.now >= window["until"]:
            self._handoff = None
            return False
        if window["drop_p"] and self.rng.random() < window["drop_p"]:
            self._timers.append(self.kernel.call_later(window["redeliver"], fire))
            self.emit("fault.handoff.drop", redelivery_cycles=window["redeliver"])
            return True
        if window["delay"]:
            self._timers.append(self.kernel.call_later(window["delay"], fire))
            self.emit("fault.handoff.delay", delay_cycles=window["delay"])
            return True
        return False

    # ------------------------------------------------------------------
    # Fault application (timer callbacks)
    # ------------------------------------------------------------------
    def _apply(self, spec: FaultSpec) -> None:
        handler = {
            WORKER_CRASH: self._apply_crash,
            WORKER_STALL: self._apply_stall,
            WORKER_SLOWDOWN: self._apply_slowdown,
            ENCLAVE_LOST: self._apply_enclave_lost,
            EPC_PRESSURE: self._apply_epc_pressure,
            HANDOFF: self._apply_handoff,
            CLOCK_SKEW: self._apply_clock_skew,
        }[spec.kind]
        handler(spec)

    def _resolve_target(self, requested: str | None):
        """Map a spec's target onto the installed backend's worker pool.

        Returns ``(target_name, threads, zc_workers_or_None)`` or
        ``(None, None, None)`` when the backend has no matching pool.
        """
        assert self.enclave is not None
        backend = self.enclave.backend
        if hasattr(backend, "workers") and hasattr(backend, "worker_threads"):
            if requested in (None, "zc-worker"):
                return "zc-worker", backend.worker_threads, backend.workers
            return None, None, None
        if hasattr(backend, "worker_threads"):
            if requested in (None, "intel-worker"):
                return "intel-worker", backend.worker_threads, None
            if requested == "intel-tworker" and backend.tworker_threads:
                return "intel-tworker", backend.tworker_threads, None
            return None, None, None
        return None, None, None

    def _target_indices(self, spec: FaultSpec) -> tuple[str | None, list[int]]:
        target, threads, _ = self._resolve_target(spec.target)
        if target is None or threads is None:
            return None, []
        if spec.index is not None:
            return target, [spec.index] if spec.index < len(threads) else []
        return target, list(range(len(threads)))

    def _apply_crash(self, spec: FaultSpec) -> None:
        assert self.kernel is not None and self.enclave is not None
        target, threads, workers = self._resolve_target(spec.target)
        if target is None or threads is None:
            self.emit("fault.skipped", kind=spec.kind, reason="no-matching-backend")
            return
        alive = [i for i, t in enumerate(threads) if t.state is not ThreadState.DONE]
        if spec.index is not None:
            if spec.index not in alive:
                self.emit("fault.skipped", kind=spec.kind, reason="worker-not-alive")
                return
            index = spec.index
        elif alive:
            index = self.rng.choice(alive)
        else:
            self.emit("fault.skipped", kind=spec.kind, reason="no-alive-worker")
            return
        self.kernel.kill(threads[index])
        if workers is not None:
            worker = workers[index]
            worker.crashed = True
            worker.quarantined = True
        backend = self.enclave.backend
        stats = getattr(backend, "stats", None)
        if stats is not None and hasattr(stats, "record_worker_crash"):
            stats.record_worker_crash()
        respawn_after = (
            self._cycles(spec.respawn_after_ms)
            if spec.respawn_after_ms is not None
            else None
        )
        self.emit(
            "fault.worker.crash",
            target=target,
            worker=index,
            respawn_after_cycles=respawn_after,
        )
        if respawn_after is not None:
            respawn = partial(self._respawn, target, index)
            self._timers.append(self.kernel.call_later(respawn_after, respawn))

    def _respawn(self, target: str, index: int) -> None:
        assert self.enclave is not None
        backend = self.enclave.backend
        respawn = getattr(backend, "respawn_worker", None)
        ok = bool(respawn(index, target)) if respawn is not None else False
        if ok:
            self.emit("fault.worker.respawn", target=target, worker=index)
        else:
            self.emit("fault.worker.respawn.skipped", target=target, worker=index)

    def _apply_stall(self, spec: FaultSpec) -> None:
        target, indices = self._target_indices(spec)
        if target is None or not indices:
            self.emit("fault.skipped", kind=spec.kind, reason="no-matching-worker")
            return
        stall = self._cycles(spec.duration_ms)
        for index in indices:
            key = (target, index)
            self._stalls[key] = self._stalls.get(key, 0.0) + stall
            self.emit("fault.worker.stall", target=target, worker=index, cycles=stall)

    def _apply_slowdown(self, spec: FaultSpec) -> None:
        assert self.kernel is not None
        target, indices = self._target_indices(spec)
        if target is None or not indices:
            self.emit("fault.skipped", kind=spec.kind, reason="no-matching-worker")
            return
        until = self.kernel.now + self._cycles(spec.duration_ms)
        for index in indices:
            self._slowdowns[(target, index)] = (spec.factor, until)
            self.emit(
                "fault.worker.slowdown",
                target=target,
                worker=index,
                factor=spec.factor,
                until_cycles=until,
            )

    def _apply_enclave_lost(self, spec: FaultSpec) -> None:
        assert self.enclave is not None
        enclave = self.enclave
        enclave.lost = True
        self.emit(
            "fault.enclave.lost", enclave=enclave.name, generation=enclave.generation
        )

    def _apply_epc_pressure(self, spec: FaultSpec) -> None:
        assert self.kernel is not None and self.enclave is not None
        if self._base_cost is not None:
            # An earlier pressure window is still active; overlapping
            # windows would make the restore ambiguous.
            self.emit("fault.skipped", kind=spec.kind, reason="epc-window-active")
            return
        enclave = self.enclave
        self._base_cost = enclave.cost
        enclave.cost = enclave.cost.with_transition_factor(spec.factor)
        until = self.kernel.now + self._cycles(spec.duration_ms)
        self._timers.append(self.kernel.call_at(until, self._end_epc_pressure))
        self.emit(
            "fault.epc.start", factor=spec.factor, until_cycles=until
        )

    def _end_epc_pressure(self) -> None:
        assert self.enclave is not None
        if self._base_cost is None:
            return
        self.enclave.cost = self._base_cost
        self._base_cost = None
        self.emit("fault.epc.end")

    def _apply_handoff(self, spec: FaultSpec) -> None:
        assert self.kernel is not None
        self._handoff = {
            "until": self.kernel.now + self._cycles(spec.duration_ms),
            "drop_p": spec.drop_probability,
            "delay": self._cycles(spec.delay_ms),
            "redeliver": self._cycles(spec.redelivery_ms),
        }
        self.emit(
            "fault.handoff.start",
            drop_probability=spec.drop_probability,
            delay_cycles=self._handoff["delay"],
            until_cycles=self._handoff["until"],
        )

    def _apply_clock_skew(self, spec: FaultSpec) -> None:
        assert self.kernel is not None
        until = self.kernel.now + self._cycles(spec.duration_ms)
        self._skew = (spec.factor, until)
        self.emit("fault.clock.skew", factor=spec.factor, until_cycles=until)
