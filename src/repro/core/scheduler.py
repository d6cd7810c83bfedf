"""The ZC-SWITCHLESS scheduler (§IV-A).

The scheduler's objective is to minimise wasted CPU cycles, where the
waste over a window of ``T`` cycles with ``M`` active workers and ``F``
fallback calls is::

    U = F * T_es + M * T

It alternates two phases forever (Fig. 5):

- **configuration phase** — ``N/2 + 1`` micro-quanta of ``µ·Q`` each,
  running with ``i = 0 .. N/2`` active workers, recording the fallback
  count ``F_i`` of each probe and computing ``U_i = F_i·T_es + i·µ·Q``;
- **scheduling phase** — one quantum ``Q`` with the argmin worker count
  ``M'``.

The scheduler thread itself sleeps through the phases (it costs almost
nothing); workers are deactivated by setting the pause flag in their
buffer and reactivated with a wake signal, exactly as §IV-A describes.

Two worker-cost accountings are supported (see
:class:`repro.core.config.SchedulerPolicy`): the paper's verbatim
``i · µ · Q`` term, and the default ``IDLE_WASTE`` variant that prices a
probe's workers by their *measured* busy-wait cycles — which is what
reproduces the worker-count histograms the paper reports.

Each decision is recorded once, as a ``zc.sched.decision`` event on the
kernel's bus (with the probe utilities ``[U_0..U_k]`` and the chosen
``M'``); each probe as a ``zc.sched.probe`` event.  With no bus attached
the scheduler keeps no log.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.config import SchedulerPolicy, ZcConfig
from repro.sim.instructions import Compute, Sleep
from repro.sim.kernel import Program

if TYPE_CHECKING:
    from repro.core.backend import ZcSwitchlessBackend


def wasted_cycles(fallbacks: int, t_es: float, workers: int, window_cycles: float) -> float:
    """The paper's wasted-cycle estimate ``U = F·T_es + M·T`` (§IV-A)."""
    if fallbacks < 0 or workers < 0 or window_cycles < 0:
        raise ValueError("arguments must be non-negative")
    return fallbacks * t_es + workers * window_cycles


class ZcScheduler:
    """Feedback-loop controller of the active worker count."""

    def __init__(self, backend: "ZcSwitchlessBackend", config: ZcConfig) -> None:
        self.backend = backend
        self.config = config
        self._stop = False

    def stop(self) -> None:
        """Request shutdown of this component's threads."""
        self._stop = True

    def probe_counts(self) -> list[int]:
        """Worker counts probed each configuration phase: 0..N/2, capped
        by the pool size actually created."""
        spec = self.backend.kernel.spec
        top = min(spec.n_logical // 2, len(self.backend.workers))
        return list(range(top + 1))

    def run(self) -> Program:
        """Simulated program of the scheduler thread."""
        backend = self.backend
        kernel = backend.kernel
        config = self.config
        t_es = backend.enclave.cost.t_es
        quantum = config.quantum_cycles(kernel.spec)
        micro = config.micro_quantum_cycles(kernel.spec)

        def window(cycles: float) -> float:
            # Accounting windows stretch under an injected clock skew
            # (kernel.faults is None on healthy runs — no change).
            faults = kernel.faults
            return cycles if faults is None else faults.scaled_window(cycles)

        # Initial scheduling phase with the configured worker count (N/2).
        backend.set_active_workers(backend.initial_workers)
        yield Sleep(window(quantum))

        use_idle_waste = self.config.policy is SchedulerPolicy.IDLE_WASTE
        while not self._stop:
            # ---- configuration phase: probe every candidate count ----
            best_u = float("inf")
            best_m = 0
            utilities: list[float] = []
            for i in self.probe_counts():
                if self._stop:
                    return
                backend.set_active_workers(i)
                fallbacks_before = backend.stats.fallback_count
                spin_before = backend.worker_idle_spin_cycles() if use_idle_waste else 0.0
                yield Sleep(window(micro))
                f_i = backend.stats.fallback_count - fallbacks_before
                if use_idle_waste:
                    idle = backend.worker_idle_spin_cycles() - spin_before
                    u_i = f_i * t_es + idle
                else:
                    u_i = wasted_cycles(f_i, t_es, i, micro)
                utilities.append(u_i)
                bus = kernel.bus
                if bus is not None:
                    # source disambiguates schedulers when several enclaves
                    # share one kernel (repro.serve shards).
                    # tenant/request_id are always present on traced
                    # events (empty here: the scheduler acts per enclave,
                    # not per request) so JSONL span replay can treat the
                    # fields as total across every zc.*/serve.* stream.
                    bus.emit(
                        "zc.sched.probe",
                        workers=i,
                        fallbacks=f_i,
                        u_cycles=u_i,
                        source=backend.enclave.name,
                        tenant="",
                        request_id="",
                    )
                if u_i < best_u:
                    best_u = u_i
                    best_m = i
            # ---- decision + scheduling phase ----
            yield Compute(config.decision_cycles, tag="zc-sched-decide")
            backend.set_active_workers(best_m)
            backend.stats.scheduler_decisions += 1
            bus = kernel.bus
            if bus is not None:
                bus.emit(
                    "zc.sched.decision",
                    utilities=utilities,
                    chosen=best_m,
                    source=backend.enclave.name,
                    tenant="",
                    request_id="",
                )
            yield Sleep(window(quantum))
