"""The ZC-SWITCHLESS call backend (§IV).

The caller-side protocol for *every* ocall (there is no static selection):

1. Scan the worker pool for an ``UNUSED`` worker and claim it with an
   atomic ``UNUSED → RESERVED`` transition.
2. No idle worker?  Fall back to a regular ocall **immediately** — zero
   busy-waiting, the key difference from the Intel SDK's
   ``retries_before_fallback`` pause loop (§IV-C).
3. Allocate the request frame from the worker's preallocated untrusted
   memory pool; if the pool is full, free + reallocate it via a regular
   ocall first (§IV-B).
4. Publish the request (``RESERVED → PROCESSING``), busy-wait for
   ``WAITING``, copy results, release the worker (``→ UNUSED``).

Installing the backend also swaps the enclave's tlibc ``memcpy`` for the
optimised ``rep movsb`` version (§IV-F) and spawns the scheduler thread.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.config import ZcConfig
from repro.core.scheduler import ZcScheduler
from repro.core.stats import ZcStats
from repro.core.worker import WorkerStatus, ZcWorker
from repro.sgx.backend import CallBackend
from repro.sgx.memcpy import ZcMemcpy
from repro.sim.instructions import Compute, Spin
from repro.sim.kernel import Kernel, Program, SimThread, ThreadState

if TYPE_CHECKING:
    from repro.serve.budget import WorkerBudgetArbiter
    from repro.sgx.enclave import Enclave, OcallRequest

#: Ocall name registered for memory-pool reallocation.
POOL_REALLOC_OCALL = "zc_pool_realloc"


class ZcSwitchlessBackend(CallBackend):
    """Configless switchless calls driven by the wasted-cycle scheduler."""

    name = "zc-switchless"

    def __init__(self, config: ZcConfig | None = None) -> None:
        self.config = config if config is not None else ZcConfig()
        self.stats = ZcStats()
        self.workers: list[ZcWorker] = []
        self.worker_threads: list[SimThread] = []
        #: Threads of crashed-and-respawned workers; kept so cumulative
        #: spin accounting (worker_idle_spin_cycles) stays monotonic.
        self.retired_threads: list[SimThread] = []
        self.scheduler: ZcScheduler | None = None
        self.scheduler_thread: SimThread | None = None
        self._enclave: "Enclave | None" = None
        self._active_count = 0
        self.initial_workers = 0
        #: Optional cross-enclave worker-budget arbiter (duck-typed:
        #: ``grant(backend, count) -> int`` / ``release(backend)``).  Set
        #: by :class:`repro.serve.budget.WorkerBudgetArbiter` so the
        #: per-shard schedulers' ``argmin U_i`` sweeps respect a global
        #: core cap; None (the default) leaves this backend uncapped.
        self.arbiter: "WorkerBudgetArbiter | None" = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def kernel(self) -> Kernel:
        """The simulation kernel this component is attached to."""
        enclave = self._enclave
        if enclave is None:
            raise RuntimeError("backend not attached to an enclave")
        return enclave.kernel

    @property
    def enclave(self) -> "Enclave":
        """The enclave this component is attached to."""
        if self._enclave is None:
            raise RuntimeError("backend not attached to an enclave")
        return self._enclave

    def attach(self, enclave: "Enclave") -> None:
        """Install this backend on ``enclave`` (spawns its threads)."""
        self._enclave = enclave
        kernel = enclave.kernel
        if self.config.use_zc_memcpy:
            enclave.memcpy_model = ZcMemcpy()
        enclave.urts.register(POOL_REALLOC_OCALL, self._pool_realloc_handler)

        cap = self.config.worker_cap(kernel.spec)
        self.initial_workers = self.config.initial_worker_count(kernel.spec)
        active = self.initial_workers
        if self.arbiter is not None:
            # The global worker budget applies from the first worker on,
            # not only once the scheduler starts sweeping.
            active = self.arbiter.grant(self, active)
        for i in range(cap):
            worker = ZcWorker(kernel, i, self.config)
            if i >= active:
                worker.pause_requested = True
            self.workers.append(worker)
            affinity = (
                frozenset(self.config.worker_affinity)
                if self.config.worker_affinity is not None
                else None
            )
            thread = kernel.spawn(
                worker.run(enclave),
                name=f"zc-worker-{i}",
                kind="zc-worker",
                daemon=True,
                affinity=affinity,
            )
            self.worker_threads.append(thread)
        self._active_count = active
        self.stats.record_worker_count(kernel.now, active)
        if kernel.bus is not None:
            kernel.bus.emit("zc.workers", count=active)

        if self.config.enable_scheduler:
            self.scheduler = ZcScheduler(self, self.config)
            self.scheduler_thread = kernel.spawn(
                self.scheduler.run(),
                name="zc-scheduler",
                kind="zc-scheduler",
                daemon=True,
            )

    def stop(self) -> None:
        """Program termination (§IV-B): flag workers to EXIT, stop the
        scheduler."""
        if self.scheduler is not None:
            self.scheduler.stop()
        for worker in self.workers:
            worker.request_exit()
        if self.arbiter is not None:
            self.arbiter.release(self)

    # ------------------------------------------------------------------
    # Scheduler interface
    # ------------------------------------------------------------------
    def set_active_workers(self, count: int) -> None:
        """(Scheduler) keep the first ``count`` healthy workers active,
        pause the rest.  Reserved/processing workers pause once released.

        Quarantined slots (crashed or abandoned under fault injection —
        never on healthy runs) are excluded from the sweep entirely: the
        scheduler's ``argmin U_i`` decision must never activate a dead
        worker.

        With a cross-enclave arbiter installed, the requested count is
        first clipped to this backend's share of the global worker
        budget, so co-located shards can never spin up more workers in
        aggregate than the cap allows.
        """
        if self.arbiter is not None:
            count = self.arbiter.grant(self, count)
        workers = self.workers
        if any(worker.quarantined for worker in workers):
            workers = [worker for worker in workers if not worker.quarantined]
        count = max(0, min(count, len(workers)))
        for worker in workers[:count]:
            if worker.pause_requested or worker.is_paused:
                worker.request_unpause()
        for worker in workers[count:]:
            if not worker.pause_requested:
                worker.request_pause()
        if count != self._active_count:
            self._active_count = count
            self.stats.record_worker_count(self.kernel.now, count)
            bus = self.kernel.bus
            if bus is not None:
                bus.emit("zc.workers", count=count)

    @property
    def active_worker_target(self) -> int:
        """Worker count most recently requested by the scheduler."""
        return self._active_count

    def worker_idle_spin_cycles(self) -> float:
        """Cumulative busy-wait cycles across all worker threads.

        Workers only ever spin while *idle* (request execution is compute),
        so this is exactly the wasted-worker-cycle measure the IDLE_WASTE
        scheduler policy prices.  In-flight spins are read, not credited
        (:meth:`Kernel.spin_cycles`): a probe touches no other core.
        """
        total = self.kernel.spin_cycles(self.worker_threads)
        if self.retired_threads:
            total += sum(t.cycles_spin for t in self.retired_threads)
        return total

    # ------------------------------------------------------------------
    # Fault supervision (active only while a fault injector is attached)
    # ------------------------------------------------------------------
    def respawn_worker(self, index: int, target: str | None = None) -> bool:
        """Supervise a crashed worker slot back to life.

        Spawns a fresh thread running the same :class:`ZcWorker` state
        machine; the new thread's rejoin branch resets the slot.  Returns
        False (and leaves the slot quarantined) when the respawn is moot:
        the runtime is shutting down or the old thread is still alive.
        """
        if target is None:
            target = "zc-worker"
        if target != "zc-worker" or not 0 <= index < len(self.workers):
            return False
        worker = self.workers[index]
        if worker.exit_requested:
            return False
        old = self.worker_threads[index]
        if old.state is not ThreadState.DONE:
            return False
        self.retired_threads.append(old)
        worker.generation += 1
        affinity = (
            frozenset(self.config.worker_affinity)
            if self.config.worker_affinity is not None
            else None
        )
        thread = self.kernel.spawn(
            worker.run(self.enclave),
            name=f"zc-worker-{index}-g{worker.generation}",
            kind="zc-worker",
            daemon=True,
            affinity=affinity,
        )
        self.worker_threads[index] = thread
        self.stats.record_worker_respawn()
        return True

    # ------------------------------------------------------------------
    # Call path
    # ------------------------------------------------------------------
    def invoke(self, request: "OcallRequest") -> Program:
        """Execute one call request (simulated program on the caller thread)."""
        enclave = self.enclave
        cost = enclave.cost
        bus = enclave.kernel.bus
        worker = self._find_unused()
        if worker is None:
            # §IV-C: immediate fallback, no busy-waiting at all.  The
            # event carries the cycles elapsed since backend dispatch so
            # the invariant auditor can prove "no busy-waiting": this
            # path runs without a single yield, so the difference is 0.
            self.stats.record_fallback()
            if bus is not None:
                bus.emit(
                    "zc.fallback",
                    name=request.name,
                    waited_cycles=enclave.kernel.now - request.dispatched_at,
                )
            result = yield from self._regular(request)
            request.mode = "fallback"
            return result

        reserved = worker.try_reserve()
        assert reserved, "scan returned a worker that was not UNUSED"
        yield Compute(cost.switchless_dispatch_cycles, tag="zc-dispatch")

        # Allocate the request frame from the worker's untrusted pool.
        frame_bytes = self.config.request_header_bytes + request.in_bytes + request.out_bytes
        if not worker.pool.try_alloc(frame_bytes):
            # Pool exhausted: free + reallocate it via a regular ocall.
            yield from enclave.regular_ocall(POOL_REALLOC_OCALL, worker.index)
            worker.pool.reset()
            self.stats.record_pool_realloc()
            if bus is not None:
                bus.emit("zc.pool_realloc", worker=worker.index, frame_bytes=frame_bytes)
            allocated = worker.pool.try_alloc(frame_bytes)
            assert allocated, "fresh pool rejected an allocation"

        worker.request = request
        worker.set_status(WorkerStatus.PROCESSING)

        # Busy-wait for the worker to publish results (WAITING).  While a
        # fault injector is attached the wait is bounded: a worker that
        # crashed or stalled past the timeout gets its slot quarantined
        # and the call completes via a regular-transition fallback (the
        # graceful-degradation path; at-least-once execution for the
        # abandoned request).  Healthy runs never time out, so the loop
        # is byte-identical to the fault-free build.
        generation = worker.generation
        waited = 0.0
        give_up = False
        while True:
            if worker.generation != generation:
                # The worker crashed and its slot was respawned while we
                # waited: the rejoin reset our request, and any WAITING we
                # observe now belongs to a later caller.  Abandon the slot
                # (it is healthy again — no quarantine) and recover.
                give_up = True
            elif worker.status is WorkerStatus.WAITING:
                break
            if give_up:
                faults = enclave.kernel.faults
                self.stats.record_timeout_recovery()
                # Counts as a fallback for the scheduler's F_i measurement
                # — the call did pay a full transition in the end.  No
                # ``zc.fallback`` event though: that event asserts the
                # §IV-C *immediate* (zero-wait) fallback invariant, which
                # this recovery path intentionally does not satisfy; it
                # emits ``fault.caller.timeout`` instead.
                self.stats.record_fallback()
                if faults is not None:
                    faults.emit(
                        "fault.caller.timeout",
                        name=request.name,
                        worker=worker.index,
                        waited_cycles=waited,
                    )
                result = yield from self._regular(request)
                request.mode = "fallback"
                return result
            yield Spin(
                worker.status_gate.wait_value(WorkerStatus.WAITING),
                self.config.completion_spin_chunk_cycles,
                tag="zc-wait-done",
            )
            faults = enclave.kernel.faults
            if faults is None:
                continue
            waited += self.config.completion_spin_chunk_cycles
            if waited < faults.caller_timeout_cycles(self.config.request_timeout_cycles):
                continue
            # Timed out: the worker crashed (without supervision) or is
            # stalled past the deadline.  Quarantine the slot — the caller
            # scan and scheduler sweep skip it, and the worker thread (if
            # alive, or once respawned) rejoins by resetting it.
            if worker.request is request:
                worker.quarantined = True
            give_up = True
        result = worker.result
        worker.request = None
        worker.set_status(WorkerStatus.UNUSED)
        # No per-success emit: ``ocall.complete`` (published by the enclave)
        # already carries mode="switchless"; only exceptional paths
        # (fallback, pool realloc) are bus events.
        self.stats.record_switchless()
        request.mode = "switchless"
        return result

    def _find_unused(self) -> ZcWorker | None:
        """Scan for an idle worker (lowest index first, deterministic).

        Quarantined slots are skipped: a worker crashed while UNUSED
        still *looks* idle, but reserving it would strand the caller.
        """
        for worker in self.workers:
            if (
                worker.status is WorkerStatus.UNUSED
                and not worker.pause_requested
                and not worker.quarantined
            ):
                return worker
        return None

    def _regular(self, request: "OcallRequest") -> Program:
        enclave = self.enclave
        cost = enclave.cost
        yield Compute(cost.eexit_cycles, tag="eexit")
        result = yield from enclave.urts.execute(request)
        yield Compute(cost.eenter_cycles, tag="eenter")
        return result

    def _pool_realloc_handler(self, worker_index: int) -> Program:
        """Host side of the pool reallocation ocall (free + malloc)."""
        enclave = self.enclave
        yield Compute(enclave.cost.pool_realloc_host_cycles, tag="zc-pool-realloc")
        return None
