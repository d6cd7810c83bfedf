"""ZC-SWITCHLESS for ecalls: configless switchless enclave entry.

§IV-D argues the design is direction- and TEE-agnostic; this module makes
it concrete for ecalls.  Untrusted application threads invoke named
trusted functions; *trusted* worker threads inside the enclave serve them
through the same worker state machine (:class:`repro.core.worker.ZcWorker`
with the trusted runtime as executor), driven by the same wasted-cycle
scheduler.

Two asymmetries versus the ocall backend:

- request frames live in *enclave* memory, so pool exhaustion is repaired
  by an in-enclave reallocation (cheap), not a reallocation ocall;
- the fallback path is a regular ecall (EENTER + handler + EEXIT).

Install with ``ZcEcallRuntime(config).attach(enclave)``; the enclave's
``ecall_named`` then routes through it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.config import ZcConfig
from repro.core.scheduler import ZcScheduler
from repro.core.stats import ZcStats
from repro.core.worker import WorkerStatus, ZcWorker
from repro.sim.instructions import Compute, Spin
from repro.sim.kernel import Kernel, Program, SimThread

if TYPE_CHECKING:
    from repro.sgx.enclave import Enclave, OcallRequest

#: In-enclave cost of recycling a trusted request pool (malloc/free only;
#: no boundary crossing, unlike the ocall side's reallocation ocall).
_TRUSTED_POOL_RECYCLE_CYCLES = 2_000.0


class ZcEcallRuntime:
    """Configless switchless ecalls with adaptive trusted workers.

    Exposes the same surface the :class:`repro.core.scheduler.ZcScheduler`
    drives (``workers``, ``stats``, ``set_active_workers``,
    ``worker_idle_spin_cycles``), so the scheduler is reused unchanged.
    """

    name = "zc-ecalls"

    def __init__(self, config: ZcConfig | None = None) -> None:
        self.config = config if config is not None else ZcConfig()
        self.stats = ZcStats()
        self.workers: list[ZcWorker] = []
        self.worker_threads: list[SimThread] = []
        self.scheduler: ZcScheduler | None = None
        self.scheduler_thread: SimThread | None = None
        self._enclave: "Enclave | None" = None
        self._active_count = 0
        self.initial_workers = 0

    # ------------------------------------------------------------------
    # Scheduler-facing surface (mirrors ZcSwitchlessBackend)
    # ------------------------------------------------------------------
    @property
    def kernel(self) -> Kernel:
        """The simulation kernel this component is attached to."""
        if self._enclave is None:
            raise RuntimeError("runtime not attached to an enclave")
        return self._enclave.kernel

    @property
    def enclave(self) -> "Enclave":
        """The enclave this component is attached to."""
        if self._enclave is None:
            raise RuntimeError("runtime not attached to an enclave")
        return self._enclave

    def attach(self, enclave: "Enclave") -> "ZcEcallRuntime":
        """Install this backend on ``enclave`` (spawns its threads)."""
        self._enclave = enclave
        kernel = enclave.kernel
        cap = self.config.worker_cap(kernel.spec)
        self.initial_workers = self.config.initial_worker_count(kernel.spec)
        for i in range(cap):
            worker = ZcWorker(kernel, i, self.config)
            if i >= self.initial_workers:
                worker.pause_requested = True
            self.workers.append(worker)
            thread = kernel.spawn(
                worker.run(enclave, executor=enclave.trts.execute),
                name=f"zc-tworker-{i}",
                kind="zc-tworker",
                daemon=True,
            )
            self.worker_threads.append(thread)
        self._active_count = self.initial_workers
        self.stats.record_worker_count(kernel.now, self.initial_workers)
        if self.config.enable_scheduler:
            self.scheduler = ZcScheduler(self, self.config)
            self.scheduler_thread = kernel.spawn(
                self.scheduler.run(),
                name="zc-ecall-scheduler",
                kind="zc-scheduler",
                daemon=True,
            )
        enclave.ecall_dispatcher = self
        return self

    def stop(self) -> None:
        """Request shutdown of this component's threads."""
        if self.scheduler is not None:
            self.scheduler.stop()
        for worker in self.workers:
            worker.request_exit()

    def set_active_workers(self, count: int) -> None:
        """Keep the first ``count`` workers active; pause the rest."""
        count = max(0, min(count, len(self.workers)))
        for worker in self.workers[:count]:
            if worker.pause_requested or worker.is_paused:
                worker.request_unpause()
        for worker in self.workers[count:]:
            if not worker.pause_requested:
                worker.request_pause()
        if count != self._active_count:
            self._active_count = count
            self.stats.record_worker_count(self.kernel.now, count)

    @property
    def active_worker_target(self) -> int:
        """Worker count most recently requested by the scheduler."""
        return self._active_count

    def worker_idle_spin_cycles(self) -> float:
        """Cumulative busy-wait cycles across this runtime's workers."""
        return self.kernel.spin_cycles(self.worker_threads)

    # ------------------------------------------------------------------
    # Call path
    # ------------------------------------------------------------------
    def invoke_ecall(self, request: "OcallRequest") -> Program:
        """Execute one ecall request (simulated program on the caller thread)."""
        enclave = self.enclave
        cost = enclave.cost
        bus = enclave.kernel.bus
        worker = self._find_unused()
        if worker is None:
            self.stats.record_fallback()
            if bus is not None:
                bus.emit(
                    "zc.fallback",
                    name=request.name,
                    path="ecall",
                    waited_cycles=enclave.kernel.now - request.dispatched_at,
                )
            result = yield from self._regular_ecall(request)
            request.mode = "fallback"
            return result

        reserved = worker.try_reserve()
        assert reserved, "scan returned a worker that was not UNUSED"
        yield Compute(cost.switchless_dispatch_cycles, tag="zc-ecall-dispatch")
        frame_bytes = (
            self.config.request_header_bytes + request.in_bytes + request.out_bytes
        )
        if not worker.pool.try_alloc(frame_bytes):
            # Trusted pool: recycled in-enclave, no boundary crossing.
            yield Compute(_TRUSTED_POOL_RECYCLE_CYCLES, tag="zc-ecall-pool")
            worker.pool.reset()
            self.stats.record_pool_realloc()
            allocated = worker.pool.try_alloc(frame_bytes)
            assert allocated, "fresh pool rejected an allocation"

        worker.request = request
        worker.set_status(WorkerStatus.PROCESSING)
        while worker.status is not WorkerStatus.WAITING:
            yield Spin(
                worker.status_gate.wait_value(WorkerStatus.WAITING),
                self.config.completion_spin_chunk_cycles,
                tag="zc-ecall-wait",
            )
        result = worker.result
        worker.request = None
        worker.set_status(WorkerStatus.UNUSED)
        self.stats.record_switchless()
        request.mode = "switchless"
        return result

    def _find_unused(self) -> ZcWorker | None:
        for worker in self.workers:
            if worker.status is WorkerStatus.UNUSED and not worker.pause_requested:
                return worker
        return None

    def _regular_ecall(self, request: "OcallRequest") -> Program:
        enclave = self.enclave
        cost = enclave.cost
        yield Compute(cost.ecall_entry_cycles, tag="eenter")
        result = yield from enclave.trts.execute(request)
        yield Compute(cost.ecall_exit_cycles, tag="eexit")
        return result
