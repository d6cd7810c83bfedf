"""The enclave object and the ocall invocation path.

``Enclave.ocall`` is the single entry point the applications use.  It
models what the trusted runtime does on every ocall irrespective of the
execution backend:

1. edger8r bookkeeping (argument frame setup);
2. marshalling the input buffer from trusted to untrusted memory with the
   enclave's tlibc ``memcpy`` (this is where the vanilla-vs-zc memcpy
   difference enters every call);
3. dispatch through the installed :class:`repro.sgx.backend.CallBackend`;
4. marshalling the results back into trusted memory.

Per-call statistics (counts by execution mode, latency sums) are recorded
in :class:`CallStats`, which the experiments and the ZC scheduler's
fallback accounting read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.sgx.backend import CallBackend, RegularBackend
from repro.sgx.costmodel import SgxCostModel
from repro.sgx.epc import EpcModel
from repro.sgx.memcpy import MemcpyModel, VanillaMemcpy
from repro.sgx.trts import TrustedRuntime
from repro.sgx.urts import HostFault, UntrustedRuntime
from repro.sim.instructions import Compute
from repro.sim.kernel import Kernel, Program


class EnclaveLostError(RuntimeError):
    """The enclave aborted (``SGX_ERROR_ENCLAVE_LOST``) and could not be
    recovered.

    Raised by enclave entry points when the enclave is marked lost and
    either no recovery manager is installed or recovery exhausted its
    retry budget.  Mirrors the SDK contract: on ``SGX_ERROR_ENCLAVE_LOST``
    the application must destroy and re-create the enclave before any
    further ecall/ocall can succeed.
    """

    #: The SDK status code this models.
    sgx_status = "SGX_ERROR_ENCLAVE_LOST"


@dataclass
class OcallRequest:
    """One marshalled ocall crossing the enclave boundary.

    Attributes:
        name: Registered ocall name (e.g. ``"fwrite"``).
        args: Positional arguments passed to the host handler (real
            payloads — the applications move actual bytes).
        in_bytes / out_bytes: Sizes of the marshalled input and output
            buffers (price of the memcpy each way).
        aligned: Whether source and destination buffers are congruent
            modulo 8 (drives the tlibc memcpy cost).
        issued_at: Simulated cycle at which the caller issued the call.
        dispatched_at: Simulated cycle at which the call reached its
            backend (after setup and input marshalling).  The zc backend
            stamps its ``zc.fallback`` events with ``now - dispatched_at``
            — the paper's immediate-fallback invariant (§IV-C) says that
            difference is exactly zero, and the invariant auditor checks
            it.
        mode: How the call was eventually executed; set by the backend to
            ``"regular"``, ``"switchless"`` or ``"fallback"``.
        host_cycles: Simulated cycles the host handler took in isolation;
            written by :class:`repro.profiler.tracer.CallTracer` when one
            is installed, 0.0 otherwise.
    """

    name: str
    args: tuple[Any, ...] = ()
    in_bytes: int = 0
    out_bytes: int = 0
    aligned: bool = True
    issued_at: float = 0.0
    dispatched_at: float = 0.0
    mode: str = "unset"
    host_cycles: float = 0.0


@dataclass
class CallSiteStats:
    """Aggregated statistics for one ocall name."""

    calls: int = 0
    regular: int = 0
    switchless: int = 0
    fallback: int = 0
    total_latency_cycles: float = 0.0
    max_latency_cycles: float = 0.0

    @property
    def mean_latency_cycles(self) -> float:
        """Mean latency across the site's calls."""
        return self.total_latency_cycles / self.calls if self.calls else 0.0


class CallStats:
    """Per-ocall-name statistics for one enclave."""

    def __init__(self) -> None:
        self.by_name: dict[str, CallSiteStats] = {}

    def record(self, request: OcallRequest, completed_at: float) -> None:
        """Record one sample/event."""
        site = self.by_name.setdefault(request.name, CallSiteStats())
        site.calls += 1
        latency = completed_at - request.issued_at
        site.total_latency_cycles += latency
        site.max_latency_cycles = max(site.max_latency_cycles, latency)
        if request.mode == "regular":
            site.regular += 1
        elif request.mode == "switchless":
            site.switchless += 1
        elif request.mode == "fallback":
            site.fallback += 1
        else:
            raise ValueError(f"backend left request mode unset: {request!r}")

    @property
    def total_calls(self) -> int:
        """Total calls recorded."""
        return sum(site.calls for site in self.by_name.values())

    @property
    def total_switchless(self) -> int:
        """Calls executed switchlessly."""
        return sum(site.switchless for site in self.by_name.values())

    @property
    def total_fallback(self) -> int:
        """Calls that fell back to a regular transition."""
        return sum(site.fallback for site in self.by_name.values())

    @property
    def total_regular(self) -> int:
        """Calls that always transitioned."""
        return sum(site.regular for site in self.by_name.values())

    def switchless_fraction(self) -> float:
        """Fraction of all ocalls that executed without a transition."""
        total = self.total_calls
        return self.total_switchless / total if total else 0.0

    def summary(self) -> dict[str, dict[str, float]]:
        """Plain-dict summary suitable for experiment reports."""
        return {
            name: {
                "calls": site.calls,
                "regular": site.regular,
                "switchless": site.switchless,
                "fallback": site.fallback,
                "mean_latency_cycles": site.mean_latency_cycles,
            }
            for name, site in sorted(self.by_name.items())
        }


class Enclave:
    """One SGX enclave instance bound to a kernel and an untrusted runtime.

    Args:
        kernel: The simulation kernel the enclave's threads run on.
        urts: Host-side dispatch table for ocalls.
        cost: SGX cycle-cost constants.
        memcpy_model: The tlibc memcpy used for ocall marshalling; Intel's
            :class:`VanillaMemcpy` by default, replaced with
            :class:`repro.sgx.memcpy.ZcMemcpy` by the ZC runtime.
        epc: Optional EPC bookkeeping shared across enclaves.
        heap_bytes: Reserved enclave heap (the paper configures 1 GB max
            heap; the evaluation apps use far less).
    """

    def __init__(
        self,
        kernel: Kernel,
        urts: UntrustedRuntime,
        cost: SgxCostModel | None = None,
        memcpy_model: MemcpyModel | None = None,
        epc: EpcModel | None = None,
        heap_bytes: int = 8 * 1024 * 1024,
        name: str = "enclave",
    ) -> None:
        self.kernel = kernel
        self.urts = urts
        self.cost = cost if cost is not None else SgxCostModel()
        self.memcpy_model: MemcpyModel = (
            memcpy_model if memcpy_model is not None else VanillaMemcpy()
        )
        self.epc = epc if epc is not None else EpcModel()
        self.heap_bytes = heap_bytes
        self.name = name
        self.stats = CallStats()
        #: Ecall surface: trusted handler table, its own statistics, and
        #: an optional switchless dispatcher (Intel trusted workers or
        #: :class:`repro.core.ecalls.ZcEcallRuntime`).
        self.trts = TrustedRuntime()
        self.ecall_stats = CallStats()
        self.ecall_dispatcher: Any = None
        #: Called as ``hook(request, completed_at_cycles)`` after every
        #: ocall completes; used by the profiler's CallTracer.
        self.completion_hooks: list[Any] = []
        self.backend: CallBackend = RegularBackend()
        self.backend.open(self)
        self._epc_penalty_cycles = self.epc.allocate(name, heap_bytes)
        #: True after an SGX_ERROR_ENCLAVE_LOST-style abort: every entry
        #: point first runs recovery (or raises EnclaveLostError if no
        #: recovery manager is installed).  Set by the fault injector.
        self.lost = False
        #: Incremented on each successful re-creation after loss.
        self.generation = 0
        #: Optional :class:`repro.faults.recovery.EnclaveRecovery`; its
        #: ``recover()`` program re-creates the enclave with capped
        #: exponential backoff.  Installed by the fault injector.
        self.recovery: Any = None

    def _recover_lost(self) -> Program:
        """Bring a lost enclave back before an entry point proceeds.

        With no recovery manager installed, a lost enclave is fatal —
        exactly the SDK's contract for ``SGX_ERROR_ENCLAVE_LOST`` when the
        application has no re-create logic.
        """
        if self.recovery is None:
            raise EnclaveLostError(
                f"enclave {self.name!r} is lost and has no recovery manager"
            )
        yield from self.recovery.recover()
        return None

    def set_backend(self, backend: CallBackend) -> None:
        """Install a call-execution backend (regular, Intel, or ZC).

        Replacing an installed backend stops its worker threads first, so
        swapping backends mid-experiment never leaks spinning workers.
        Re-installing the currently-installed backend is a no-op.
        """
        if backend is self.backend:
            return
        self.backend.close()
        self.backend = backend
        backend.open(self)

    # ------------------------------------------------------------------
    # Call paths (simulated programs)
    # ------------------------------------------------------------------
    def ocall(
        self,
        name: str,
        *args: Any,
        in_bytes: int = 0,
        out_bytes: int = 0,
        aligned: bool = True,
    ) -> Program:
        """Issue one ocall from the calling enclave thread.

        Yields the simulated work of marshalling, backend dispatch and
        unmarshalling; returns the host handler's result.
        """
        request = OcallRequest(
            name=name,
            args=args,
            in_bytes=in_bytes,
            out_bytes=out_bytes,
            aligned=aligned,
            issued_at=self.kernel.now,
        )
        if self.lost:
            yield from self._recover_lost()
        yield Compute(self.cost.ocall_bookkeeping_cycles, tag="ocall-setup")
        if in_bytes:
            yield Compute(
                self.memcpy_model.cycles(in_bytes, aligned), tag="marshal-in"
            )
        request.dispatched_at = self.kernel.now
        result = yield from self.backend.invoke(request)
        if out_bytes:
            yield Compute(
                self.memcpy_model.cycles(out_bytes, aligned), tag="marshal-out"
            )
        self.stats.record(request, self.kernel.now)
        for hook in self.completion_hooks:
            hook(request, self.kernel.now)
        if isinstance(result, HostFault):
            raise result.exception
        return result

    def regular_ocall(
        self,
        name: str,
        *args: Any,
        in_bytes: int = 0,
        out_bytes: int = 0,
        aligned: bool = True,
    ) -> Program:
        """Issue an ocall that always transitions (bypasses the backend).

        Used internally by ZC-SWITCHLESS for its memory-pool reallocation
        ocalls, which must not recurse into the switchless machinery.
        """
        request = OcallRequest(
            name=name,
            args=args,
            in_bytes=in_bytes,
            out_bytes=out_bytes,
            aligned=aligned,
            issued_at=self.kernel.now,
        )
        if self.lost:
            yield from self._recover_lost()
        yield Compute(self.cost.ocall_bookkeeping_cycles, tag="ocall-setup")
        if in_bytes:
            yield Compute(self.memcpy_model.cycles(in_bytes, aligned), tag="marshal-in")
        yield Compute(self.cost.eexit_cycles, tag="eexit")
        result = yield from self.urts.execute(request)
        yield Compute(self.cost.eenter_cycles, tag="eenter")
        request.mode = "regular"
        if out_bytes:
            yield Compute(self.memcpy_model.cycles(out_bytes, aligned), tag="marshal-out")
        self.stats.record(request, self.kernel.now)
        for hook in self.completion_hooks:
            hook(request, self.kernel.now)
        if isinstance(result, HostFault):
            raise result.exception
        return result

    def ecall(self, program: Program) -> Program:
        """Run ``program`` inside the enclave via an ecall.

        Charges enclave entry before and enclave exit after the trusted
        program; returns the program's result.
        """
        if self.lost:
            yield from self._recover_lost()
        yield Compute(self.cost.ecall_entry_cycles, tag="ecall-enter")
        result = yield from program
        yield Compute(self.cost.ecall_exit_cycles, tag="ecall-exit")
        return result

    def ecall_named(
        self,
        name: str,
        *args: Any,
        in_bytes: int = 0,
        out_bytes: int = 0,
        aligned: bool = True,
    ) -> Program:
        """Issue a named ecall from an *untrusted* application thread.

        The handler must be registered in :attr:`trts`.  With no
        switchless ecall dispatcher installed the call pays a full
        EENTER/EEXIT transition; otherwise the dispatcher may hand it to
        a trusted worker thread without a transition.
        """
        request = OcallRequest(
            name=name,
            args=args,
            in_bytes=in_bytes,
            out_bytes=out_bytes,
            aligned=aligned,
            issued_at=self.kernel.now,
        )
        if self.lost:
            yield from self._recover_lost()
        yield Compute(self.cost.ocall_bookkeeping_cycles, tag="ecall-setup")
        if in_bytes:
            yield Compute(self.memcpy_model.cycles(in_bytes, aligned), tag="marshal-in")
        if self.ecall_dispatcher is not None:
            request.dispatched_at = self.kernel.now
            result = yield from self.ecall_dispatcher.invoke_ecall(request)
        else:
            yield Compute(self.cost.ecall_entry_cycles, tag="eenter")
            result = yield from self.trts.execute(request)
            yield Compute(self.cost.ecall_exit_cycles, tag="eexit")
            request.mode = "regular"
        if out_bytes:
            yield Compute(self.memcpy_model.cycles(out_bytes, aligned), tag="marshal-out")
        self.ecall_stats.record(request, self.kernel.now)
        bus = self.kernel.bus
        if bus is not None:
            bus.emit(
                "ecall.complete",
                name=request.name,
                mode=request.mode,
                latency_cycles=self.kernel.now - request.issued_at,
            )
        if isinstance(result, HostFault):
            raise result.exception
        return result

    def stop_backend(self) -> None:
        """Ask the installed backend and ecall dispatcher to shut down.

        Idempotent: the backend's unified ``close()`` protocol makes
        repeated teardown calls no-ops.
        """
        self.backend.close()
        if self.ecall_dispatcher is not None and self.ecall_dispatcher is not self.backend:
            self.ecall_dispatcher.stop()
