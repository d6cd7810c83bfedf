"""Call tracing: one event per ocall, including host handler duration.

The tracer hooks an enclave at two points:

- it wraps the untrusted runtime's ``execute`` to time the *host handler*
  in isolation (what the SDK guidance calls the call's "duration");
- it registers as the enclave's completion hook to capture end-to-end
  latency and the execution mode the backend chose.

Installation is reversible and does not perturb the simulation: tracing
adds no simulated cycles (a real tracer would; sgx-perf reports ~2-5%
overhead, which could be modelled by passing ``probe_cycles``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, NamedTuple

from repro.sim.instructions import Compute
from repro.sim.kernel import Program

if TYPE_CHECKING:
    from repro.sgx.enclave import Enclave, OcallRequest


class CallEvent(NamedTuple):
    """One completed ocall.

    A ``NamedTuple`` for cheap bulk construction: the tracer records
    CallEvent-shaped plain tuples on the hot path and wraps them when
    :attr:`CallTracer.events` is read.
    """

    name: str
    issued_at_cycles: float
    completed_at_cycles: float
    host_cycles: float
    mode: str
    in_bytes: int
    out_bytes: int

    @property
    def latency_cycles(self) -> float:
        """End-to-end latency of this call, in cycles."""
        return self.completed_at_cycles - self.issued_at_cycles


@dataclass
class CallTracer:
    """Records every ocall completing on one enclave.

    Args:
        max_events: Ring-buffer bound; the oldest events are dropped once
            exceeded, and counted in :attr:`dropped` (0 means unbounded).
        probe_cycles: Simulated tracing overhead charged per call on the
            host side (0 by default — an ideal tracer).
    """

    max_events: int = 0
    probe_cycles: float = 0.0
    dropped: int = 0
    _enclave: "Enclave | None" = None
    _original_execute: object = None
    #: CallEvent-shaped plain tuples, oldest first; a full ring drops
    #: its oldest entry in O(1).
    _entries: deque = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._entries = deque(maxlen=self.max_events or None)

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self, enclave: "Enclave") -> "CallTracer":
        """Attach to ``enclave``; returns self for chaining."""
        if self._enclave is not None:
            raise RuntimeError("tracer already installed")
        self._enclave = enclave
        urts = enclave.urts
        original = urts.execute
        self._original_execute = original
        tracer = self

        kernel = enclave.kernel
        probe_cycles = self.probe_cycles

        if probe_cycles:

            def traced_execute(request: "OcallRequest") -> Program:
                start = kernel.now
                yield Compute(probe_cycles, tag="tracer-probe")
                result = yield from original(request)
                request.host_cycles = kernel.now - start
                return result

            urts.execute = traced_execute  # type: ignore[method-assign]
        else:
            # The common case avoids a wrapper generator entirely: a
            # delegating wrapper costs one extra frame traversal per
            # instruction the handler yields.
            urts.execute = partial(urts.execute_timed, kernel=kernel)  # type: ignore[method-assign]
        enclave.completion_hooks.append(self._on_complete)
        return self

    def uninstall(self) -> None:
        """Detach, restoring the enclave's original execute path."""
        if self._enclave is None:
            return
        self._enclave.urts.execute = self._original_execute  # type: ignore[method-assign]
        self._enclave.completion_hooks.remove(self._on_complete)
        self._enclave = None

    # ------------------------------------------------------------------
    # Hook
    # ------------------------------------------------------------------
    def _on_complete(self, request: "OcallRequest", completed_at: float) -> None:
        # Hot path: one per ocall.  Record a CallEvent-shaped plain tuple:
        # cheaper to build than the NamedTuple (wrapped by the events
        # property), and it retains only scalars — holding the request
        # itself alive until finalize would feed every completed call's
        # object graph to the garbage collector.
        entries = self._entries
        if len(entries) == entries.maxlen:
            self.dropped += 1
        entries.append(
            (
                request.name,
                request.issued_at,
                completed_at,
                request.host_cycles,
                request.mode,
                request.in_bytes,
                request.out_bytes,
            )
        )

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    @property
    def events(self) -> list[CallEvent]:
        """The recorded events, oldest first (built on each read)."""
        return list(map(CallEvent._make, self._entries))

    @property
    def count(self) -> int:
        """Number of recorded entries."""
        return len(self._entries)

    def latency_samples(self) -> list[float]:
        """End-to-end latency (cycles) per call, without materializing."""
        return [entry[2] - entry[1] for entry in self._entries]

    def host_samples(self) -> list[float]:
        """Host-handler duration (cycles) per call, without materializing."""
        return [entry[3] for entry in self._entries]

    def events_for(self, name: str) -> list[CallEvent]:
        """Recorded events for the named ocall."""
        return [CallEvent._make(entry) for entry in self._entries if entry[0] == name]

    def window_cycles(self) -> float:
        """Span from the first issue to the last completion."""
        if not self._entries:
            return 0.0
        start = min(entry[1] for entry in self._entries)
        end = max(entry[2] for entry in self._entries)
        return end - start
