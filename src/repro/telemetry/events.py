"""The telemetry event bus: ``emit(event, **fields)`` with subscribers.

Every instrumented layer publishes to the bus installed on its simulation
kernel (``kernel.bus``):

- :mod:`repro.sgx.enclave` — ``ecall.complete`` with the execution mode
  the backend chose.  The dense per-ocall record lives in
  :class:`repro.profiler.tracer.CallTracer` instead; the JSONL exporter
  synthesizes ``ocall.complete`` lines from the tracer;
- :mod:`repro.switchless` — ``intel.fallback`` (with the reason: full
  pool vs. exhausted retry budget) and worker sleep/wake transitions;
- :mod:`repro.core` — ``zc.fallback`` / ``zc.pool_realloc`` /
  ``zc.workers`` and the scheduler's per-probe ``zc.sched.probe`` (each
  candidate's ``U_i``) and ``zc.sched.decision`` (the chosen argmin; the
  decision's only record);
- :mod:`repro.hostos` — ``syscall`` with the handler name and host cycles.

Successful switchless completions deliberately have no event of their
own: the enclave's per-call ``ocall.complete`` already carries the mode
the backend chose, so only exceptional paths cost an emit.  The kernel
publishes nothing: its dispatches, preemptions, parks and finishes are
recorded once, in its :class:`~repro.sim.kernel.SchedTrace` ring, which
feeds the Chrome trace's CPU lanes.

Publishing costs host time only, never simulated cycles; with no bus
installed (``kernel.bus is None``) the instrumentation is a single
attribute check per site.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple


class TelemetryEvent(NamedTuple):
    """One published event.

    A ``NamedTuple`` rather than a dataclass: emit sits on the simulator's
    hot path and tuple construction is several times cheaper.
    """

    t_cycles: float
    name: str
    fields: dict[str, Any]


class EventBus:
    """Collects :class:`TelemetryEvent` records and fans out to subscribers.

    Args:
        clock: Zero-argument callable returning the current simulated time
            in cycles (normally ``lambda: kernel.now``); ``None`` stamps
            every event with 0.0.
        max_events: Retention bound; once reached, *new* events are counted
            in :attr:`dropped` instead of stored (subscribers still see
            them).  0 means unbounded.
    """

    __slots__ = (
        "clock",
        "max_events",
        "events",
        "dropped",
        "_subscribers",
    )

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        max_events: int = 200_000,
    ) -> None:
        if max_events < 0:
            raise ValueError("max_events must be >= 0")
        self.clock = clock
        self.max_events = max_events
        self.events: list[TelemetryEvent] = []
        self.dropped = 0
        # A tuple, not a list: emit iterates the immutable snapshot it
        # read, so a subscriber may unsubscribe (itself or another) from
        # inside its callback — one-shot audit checkers rely on this.
        self._subscribers: tuple[Callable[[TelemetryEvent], None], ...] = ()

    def subscribe(self, fn: Callable[[TelemetryEvent], None]) -> None:
        """Register ``fn`` to be called synchronously on every emit."""
        self._subscribers = (*self._subscribers, fn)

    def unsubscribe(self, fn: Callable[[TelemetryEvent], None]) -> None:
        """Remove a subscriber registered with :meth:`subscribe`.

        Safe to call from inside a subscriber during :meth:`emit`: the
        dispatch loop iterates the subscriber tuple it snapshotted, so the
        removed subscriber still sees the in-flight event but none after.
        """
        subscribers = list(self._subscribers)
        subscribers.remove(fn)
        self._subscribers = tuple(subscribers)

    def emit(self, name: str, /, **fields: Any) -> None:
        """Publish one event; timestamped with the kernel clock.

        ``name`` is positional-only so events may carry a ``name`` field
        (e.g. ``ocall.complete`` names the ocall that completed).
        """
        clock = self.clock
        event = TelemetryEvent(clock() if clock is not None else 0.0, name, fields)
        if self._subscribers:
            for fn in self._subscribers:
                fn(event)
        events = self.events
        if self.max_events and len(events) >= self.max_events:
            self.dropped += 1
            return
        events.append(event)

    @property
    def count(self) -> int:
        """Total events emitted (stored + dropped)."""
        return len(self.events) + self.dropped

    @property
    def counts(self) -> dict[str, int]:
        """Per-name counts of the *stored* events, computed on demand.

        Events beyond the retention bound appear only in the aggregate
        :attr:`dropped` counter — emit stays free of bookkeeping.
        """
        counts: dict[str, int] = {}
        for event in self.events:
            name = event.name
            counts[name] = counts.get(name, 0) + 1
        return counts

    def events_named(self, name: str) -> list[TelemetryEvent]:
        """The stored events with the given name."""
        return [e for e in self.events if e.name == name]
