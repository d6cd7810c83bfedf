"""The DES kernel's timer queue: one binary heap with compaction.

The kernel's event loop needs exactly one ordered structure: pending
timers, popped strictly by ``(when, seq)`` — simulated deadline first,
creation order as the tie-break.  :class:`TimerHeap` stores
``(when, seq, Timer)`` tuples so ordering comparisons stay in C (float,
then int) instead of calling a Python ``__lt__`` — on the meta-bench the
old ``_Timer.__lt__`` was the single hottest function.

Cancellation is lazy: :meth:`Timer.cancel` flags the entry and notifies
its queue, which skips flagged entries on pop.  The heap also *compacts*:
once cancelled entries exceed half the stored total (and a small floor)
it is rebuilt live-only, so the serve router's mass cancel/re-arm
completion-timeout pattern keeps it O(live) instead of accumulating one
dead entry per request.  Compaction drops only cancelled entries, and
pop order is a total order on ``(when, seq)``, so it never changes what
the simulation sees.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Callable

#: Compaction floor: below this many cancelled entries, never compact
#: (tiny queues churn more from rebuilds than from skipping).
COMPACT_MIN_CANCELLED = 256


class Timer:
    """A cancellable handle to one scheduled callback.

    The queue stores ``(when, seq, timer)`` tuples; the handle itself is
    never compared.  ``cancel()`` is lazy — the entry stays stored until
    popped or compacted away.  Cancelling a timer that already fired only
    sets the flag: :meth:`TimerHeap.pop` detaches the handle first.
    """

    __slots__ = ("when", "seq", "fn", "cancelled", "_queue")

    def __init__(self, when: float, seq: int, fn: Callable[[], None]) -> None:
        self.when = when
        self.seq = seq
        self.fn = fn
        self.cancelled = False
        self._queue: TimerHeap | None = None

    def cancel(self) -> None:
        """Cancel this timer (lazily skipped, later compacted away)."""
        if not self.cancelled:
            self.cancelled = True
            queue = self._queue
            if queue is not None:
                queue._note_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "armed"
        return f"<Timer when={self.when} seq={self.seq} {state}>"


class TimerHeap:
    """Binary heap of ``(when, seq, Timer)`` with lazy cancellation."""

    __slots__ = ("_heap", "_cancelled", "compactions")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Timer]] = []
        self._cancelled = 0
        self.compactions = 0

    def push(self, timer: Timer) -> None:
        """Store ``timer``; O(log n)."""
        timer._queue = self
        heappush(self._heap, (timer.when, timer.seq, timer))

    def pop(self) -> Timer | None:
        """Remove and return the minimum live timer, or None when empty."""
        heap = self._heap
        while heap:
            timer = heappop(heap)[2]
            if timer.cancelled:
                self._cancelled -= 1
                continue
            timer._queue = None
            return timer
        return None

    def _note_cancel(self) -> None:
        self._cancelled += 1
        if (
            self._cancelled > COMPACT_MIN_CANCELLED
            and self._cancelled * 2 > len(self._heap)
        ):
            self.compact()

    def compact(self) -> None:
        """Drop every cancelled entry and re-heapify the survivors."""
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[2].cancelled]
        heapify(heap)
        self._cancelled = 0
        self.compactions += 1

    def stored(self) -> int:
        """Entries currently stored, including cancelled ones."""
        return len(self._heap)

    def live(self) -> int:
        """Entries that would still fire."""
        return len(self._heap) - self._cancelled

    def __len__(self) -> int:
        return self.live()

    def stats(self) -> dict[str, int]:
        """Counters for tests and the profiler."""
        return {
            "stored": self.stored(),
            "live": self.live(),
            "compactions": self.compactions,
        }
