"""Export traces in Chrome trace-event format (``chrome://tracing``).

Both trace sources the library produces can be exported:

- :class:`repro.sim.kernel.SchedTrace` entries become per-CPU duration
  slices (dispatch→preempt/park/finish), one track per logical CPU — a
  visual of exactly which threads occupied which hyperthreads when;
- :class:`repro.profiler.tracer.CallTracer` events become per-thread
  async-style slices named after the ocall, coloured by execution mode.

These functions only build trace events;
:func:`repro.telemetry.exporters.write_chrome_trace` writes them as one
stamped file, loadable in ``chrome://tracing`` or Perfetto.  Times are
exported in microseconds of *simulated* time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.profiler.tracer import CallEvent
    from repro.sim.kernel import SchedTrace

#: chrome://tracing colour names per execution mode.
_MODE_COLOURS = {
    "switchless": "good",
    "regular": "bad",
    "fallback": "terrible",
}


def _us(cycles: float, freq_hz: float) -> float:
    return cycles / freq_hz * 1e6


def sched_trace_events(trace: "SchedTrace", freq_hz: float = 3.8e9) -> list[dict]:
    """Duration events (one per on-CPU interval) from a SchedTrace."""
    events: list[dict] = []
    running: dict[str, tuple[float, int]] = {}  # thread -> (start, cpu)
    for when, event, thread, cpu in trace.entries:
        if event == "dispatch":
            running[thread] = (when, cpu)
            continue
        started = running.pop(thread, None)
        if started is None:
            continue  # dispatch fell off the ring buffer
        start_cycles, start_cpu = started
        events.append(
            {
                "name": thread,
                "ph": "X",
                "ts": _us(start_cycles, freq_hz),
                "dur": _us(when - start_cycles, freq_hz),
                "pid": 0,
                "tid": start_cpu,
                "args": {"end": event},
            }
        )
    return events


def call_trace_events(
    calls: list["CallEvent"], freq_hz: float = 3.8e9
) -> list[dict]:
    """Duration events (one per ocall) from CallTracer events."""
    return [
        {
            "name": event.name,
            "ph": "X",
            "ts": _us(event.issued_at_cycles, freq_hz),
            "dur": _us(event.latency_cycles, freq_hz),
            "pid": 1,
            "tid": 0,
            "cname": _MODE_COLOURS.get(event.mode, "grey"),
            "args": {
                "mode": event.mode,
                "host_cycles": event.host_cycles,
                "bytes": event.in_bytes + event.out_bytes,
            },
        }
        for event in calls
    ]


def counter_events(
    name: str,
    samples: list[tuple[float, float]],
    freq_hz: float = 3.8e9,
    pid: int = 0,
) -> list[dict]:
    """Counter-track ("ph": "C") events from a (t_cycles, value) timeline.

    Renders as a stepped area chart in the trace viewer — used for the ZC
    backend's active-worker count over time.
    """
    return [
        {
            "name": name,
            "ph": "C",
            "ts": _us(t_cycles, freq_hz),
            "pid": pid,
            "args": {name: value},
        }
        for t_cycles, value in samples
    ]


def instant_events(
    items: list[tuple[float, str, dict]],
    freq_hz: float = 3.8e9,
    pid: int = 0,
    tid: int = 0,
) -> list[dict]:
    """Instant ("ph": "i") events from (t_cycles, name, args) tuples.

    Used for point-in-time markers: scheduler decisions, fallbacks, pool
    reallocations, worker sleep/wake edges.
    """
    return [
        {
            "name": name,
            "ph": "i",
            "s": "t",
            "ts": _us(t_cycles, freq_hz),
            "pid": pid,
            "tid": tid,
            "args": args,
        }
        for t_cycles, name, args in items
    ]
