"""Run-artifact exporters for telemetry captures.

Four formats, one file each per experiment run:

- **JSONL event log** — one JSON object per bus event, tagged with the
  cell (configuration) it came from;
- **Chrome trace** — loadable in ``chrome://tracing`` / Perfetto; one
  process per cell with per-CPU scheduler lanes, an ocall lane, a
  worker-count counter track and instant markers for scheduler decisions
  and fallbacks (this extends :mod:`repro.profiler.chrometrace` beyond
  ocalls);
- **Prometheus-style text** — counters/gauges/histogram quantiles from
  the session's :class:`repro.telemetry.registry.MetricsRegistry`;
- **cycle-budget table** — the human-readable conservation report
  rendered through :func:`repro.analysis.report.format_cycle_budget`.
"""

from __future__ import annotations

import heapq
import json
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Sequence

from repro.analysis.report import format_cycle_budget
from repro.profiler.chrometrace import (
    call_trace_events,
    counter_events,
    instant_events,
    sched_trace_events,
)
from repro.telemetry.ledger import CATEGORIES
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.schema import SCHEMA_VERSION, stamp, write_stream

from repro import __version__

if TYPE_CHECKING:
    from repro.telemetry.session import CellCapture

#: Bus events rendered as instant markers in the Chrome trace.
_INSTANT_EVENTS = frozenset(
    {
        "zc.sched.decision",
        "zc.pool_realloc",
        "zc.fallback",
        "intel.fallback",
        "intel.worker.sleep",
        "intel.worker.wake",
    }
)

#: Stamp of the JSONL event log.
EVENTS_ARTIFACT = "events-jsonl"

#: Synthetic tids for the non-CPU lanes of each cell's trace process.
_OCALL_TID = 100
_EVENT_TID = 101


# ----------------------------------------------------------------------
# JSONL event log
# ----------------------------------------------------------------------
def _event_records(captures: Sequence["CellCapture"]) -> Iterator[dict]:
    """Per capture: its bus events merged in time order with one
    ``ocall.complete`` line per traced call, then a ``telemetry.meta`` line.

    The enclave publishes no per-call event on the bus (an emit per call
    would be telemetry's dominant host-time cost); the call tracer
    records every call, so the lines are synthesized from it.
    """
    for capture in captures:
        label = capture.label
        bus_records = (
            (event.t_cycles, dict({"t_cycles": event.t_cycles, "cell": label, "event": event.name}, **event.fields))
            for event in capture.events
        )
        call_records = (
            (
                call.completed_at_cycles,
                {
                    "t_cycles": call.completed_at_cycles,
                    "cell": label,
                    "event": "ocall.complete",
                    "name": call.name,
                    "mode": call.mode,
                    "latency_cycles": call.latency_cycles,
                    "in_bytes": call.in_bytes,
                    "out_bytes": call.out_bytes,
                },
            )
            for call in capture.call_events
        )
        for _, record in heapq.merge(bus_records, call_records, key=lambda item: item[0]):
            yield record
        snapshot = capture.snapshot
        yield {
            "t_cycles": capture.now_cycles,
            "cell": label,
            "event": "telemetry.meta",
            "events_stored": len(capture.events),
            "events_dropped": capture.events_dropped,
            "event_counts": capture.event_counts,
            "call_events": len(capture.call_events),
            "calls_dropped": capture.calls_dropped,
            "sched_dropped": (
                capture.sched_trace.dropped if capture.sched_trace is not None else 0
            ),
            "n_cpus": snapshot.n_cpus if snapshot is not None else None,
            "freq_hz": capture.freq_hz,
            "backend_stats": capture.backend_stats,
        }


def write_events_jsonl(path: str, captures: Sequence["CellCapture"]) -> int:
    """Write every captured bus event as one JSON line; returns the line count.

    Record schema: ``{"t_cycles": ..., "cell": ..., "event": ..., <fields>}``.
    Line 1 is the ``events-jsonl`` stamp (in the same record shape, as a
    ``telemetry.schema`` event), so replay tooling can refuse
    incompatible files.  Per-call ``ocall.complete`` lines are
    synthesized from the call tracer.  A trailing ``telemetry.meta`` line
    per cell records drop counters and the cell's machine context
    (``n_cpus``, ``freq_hz``, backend stats) so truncated captures are
    visible — and replayable — from the artifact alone.
    """
    header = {"t_cycles": 0.0, "cell": "", "event": "telemetry.schema", **stamp(EVENTS_ARTIFACT)}
    return 1 + write_stream(path, header, _event_records(captures))


# ----------------------------------------------------------------------
# Chrome trace
# ----------------------------------------------------------------------
def build_chrome_trace(captures: Sequence["CellCapture"]) -> list[dict]:
    """Trace-event list with one process (pid) per capture."""
    events: list[dict] = []
    for pid, capture in enumerate(captures):
        freq = capture.freq_hz
        events.append(
            {"name": "process_name", "ph": "M", "pid": pid, "args": {"name": capture.label}}
        )
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": _OCALL_TID,
                "args": {"name": "ocalls"},
            }
        )
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": _EVENT_TID,
                "args": {"name": "events"},
            }
        )
        if capture.sched_trace is not None:
            for entry in sched_trace_events(capture.sched_trace, freq):
                entry["pid"] = pid
                events.append(entry)
        for entry in call_trace_events(capture.call_events, freq):
            entry["pid"] = pid
            entry["tid"] = _OCALL_TID
            events.append(entry)
        if capture.worker_timeline:
            events.extend(
                counter_events("active workers", capture.worker_timeline, freq, pid=pid)
            )
        markers = [
            (event.t_cycles, event.name, event.fields)
            for event in capture.events
            if event.name in _INSTANT_EVENTS
        ]
        events.extend(instant_events(markers, freq, pid=pid, tid=_EVENT_TID))
    return events


def render_chrome_trace(events: Sequence[dict]) -> str:
    """Trace events as the text of one Chrome trace file.

    The repo's only Chrome-trace serialization (session captures, the
    evidence pack's tenant span lanes, the meta-bench schedule).  It uses
    the trace format's *object* form (``traceEvents`` plus top-level
    metadata) rather than the bare array form — both load in
    ``chrome://tracing``/Perfetto, and the object form carries the
    schema stamp.
    """
    return json.dumps({**stamp("chrome-trace"), "traceEvents": list(events)})


def write_chrome_trace(path: str, events: Sequence[dict]) -> int:
    """Write :func:`render_chrome_trace` to ``path``; returns the event count."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_chrome_trace(events))
    return len(events)


# ----------------------------------------------------------------------
# Prometheus-style text
# ----------------------------------------------------------------------
def _escape_label_value(value: str) -> str:
    """Escape a label value per the text exposition format.

    Backslash, double quote and newline are the three characters the
    format requires escaping inside quoted label values.
    """
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _sanitize_metric_name(name: str) -> str:
    """Rewrite ``name`` into a legal Prometheus metric name.

    Metric names admit only ``[a-zA-Z_:][a-zA-Z0-9_:]*``; every other
    character becomes ``_`` (and a leading digit gains a ``_`` prefix),
    matching what official exporters do with foreign names.
    """
    sanitized = "".join(
        ch if ch.isascii() and (ch.isalnum() or ch in "_:") else "_" for ch in name
    )
    if not sanitized or sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _labels_text(labels: Iterable[tuple[str, str]], extra: dict[str, str] | None = None) -> str:
    pairs = list(labels) + sorted((extra or {}).items())
    if not pairs:
        return ""
    body = ",".join(f'{key}="{_escape_label_value(str(value))}"' for key, value in pairs)
    return "{" + body + "}"


def _families(metrics: Iterable[Any]) -> dict[str, list[Any]]:
    """Group metrics by name, preserving registration order.

    The exposition format requires all series of a family to sit together
    under one TYPE header.
    """
    grouped: dict[str, list[Any]] = {}
    for metric in metrics:
        grouped.setdefault(metric.name, []).append(metric)
    return grouped


def render_prometheus(registry: MetricsRegistry) -> str:
    """Render the registry in the Prometheus text exposition format.

    The output opens with schema/version comment lines and a
    ``repro_build_info`` gauge (the ``_info``-metric idiom) so scrapes and
    the regression tooling can identify what produced the file.
    Histograms are rendered summary-style (``quantile`` labels from the
    recorder's p50/p95/p99) plus ``_count`` and ``_sum`` series.  Metric
    names are sanitized to the legal character set and label values are
    backslash-escaped.
    """
    lines: list[str] = [
        f"# repro_schema_version {SCHEMA_VERSION}",
        f"# repro_version {__version__}",
        "# TYPE repro_build_info gauge",
        "repro_build_info"
        + _labels_text(
            [("repro_version", __version__), ("schema_version", str(SCHEMA_VERSION))]
        )
        + " 1",
    ]
    for name, counters in _families(registry.counters).items():
        name = _sanitize_metric_name(name)
        lines.append(f"# TYPE {name} counter")
        for counter in counters:
            lines.append(f"{name}{_labels_text(counter.labels)} {counter.value:g}")
    for name, gauges in _families(registry.gauges).items():
        name = _sanitize_metric_name(name)
        lines.append(f"# TYPE {name} gauge")
        for gauge in gauges:
            lines.append(f"{name}{_labels_text(gauge.labels)} {gauge.value:g}")
    for name, histograms in _families(registry.histograms).items():
        name = _sanitize_metric_name(name)
        lines.append(f"# TYPE {name} summary")
        for histogram in histograms:
            summary = histogram.summary()
            for quantile, key in (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99")):
                labels = _labels_text(histogram.labels, {"quantile": quantile})
                lines.append(f"{name}{labels} {summary[key]:g}")
            lines.append(f"{name}_count{_labels_text(histogram.labels)} {summary['count']:g}")
            lines.append(
                f"{name}_sum{_labels_text(histogram.labels)} "
                f"{summary['count'] * summary['mean']:g}"
            )
    return "\n".join(lines) + "\n"


def write_prometheus(path: str, registry: MetricsRegistry) -> None:
    """Write :func:`render_prometheus` output to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_prometheus(registry))


# ----------------------------------------------------------------------
# Cycle-budget table
# ----------------------------------------------------------------------
def render_cycle_budget(captures: Sequence["CellCapture"]) -> str:
    """The per-cell cycle-budget table (wall Mcycles per category)."""
    rows = [
        (capture.label, capture.snapshot.wall_by_category)
        for capture in captures
        if capture.snapshot is not None
    ]
    return format_cycle_budget(rows, CATEGORIES)


def write_cycle_budget(path: str, captures: Sequence["CellCapture"]) -> None:
    """Write :func:`render_cycle_budget` output to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_cycle_budget(captures) + "\n")
