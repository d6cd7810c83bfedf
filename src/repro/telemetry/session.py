"""Telemetry sessions: attach instrumentation to every stack in a run.

A :class:`TelemetrySession` is a context manager a caller (or the CLI's
``--telemetry`` / ``--trace`` / ``--audit`` flags) wraps around
:func:`repro.experiments.suite.run_experiment`.  While active,
:meth:`repro.api.Runtime.create`
attaches a :class:`CellCapture` to every kernel it creates: an
:class:`~repro.telemetry.events.EventBus`, a
:class:`~repro.telemetry.ledger.CycleLedger`, the kernel's
:class:`~repro.sim.kernel.SchedTrace` ring and a
:class:`~repro.profiler.tracer.CallTracer`.  ``Runtime.close()``
finalizes the capture — snapshotting the ledger, backend statistics and
metrics and releasing the simulation objects — so a session accumulates
one compact capture per experiment cell, exported together at the end.
A cell run in a pool worker comes back as a :class:`CapturePayload`, the
finished capture as plain data, which the parent keeps and exports as is.

Telemetry is opt-in: with no active session, nothing is installed and the
instrumented code paths stay on their single ``is None`` check.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.analysis.metrics import LatencyRecorder
from repro.profiler.tracer import CallTracer
from repro.sim.kernel import Kernel, SchedTrace
from repro.telemetry.events import EventBus, TelemetryEvent
from repro.telemetry.exporters import (
    build_chrome_trace,
    render_cycle_budget,
    write_chrome_trace,
    write_cycle_budget,
    write_events_jsonl,
    write_prometheus,
)
from repro.telemetry.ledger import BUSY_CATEGORIES, CycleLedger, LedgerSnapshot
from repro.telemetry.registry import MetricsRegistry

if TYPE_CHECKING:
    from repro.sgx.enclave import Enclave

#: Stack of active sessions; the innermost wins (supports nesting in tests).
_ACTIVE: list["TelemetrySession"] = []

#: Event-bus retention bound per cell.
MAX_EVENTS_PER_CELL = 200_000

#: Ring size of the per-kernel scheduler trace.
SCHED_TRACE_ENTRIES = 100_000

#: Ring size of the per-enclave call tracer.
TRACER_MAX_EVENTS = 100_000


def active_session() -> "TelemetrySession | None":
    """The innermost active session, or None when telemetry is off."""
    return _ACTIVE[-1] if _ACTIVE else None


@dataclass
class CapturePayload:
    """One finished capture as plain picklable data.

    What a pool worker ships back to the parent process, and what the
    parent keeps and exports: everything the exporters read from a
    capture, with the live objects (kernel, bus clock closure, tracer)
    already reduced to lists and snapshots.
    """

    label: str
    freq_hz: float
    events: list[TelemetryEvent]
    events_dropped: int
    event_counts: dict[str, int]
    now_cycles: float
    sched_trace: SchedTrace | None
    call_events: list[Any]
    calls_dropped: int
    latency_samples: list[float]
    snapshot: LedgerSnapshot | None
    worker_timeline: list[tuple[float, float]]
    backend_stats: dict[str, Any]

    def assert_balanced(self, rel_tol: float = 1e-6) -> None:
        """Assert cycle conservation on the shipped snapshot."""
        assert self.snapshot is not None
        self.snapshot.assert_balanced(rel_tol)

    def latency_summary(self) -> dict[str, float]:
        """p50/p95/p99 summary of the captured end-to-end call latencies."""
        recorder = LatencyRecorder()
        recorder.record_many(self.latency_samples)
        return recorder.summary()


@dataclass
class SessionPayload:
    """A child session's captures + metrics, ready to cross a process."""

    captures: list[CapturePayload] = field(default_factory=list)
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)


class CellCapture:
    """Telemetry attached to one experiment cell (one kernel + enclave).

    Live phase: holds references to the kernel, bus, ledger and tracer.
    After :meth:`finalize` only plain data remains — events, the sched
    trace, call events, the ledger snapshot and backend counters — sized
    for a whole session of cells to be kept in memory.
    """

    def __init__(self, session: "TelemetrySession", kernel: Kernel, label: str) -> None:
        # Copy what we need from the session rather than keeping a
        # reference: the session holds its captures, and a backref would
        # make every capture cyclic garbage (collector-only reclaim).
        self._registry = session.registry
        self.label = label
        self.kernel: Kernel | None = kernel
        self.freq_hz = kernel.spec.freq_hz
        self.bus = EventBus(clock=lambda: kernel.now, max_events=MAX_EVENTS_PER_CELL)
        self.ledger = CycleLedger()
        kernel.bus = self.bus
        kernel.ledger = self.ledger
        if kernel.trace is None:
            kernel.trace = SchedTrace(SCHED_TRACE_ENTRIES)
        self.sched_trace: SchedTrace | None = kernel.trace
        self.tracer: CallTracer | None = None
        self._enclave: "Enclave | None" = None
        # Populated by finalize().
        self.snapshot: LedgerSnapshot | None = None
        self.events: list[TelemetryEvent] = []
        self.events_dropped = 0
        self.event_counts: dict[str, int] = {}
        self.now_cycles = 0.0
        #: The detached tracer, kept so call_events can materialize lazily.
        self._done_tracer: CallTracer | None = None
        self._call_events: list[Any] | None = None
        #: Calls the tracer's ring dropped (oldest first).
        self.calls_dropped = 0
        self.worker_timeline: list[tuple[float, float]] = []
        self.backend_stats: dict[str, Any] = {}
        self.finalized = False

    def bind_enclave(self, enclave: "Enclave") -> None:
        """Install the call tracer on the cell's enclave."""
        self._enclave = enclave
        self.tracer = CallTracer(max_events=TRACER_MAX_EVENTS).install(enclave)

    @property
    def enclave(self) -> "Enclave | None":
        """The bound enclave while the cell is live (None once finalized).

        The live invariant auditor reads backend parameters (worker-pool
        size) through this to resolve the expected probe count.
        """
        return self._enclave

    @property
    def registry(self) -> MetricsRegistry:
        """The owning session's metrics registry.

        Layers above telemetry (the serve bench's Prometheus export)
        register their cell-labelled metrics through this rather than
        reaching for the session, which the capture deliberately does
        not hold a reference to.
        """
        return self._registry

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------
    def finalize(self) -> None:
        """Snapshot everything and release the simulation objects.

        Idempotent; called by ``Runtime.close()`` after the kernel drains
        (so worker exit-cleanup cycles are attributed) and defensively by
        the session's exporters.
        """
        if self.finalized:
            return
        self.finalized = True
        kernel = self.kernel
        assert kernel is not None
        self.snapshot = self.ledger.snapshot(kernel)
        self.now_cycles = kernel.now
        self.events = self.bus.events
        self.events_dropped = self.bus.dropped
        self.event_counts = dict(self.bus.counts)
        if self.tracer is not None:
            self.tracer.uninstall()
            self.calls_dropped = self.tracer.dropped
            self._done_tracer = self.tracer
            self.tracer = None
        self._snapshot_metrics(kernel)
        kernel.bus = None
        kernel.ledger = None
        self.kernel = None
        self._enclave = None

    def _snapshot_metrics(self, kernel: Kernel) -> None:
        registry = self._registry
        label = self.label
        snapshot = self.snapshot
        assert snapshot is not None
        for category in BUSY_CATEGORIES:
            registry.counter("repro_cycles_total", cell=label, category=category).inc(
                snapshot.wall_by_category.get(category, 0.0)
            )
        registry.counter("repro_cycles_total", cell=label, category="idle").inc(
            snapshot.idle_cycles
        )
        registry.gauge("repro_sim_time_cycles", cell=label).set(kernel.now)
        registry.gauge("repro_cpu_utilisation", cell=label).set(
            snapshot.busy_cycles / snapshot.capacity_cycles if snapshot.capacity_cycles else 0.0
        )

        enclave = self._enclave
        if enclave is not None:
            for mode in ("regular", "switchless", "fallback"):
                count = getattr(enclave.stats, f"total_{mode}")
                if count:
                    registry.counter("repro_ocalls_total", cell=label, mode=mode).inc(count)
            backend = enclave.backend
            stats = getattr(backend, "stats", None)
            if stats is not None and hasattr(stats, "worker_count_timeline"):
                self.backend_stats = {
                    "backend": backend.name,
                    "fallbacks": stats.fallback_count,
                    "switchless": stats.switchless_count,
                    "pool_reallocs": stats.pool_reallocs,
                    "scheduler_decisions": stats.scheduler_decisions,
                    "mean_workers": stats.mean_worker_count(kernel.now),
                    # Pool size, for the auditor's N/2+1 probe-count check
                    # (the probe sweep is capped by the workers that exist).
                    "workers_cap": len(getattr(backend, "workers", ())),
                }
                self.worker_timeline = [
                    (t, float(count)) for t, count in stats.worker_count_timeline
                ]
                registry.counter("repro_zc_fallbacks_total", cell=label).inc(
                    stats.fallback_count
                )
                registry.counter("repro_zc_pool_reallocs_total", cell=label).inc(
                    stats.pool_reallocs
                )
                workers = registry.gauge("repro_zc_active_workers", cell=label)
                for t_cycles, count in self.worker_timeline:
                    workers.set(count, t_cycles=t_cycles)
            elif hasattr(backend, "fallback_count"):
                self.backend_stats = {
                    "backend": backend.name,
                    "fallbacks": backend.fallback_count,
                    "switchless": backend.switchless_count,
                }
                registry.counter("repro_intel_fallbacks_total", cell=label).inc(
                    backend.fallback_count
                )
            else:
                self.backend_stats = {"backend": backend.name}

        tracer = self._done_tracer
        if tracer is not None and tracer.count:
            registry.histogram("repro_ocall_latency_cycles", cell=label).observe_many(
                tracer.latency_samples()
            )
            registry.histogram("repro_ocall_host_cycles", cell=label).observe_many(
                tracer.host_samples()
            )

    # ------------------------------------------------------------------
    # Assertions / summaries
    # ------------------------------------------------------------------
    def assert_balanced(self, rel_tol: float = 1e-6) -> None:
        """Assert cycle conservation (finalizing first if needed)."""
        if not self.finalized:
            self.finalize()
        assert self.snapshot is not None
        self.snapshot.assert_balanced(rel_tol)

    @property
    def call_events(self) -> list[Any]:
        """Per-ocall events from the call tracer, materialized lazily.

        CallEvent construction is deferred until an exporter asks — it
        costs host time proportional to the call count, and finalize runs
        inside the window the overhead guard measures — and built once.
        """
        if self._done_tracer is None:
            return []
        if self._call_events is None:
            self._call_events = self._done_tracer.events
        return self._call_events

    def latency_summary(self) -> dict[str, float]:
        """p50/p95/p99 summary of the captured end-to-end call latencies."""
        recorder = LatencyRecorder()
        if self._done_tracer is not None:
            recorder.record_many(self._done_tracer.latency_samples())
        return recorder.summary()

    def to_payload(self) -> CapturePayload:
        """Reduce this (finalized) capture to plain picklable data.

        Materializes the tracer's call events eagerly — the payload
        crosses a process boundary, so lazy construction cannot be
        deferred to the parent.
        """
        if not self.finalized:
            self.finalize()
        tracer = self._done_tracer
        return CapturePayload(
            label=self.label,
            freq_hz=self.freq_hz,
            events=self.events,
            events_dropped=self.events_dropped,
            event_counts=self.event_counts,
            now_cycles=self.now_cycles,
            sched_trace=self.sched_trace,
            call_events=list(self.call_events),
            calls_dropped=self.calls_dropped,
            latency_samples=tracer.latency_samples() if tracer is not None else [],
            snapshot=self.snapshot,
            worker_timeline=self.worker_timeline,
            backend_stats=self.backend_stats,
        )


class TelemetrySession:
    """Context manager collecting one :class:`CellCapture` per stack.

    Args:
        on_attach: Called with each new :class:`CellCapture` right after
            it is attached — the hook ``repro run --audit`` and the
            ``--audit-invariants`` pytest fixture use to put live checkers
            on every cell's bus.  Callbacks don't cross process
            boundaries, so the cell runner keeps every cell of a session
            with this hook in-process.
    """

    def __init__(self, on_attach: "Callable[[CellCapture], None] | None" = None) -> None:
        self.on_attach = on_attach
        #: Holds :class:`CellCapture` for cells run in-process and
        #: :class:`CapturePayload` for cells absorbed from pool workers.
        self.captures: list[CellCapture | CapturePayload] = []
        self.registry = MetricsRegistry()
        self._label_counts: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "TelemetrySession":
        _ACTIVE.append(self)
        return self

    def __exit__(self, *exc_info: object) -> None:
        _ACTIVE.remove(self)

    def _unique_label(self, label: str) -> str:
        """Uniquify a cell label (``zc``, ``zc#1``, ``zc#2``, ...)."""
        count = self._label_counts.get(label, 0)
        self._label_counts[label] = count + 1
        return label if count == 0 else f"{label}#{count}"

    def attach(self, kernel: Kernel, label: str) -> CellCapture:
        """Instrument ``kernel`` as a new cell; labels are made unique."""
        capture = CellCapture(self, kernel, self._unique_label(label))
        self.captures.append(capture)
        if self.on_attach is not None:
            self.on_attach(capture)
        return capture

    def finalize_all(self) -> None:
        """Finalize any capture whose runtime never called ``close()``."""
        for capture in self.captures:
            if isinstance(capture, CellCapture):
                capture.finalize()

    # ------------------------------------------------------------------
    # Cross-process transfer (repro.parallel)
    # ------------------------------------------------------------------
    def to_payload(self) -> SessionPayload:
        """Reduce every capture to plain data for the trip to the parent."""
        self.finalize_all()
        return SessionPayload(
            captures=[capture.to_payload() for capture in self.captures],
            registry=self.registry,
        )

    def absorb(self, payload: SessionPayload) -> None:
        """Merge a child session's payload into this session.

        Labels are re-uniquified through this session's counter — a
        child's ``zc`` becomes ``zc#2`` here if two zc cells were already
        captured — so absorbing cells in deterministic cell order yields
        the same label sequence a serial run produces.  The child's
        metrics follow their capture via the same relabel map.
        """
        relabel: dict[str, str] = {}
        for capture_payload in payload.captures:
            # Recover the base label (strip a ``#N`` uniquification suffix
            # the child added) and re-derive the suffix in this session.
            base, sep, suffix = capture_payload.label.rpartition("#")
            if sep and suffix.isdigit():
                original = base
            else:
                original = capture_payload.label
            unique = self._unique_label(original)
            relabel[capture_payload.label] = unique
            capture_payload.label = unique
            self.captures.append(capture_payload)
        self.registry.merge(payload.registry, relabel_cell=relabel)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def export(self, directory: str, name: str) -> dict[str, str]:
        """Write all four artifacts under ``directory``; returns the paths."""
        self.finalize_all()
        os.makedirs(directory, exist_ok=True)
        paths = {
            "events": os.path.join(directory, f"{name}.events.jsonl"),
            "trace": os.path.join(directory, f"{name}.trace.json"),
            "metrics": os.path.join(directory, f"{name}.metrics.prom"),
            "budget": os.path.join(directory, f"{name}.cycle_budget.txt"),
        }
        write_events_jsonl(paths["events"], self.captures)
        write_chrome_trace(paths["trace"], build_chrome_trace(self.captures))
        write_prometheus(paths["metrics"], self.registry)
        write_cycle_budget(paths["budget"], self.captures)
        return paths

    def export_trace(self, directory: str, name: str) -> str:
        """Write only the Chrome trace (the CLI's ``--trace`` mode)."""
        self.finalize_all()
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"{name}.trace.json")
        write_chrome_trace(path, build_chrome_trace(self.captures))
        return path

    def render_cycle_budget(self) -> str:
        """The session-wide cycle-budget table as text."""
        self.finalize_all()
        return render_cycle_budget(self.captures)
