"""Unified telemetry: cycle-attribution ledger, event bus and exporters.

See ``docs/observability.md`` for the category definitions, the event
schema and the exporter formats.  Typical use::

    from repro import telemetry
    from repro.experiments.suite import run_experiment

    with telemetry.TelemetrySession() as session:
        outcome = run_experiment("fig8", **kwargs)  # stacks attach automatically
    session.export("out/", "fig8")

or end-to-end: ``python -m repro run fig8 --quick --telemetry out/``.
"""

from repro.telemetry.events import EventBus, TelemetryEvent
from repro.telemetry.exporters import (
    build_chrome_trace,
    render_cycle_budget,
    render_prometheus,
    write_chrome_trace,
    write_cycle_budget,
    write_events_jsonl,
    write_prometheus,
)
from repro.telemetry.ledger import (
    BUSY_CATEGORIES,
    CATEGORIES,
    CycleLedger,
    LedgerSnapshot,
    classify,
)
from repro.telemetry.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.telemetry.schema import SCHEMA_VERSION, SchemaMismatch, check_stamp, stamp
from repro.telemetry.session import CellCapture, TelemetrySession, active_session

__all__ = [
    "BUSY_CATEGORIES",
    "CATEGORIES",
    "CellCapture",
    "Counter",
    "CycleLedger",
    "EventBus",
    "Gauge",
    "Histogram",
    "LedgerSnapshot",
    "MetricsRegistry",
    "SCHEMA_VERSION",
    "SchemaMismatch",
    "TelemetryEvent",
    "TelemetrySession",
    "active_session",
    "check_stamp",
    "stamp",
    "build_chrome_trace",
    "classify",
    "render_cycle_budget",
    "render_prometheus",
    "write_chrome_trace",
    "write_cycle_budget",
    "write_events_jsonl",
    "write_prometheus",
]
