"""Regression sentinel: run snapshots, statistical diffs, invariant audit.

The telemetry layer (PR 1) makes every run emit a cycle ledger, an event
stream and a metrics registry; this package *consumes* those artifacts
across runs:

- :mod:`repro.regress.snapshot` — ``repro baseline`` captures a run's
  cycle-ledger categories, metrics and shape verdicts into one
  schema-stamped JSON file;
- :mod:`repro.regress.diff` — ``repro diff`` compares two snapshots (or
  re-runs the baseline's experiments) and reports per-category cycle
  deltas and per-metric changes with bootstrap confidence intervals,
  exiting non-zero on confirmed regressions;
- :mod:`repro.regress.audit` — paper-level scheduler invariants checked
  live on the telemetry :class:`~repro.telemetry.events.EventBus`;
- :mod:`repro.regress.replay` — the same checkers over an exported JSONL
  event log;
- :mod:`repro.regress.baselines` — the serve-family baseline protocol
  behind ``repro diff`` and every ``--baseline`` flag (not re-exported
  here: it imports the serve stack).

See the "Regression workflow" section of ``docs/observability.md``.
"""

from repro.regress.audit import (
    ArgminChecker,
    Checker,
    ConfigPhaseChecker,
    ConservationChecker,
    ImmediateFallbackChecker,
    InvariantAuditor,
    ObsAnomalyChecker,
    QuarantineRoutingChecker,
    RecoveryChecker,
    RouterConservationChecker,
    ScalingSanityChecker,
    SpanConservationChecker,
    Violation,
    attach_auditor,
    default_checkers,
)
from repro.regress.diff import DiffEntry, DiffReport, bootstrap_rel_delta, diff_snapshots
from repro.regress.replay import audit_jsonl, read_events_jsonl
from repro.regress.snapshot import capture_run, load_snapshot

__all__ = [
    "ArgminChecker",
    "Checker",
    "ConfigPhaseChecker",
    "ConservationChecker",
    "DiffEntry",
    "DiffReport",
    "ImmediateFallbackChecker",
    "InvariantAuditor",
    "ObsAnomalyChecker",
    "QuarantineRoutingChecker",
    "RecoveryChecker",
    "RouterConservationChecker",
    "ScalingSanityChecker",
    "SpanConservationChecker",
    "Violation",
    "attach_auditor",
    "audit_jsonl",
    "bootstrap_rel_delta",
    "capture_run",
    "default_checkers",
    "diff_snapshots",
    "load_snapshot",
    "read_events_jsonl",
]
