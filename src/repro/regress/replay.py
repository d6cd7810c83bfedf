"""Replay exported JSONL event logs through the invariant auditor.

The JSONL exporter writes one schema-stamp line, then every bus event
(plus synthesized ``ocall.complete`` lines) tagged with its cell, then
one ``telemetry.meta`` line per cell carrying the machine context.  This
module groups that artifact back into per-cell
:class:`~repro.telemetry.events.TelemetryEvent` streams and runs the
audit checkers over them, so an invariant violation can be diagnosed
from a CI artifact long after the run that produced it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.regress.audit import Checker, InvariantAuditor
from repro.telemetry.events import TelemetryEvent
from repro.telemetry.exporters import EVENTS_ARTIFACT
from repro.telemetry.schema import read_stream


@dataclass
class CellStream:
    """One cell's replayed events plus its trailing meta context."""

    label: str
    events: list[TelemetryEvent] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @property
    def n_cpus(self) -> int | None:
        """Logical CPU count recorded by the exporter's meta line."""
        return self.meta.get("n_cpus")

    @property
    def workers_cap(self) -> int | None:
        """zc worker-pool size from the meta line's backend stats."""
        stats = self.meta.get("backend_stats") or {}
        return stats.get("workers_cap")


def read_events_jsonl(path: str) -> dict[str, CellStream]:
    """Group an exported event log into per-cell streams, in file order.

    The file is read through :func:`~repro.telemetry.schema.read_stream`:
    a missing, unstamped, version-mismatched or malformed log raises one
    :class:`~repro.telemetry.schema.SchemaMismatch` naming it.
    """
    cells: dict[str, CellStream] = {}
    _, records = read_stream(path, EVENTS_ARTIFACT)
    for record in records:
        label = record.get("cell", "")
        stream = cells.get(label)
        if stream is None:
            stream = cells[label] = CellStream(label)
        name = record.get("event", "")
        if name == "telemetry.meta":
            stream.meta = record
            continue
        fields = {
            key: value
            for key, value in record.items()
            if key not in ("t_cycles", "cell", "event")
        }
        stream.events.append(TelemetryEvent(record.get("t_cycles", 0.0), name, fields))
    return cells


def audit_jsonl(
    path: str, checkers_factory=None
) -> dict[str, InvariantAuditor]:
    """Run the invariant checkers over every cell of an exported log.

    ``checkers_factory`` builds a fresh checker list per cell (defaults
    to the stock set; the conservation checker is inert in replay — the
    artifact carries events, not the ledger).  Returns one finished
    auditor per cell, keyed by label.
    """
    auditors: dict[str, InvariantAuditor] = {}
    for label, stream in read_events_jsonl(path).items():
        checkers: Sequence[Checker] | None = (
            checkers_factory() if checkers_factory is not None else None
        )
        auditor = InvariantAuditor(
            cell=label,
            n_cpus=stream.n_cpus,
            workers_cap=stream.workers_cap,
            checkers=checkers,
        )
        auditor.feed(stream.events)
        auditor.finish()
        auditors[label] = auditor
    return auditors
