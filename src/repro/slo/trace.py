"""Per-request span trees over the serving layer's trace boundaries.

The router stamps every request with five boundary instants off the
simulated clock — submit, enqueue, dequeue, result, complete — and
publishes them as one flat ``serve.request.span`` record per request
(handed to ``Router.span_subscribers`` and emitted on the bus).  This module turns
those records into span *trees*:

    request (t_submit .. t_complete)
    ├── admission   router placement: submit .. enqueue
    ├── queue       waiting on the shard: enqueue .. dequeue
    ├── execute     ecall into the enclave: dequeue .. result
    └── reply       completion wake-up: result .. complete

The children partition the root exactly — consecutive phases share their
boundary instant — so ``root.duration == sum(child durations)`` holds to
the bit, not to a tolerance.  Requests that never reach a boundary
(shed at admission, evicted from a queue) simply have fewer children:
the phase that *was* in progress absorbs the time up to completion.

Two sources produce the same records:

- live: a list subscribed to ``router.span_subscribers`` (works without
  any telemetry bus; ``run_bench``'s ``span_sink``);
- bus: :func:`spans_from_events` over captured telemetry events.

Exports: a ``spans-jsonl`` stream (one record per line, written and read
by :func:`repro.telemetry.schema.write_stream` / ``read_stream``) and
:func:`tenant_lane_trace_events` (Perfetto-loadable through the one
Chrome-trace writer, :mod:`repro.telemetry.exporters`; one *process
lane per tenant*, requests as async begin/end pairs keyed by request id).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

from repro.telemetry.events import TelemetryEvent

#: Stamp of the span-record stream.
SPANS_ARTIFACT = "spans-jsonl"

#: Boundary fields in request order, each starting the named child phase.
CHECKPOINTS: tuple[tuple[str, str], ...] = (
    ("t_submit", "admission"),
    ("t_enqueue", "queue"),
    ("t_dequeue", "execute"),
    ("t_result", "reply"),
)

#: Fields every span record carries (the ``serve.request.span`` schema).
SPAN_FIELDS: tuple[str, ...] = (
    "request_id",
    "tenant",
    "op",
    "status",
    "shard",
    "t_submit",
    "t_enqueue",
    "t_dequeue",
    "t_result",
    "t_complete",
)


@dataclass(frozen=True)
class Span:
    """One node of a request's span tree (times in simulated cycles)."""

    name: str
    t_start: float
    t_end: float
    children: tuple["Span", ...] = ()

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    @property
    def child_sum(self) -> float:
        return sum(child.duration for child in self.children)


@dataclass(frozen=True)
class SpanTree:
    """One request's full span tree plus its identity fields."""

    request_id: int
    tenant: str
    op: str
    status: str
    shard: int | None
    root: Span

    def errors(self) -> list[str]:
        """Internal-consistency problems (empty for a well-formed tree).

        Checks boundary monotonicity, that the children tile the root
        gaplessly, and the exact ``root == Σ children`` identity the
        construction promises.
        """
        problems: list[str] = []
        label = f"request {self.request_id} ({self.tenant or 'anon'})"
        if self.root.duration < 0:
            problems.append(f"{label}: negative root duration {self.root.duration}")
        cursor = self.root.t_start
        for child in self.root.children:
            if child.t_start != cursor:
                problems.append(
                    f"{label}: span '{child.name}' starts at {child.t_start}, "
                    f"leaving a gap from {cursor}"
                )
            if child.t_end < child.t_start:
                problems.append(
                    f"{label}: span '{child.name}' ends before it starts"
                )
            cursor = child.t_end
        if self.root.children and cursor != self.root.t_end:
            problems.append(
                f"{label}: children end at {cursor}, root at {self.root.t_end}"
            )
        if self.root.duration != self.root.child_sum:
            problems.append(
                f"{label}: root duration {self.root.duration} != child sum "
                f"{self.root.child_sum}"
            )
        return problems


def build_span_tree(record: Mapping[str, Any]) -> SpanTree:
    """One flat span record → its request span tree.

    Missing intermediate boundaries (a shed request never dequeued, an
    evicted request never executed) merge into the phase that was under
    way: the children always partition ``[t_submit, t_complete]``.
    """
    t_complete = float(record["t_complete"])
    boundaries = [
        (name, float(record[field]))
        for field, name in CHECKPOINTS
        if record.get(field) is not None
    ]
    children = []
    for position, (name, t_start) in enumerate(boundaries):
        t_end = (
            boundaries[position + 1][1]
            if position + 1 < len(boundaries)
            else t_complete
        )
        children.append(Span(name, t_start, t_end))
    t_submit = float(record["t_submit"])
    return SpanTree(
        request_id=int(record["request_id"]),
        tenant=str(record.get("tenant", "")),
        op=str(record.get("op", "")),
        status=str(record.get("status", "")),
        shard=record.get("shard"),
        root=Span("request", t_submit, t_complete, tuple(children)),
    )


def build_span_trees(records: Iterable[Mapping[str, Any]]) -> list[SpanTree]:
    """Every record through :func:`build_span_tree`, in input order."""
    return [build_span_tree(record) for record in records]


def span_conservation_errors(records: Iterable[Mapping[str, Any]]) -> list[str]:
    """All per-tree consistency errors plus duplicate-request detection."""
    problems: list[str] = []
    seen: set[int] = set()
    for tree in build_span_trees(records):
        if tree.request_id in seen:
            problems.append(
                f"request {tree.request_id} produced more than one span record"
            )
        seen.add(tree.request_id)
        problems.extend(tree.errors())
    return problems


def reconcile_with_latency(
    trees: Sequence[SpanTree], total_latency_cycles: float, rel_tol: float = 1e-9
) -> str | None:
    """Check span roots against the router's latency ledger.

    The router records one latency sample per ``ok`` request off the same
    clock that stamps the span boundaries, so the sum of ok root
    durations must equal the recorder's total — the spans attribute
    exactly the cycles the latency ledger charges, no more, no fewer.
    Returns an error string, or None when the books balance.
    """
    span_total = sum(t.root.duration for t in trees if t.status == "ok")
    error = abs(span_total - total_latency_cycles)
    if error > rel_tol * max(abs(total_latency_cycles), 1.0):
        return (
            f"span trees attribute {span_total:.0f} cycles to ok requests but "
            f"the latency ledger recorded {total_latency_cycles:.0f} "
            f"({error:.1f} cycles unreconciled)"
        )
    return None


# ----------------------------------------------------------------------
# Record sources
# ----------------------------------------------------------------------
def spans_from_events(events: Iterable[TelemetryEvent]) -> list[dict[str, Any]]:
    """Span records carried by a telemetry event stream, in stream order."""
    return [
        {field: event.fields.get(field) for field in SPAN_FIELDS}
        for event in events
        if event.name == "serve.request.span"
    ]


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
def tenant_lane_trace_events(
    records: Sequence[Mapping[str, Any]], freq_hz: float
) -> list[dict[str, Any]]:
    """Chrome-trace events with one process lane per tenant.

    Each request renders as an async begin/end pair (``ph: b``/``e``)
    keyed by its request id, with its phase spans nested inside the same
    async track — Perfetto stacks them under the request row, which makes
    a tenant's latency anatomy readable at a glance.
    """
    scale = 1e6 / freq_hz  # cycles → trace microseconds
    tenants = sorted({str(record.get("tenant", "")) for record in records})
    pids = {tenant: pid for pid, tenant in enumerate(tenants)}
    events: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "args": {"name": f"tenant {tenant}" if tenant else "tenant <anonymous>"},
        }
        for tenant, pid in pids.items()
    ]
    for record in records:
        tree = build_span_tree(record)
        pid = pids[tree.tenant]
        ident = str(tree.request_id)
        common = {"cat": "request", "id": ident, "pid": pid, "tid": 0}
        events.append(
            {
                **common,
                "ph": "b",
                "name": "request",
                "ts": tree.root.t_start * scale,
                "args": {
                    "op": tree.op,
                    "status": tree.status,
                    "shard": tree.shard,
                    "tenant": tree.tenant,
                },
            }
        )
        for child in tree.root.children:
            events.append(
                {**common, "ph": "b", "name": child.name, "ts": child.t_start * scale}
            )
            events.append(
                {**common, "ph": "e", "name": child.name, "ts": child.t_end * scale}
            )
        events.append(
            {**common, "ph": "e", "name": "request", "ts": tree.root.t_end * scale}
        )
    return events

