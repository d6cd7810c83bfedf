"""The scenario trace format: schema-stamped JSONL request timelines.

A trace file is one header line plus one line per request arrival:

- **Header** — the usual :func:`repro.telemetry.schema.stamp` fields for
  the ``scenario-trace`` artifact, the scenario's identity (name, seed,
  duration, keyspace, app set, tenant mix), the generator parameters it
  was produced from, the event count, and a SHA-256 digest over the
  exact event lines.  :func:`load_trace` refuses files whose stamp,
  count or digest disagree — a committed eval trace either replays the
  bytes it was reviewed with, or not at all.  Both directions go through
  the stamped-stream pair of :mod:`repro.telemetry.schema`.
- **Events** — ``{"t": <seconds since trace start>, "app": ..., "op":
  ..., "key": <hex>, "tenant": ...}`` plus ``"value": <hex>`` on
  payload-carrying ops.  Events are sorted by ``t`` and serialized with
  sorted keys and no whitespace, so a trace's bytes are a pure function
  of its events — which is what makes "same seed → byte-identical file"
  testable.

Keys are the serve layer's fixed-width 8-byte big-endian integers (see
:mod:`repro.workloads.keydist`), hex-encoded for JSON.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any

from repro.telemetry.schema import (
    SchemaMismatch,
    encode_line,
    read_stream,
    stamp,
    write_stream,
)

#: Artifact kind of a trace file's header stamp.
TRACE_ARTIFACT = "scenario-trace"


@dataclass(frozen=True)
class TraceEvent:
    """One timestamped request arrival."""

    t: float
    app: str
    op: str
    key: bytes
    tenant: str = ""
    value: bytes | None = None

    def to_record(self) -> dict[str, Any]:
        """The event as a stream record (hex-encoded key and value)."""
        record: dict[str, Any] = {
            "t": self.t,
            "app": self.app,
            "op": self.op,
            "key": self.key.hex(),
            "tenant": self.tenant,
        }
        if self.value is not None:
            record["value"] = self.value.hex()
        return record

    def to_json(self) -> str:
        """The event's canonical serialized line (digest input)."""
        return encode_line(self.to_record())

    @classmethod
    def from_record(cls, record: dict[str, Any]) -> "TraceEvent":
        """Inverse of :meth:`to_record`."""
        value = record.get("value")
        return cls(
            t=float(record["t"]),
            app=record["app"],
            op=record["op"],
            key=bytes.fromhex(record["key"]),
            tenant=record.get("tenant", ""),
            value=bytes.fromhex(value) if value is not None else None,
        )


@dataclass(frozen=True)
class ScenarioTrace:
    """A named, replayable request timeline."""

    name: str
    seed: int
    duration_s: float
    keyspace: int
    apps: tuple[str, ...]
    tenants: dict[str, float] | None = None
    generator: dict[str, Any] = field(default_factory=dict)
    events: tuple[TraceEvent, ...] = ()

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if not self.apps:
            raise ValueError("a trace must declare at least one app")
        out_of_range = [e for e in self.events if not 0 <= e.t < self.duration_s]
        if out_of_range:
            raise ValueError(
                f"{len(out_of_range)} events fall outside [0, {self.duration_s}s)"
            )
        unknown = sorted({e.app for e in self.events} - set(self.apps))
        if unknown:
            raise ValueError(f"events address undeclared apps {unknown}")

    @property
    def digest(self) -> str:
        """SHA-256 over the serialized event lines (the header's hash)."""
        return trace_digest(self.events)

    def header(self) -> dict[str, Any]:
        """The trace file's first line, as a dict."""
        return {
            **stamp(TRACE_ARTIFACT),
            "name": self.name,
            "seed": self.seed,
            "duration_s": self.duration_s,
            "keyspace": self.keyspace,
            "apps": list(self.apps),
            "tenants": dict(self.tenants) if self.tenants else None,
            "generator": dict(self.generator),
            "events": len(self.events),
            "sha256": self.digest,
        }


def trace_digest(events: tuple[TraceEvent, ...]) -> str:
    """SHA-256 over the newline-joined canonical event lines."""
    payload = "\n".join(event.to_json() for event in events)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def write_trace(trace: ScenarioTrace, path: str) -> str:
    """Write ``trace`` as a schema-stamped stream; returns the path.

    The byte layout is canonical (sorted keys, compact separators, one
    trailing newline), so writing the same trace twice produces the same
    file — the determinism tests hash the bytes.
    """
    write_stream(path, trace.header(), (event.to_record() for event in trace.events))
    return path


def load_trace(path: str) -> ScenarioTrace:
    """Load and verify one trace file.

    Raises :class:`repro.telemetry.schema.SchemaMismatch` naming ``path``
    on every :func:`~repro.telemetry.schema.read_stream` refusal, on an
    event or header field that does not parse, and when the event count
    or digest disagree with the header (a corrupted or hand-edited trace).
    """
    header, records = read_stream(path, TRACE_ARTIFACT)
    try:
        events = tuple(TraceEvent.from_record(record) for record in records)
        declared = header.get("events")
        if declared != len(events):
            raise SchemaMismatch(
                f"{path}: header declares {declared} events, file has {len(events)}"
            )
        digest = trace_digest(events)
        if header.get("sha256") != digest:
            raise SchemaMismatch(
                f"{path}: event digest {digest[:12]}… does not match the header "
                f"({str(header.get('sha256'))[:12]}…) — the trace was modified"
            )
        tenants = header.get("tenants")
        return ScenarioTrace(
            name=header["name"],
            seed=int(header["seed"]),
            duration_s=float(header["duration_s"]),
            keyspace=int(header["keyspace"]),
            apps=tuple(header["apps"]),
            tenants=dict(tenants) if tenants else None,
            generator=dict(header.get("generator") or {}),
            events=events,
        )
    except SchemaMismatch:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise SchemaMismatch(
            f"{path}: malformed trace ({type(exc).__name__}: {exc})"
        ) from None
