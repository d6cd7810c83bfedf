"""Trace-based invariant auditor for the paper's scheduler guarantees.

Each :class:`Checker` watches the telemetry event stream of one cell and
asserts one paper-level invariant:

- :class:`ImmediateFallbackChecker` — §IV-C: when no worker is idle, the
  zc caller falls back to a regular ocall *immediately*.  Every
  ``zc.fallback`` event carries ``waited_cycles`` (simulated cycles
  between backend dispatch and the fallback decision); any positive value
  means the caller busy-waited SDK-style first.
- :class:`ConfigPhaseChecker` — §IV-A / Fig. 5: every configuration
  phase probes exactly ``N/2 + 1`` worker counts (``i = 0 .. N/2``,
  capped by the pool that exists), in ascending order, one micro-quantum
  each, and the probe utilities are exactly the ``U_i`` vector the
  decision reports.
- :class:`ArgminChecker` — §IV-A: the kept worker count is
  ``argmin_i U_i`` (first minimum, matching the scheduler's strict-``<``
  scan).
- :class:`ConservationChecker` — the ledger identity behind ``U = F·T_es
  + M·T``: categorised wall cycles plus idle capacity equal
  ``now × n_cpus`` at every window boundary, not just at the end of the
  run.  Live-only (replay has events but no ledger).
- :class:`RecoveryChecker` — graceful degradation under
  :mod:`repro.faults`: every ``fault.worker.crash`` that schedules a
  respawn is matched by a ``fault.worker.respawn`` (or an explicit
  ``.skipped``) by its deadline; a crashed slot that silently never
  heals is a supervision bug.  Vacuously green on healthy runs.
- :class:`RouterConservationChecker` / :class:`QuarantineRoutingChecker`
  — the :mod:`repro.serve` router's contract: every request terminates
  exactly once (ok/shed/failed, sheds balance their completions) and no
  request is ever placed on a quarantined or dead shard.  Vacuously
  green on runs without ``serve.*`` events.
- :class:`SpanConservationChecker` — the router's tracing contract:
  exactly one ``serve.request.span`` per request id, boundaries stamped
  in monotonic order, and every boundary present on ok requests (the
  property that makes :mod:`repro.slo.trace` span trees sum exactly).
- :class:`ScalingSanityChecker` — the :mod:`repro.autoscale` control
  plane's contract: no ``autoscale.spawn`` while any shard is
  quarantined, no routing to (or re-adding of) a retired shard, and
  every request drained by ``serve.shard.retire`` conserved — it must
  re-surface as a submit or a shed.  Vacuously green on runs without
  ``autoscale.*``/``serve.shard.retire`` events.

Checkers run in two modes: *live*, subscribed to a cell's
:class:`~repro.telemetry.events.EventBus` via :func:`attach_auditor`
(this is what the ``--audit-invariants`` pytest option wires up), and
*replay*, fed from an exported JSONL event log by
:mod:`repro.regress.replay`.  A checker that has proven its violation
can unsubscribe mid-``emit`` — the bus snapshots its subscriber tuple per
dispatch, so one-shot checkers are safe.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

from repro.telemetry.events import EventBus, TelemetryEvent

if TYPE_CHECKING:
    from repro.telemetry.ledger import LedgerSnapshot
    from repro.telemetry.session import CellCapture

#: Relative tolerance for float comparisons over replayed (JSON) values.
_REL_TOL = 1e-9


@dataclass(frozen=True)
class Violation:
    """One observed invariant violation, with its event context."""

    checker: str
    cell: str
    t_cycles: float
    message: str
    #: The last few events before (and including) the offending one, as
    #: ``"<t_cycles>:<name>"`` strings — the window to look at in the
    #: JSONL export or Chrome trace.
    window: tuple[str, ...] = ()

    def __str__(self) -> str:
        text = f"[{self.checker}] {self.cell} @ {self.t_cycles:.0f}: {self.message}"
        if self.window:
            text += f"  (window: {' -> '.join(self.window)})"
        return text


class Checker:
    """Base class: one invariant over one cell's event stream."""

    name = "checker"

    def on_event(self, event: TelemetryEvent, auditor: "InvariantAuditor") -> None:
        """Observe one event (called in stream order)."""

    def finish(self, auditor: "InvariantAuditor", snapshot: "LedgerSnapshot | None") -> None:
        """End-of-stream checks; ``snapshot`` is the cell's final ledger
        snapshot when one is available (live mode), else None."""


class ImmediateFallbackChecker(Checker):
    """§IV-C: fallback happens the instant the worker scan comes up empty.

    The zc backend emits ``zc.fallback`` with ``waited_cycles = now −
    request.dispatched_at``; its real implementation has no yield between
    the failed scan and the fallback, so the value is exactly 0.  A
    backend that busy-waits for a worker before giving up (the Intel
    SDK's ``retries_before_fallback`` behaviour) shows up as a positive
    ``waited_cycles``.  ``intel.fallback`` events are deliberately not
    checked: waiting before falling back *is* that mechanism's contract.
    """

    name = "immediate-fallback"

    def __init__(self, tolerance_cycles: float = 0.0) -> None:
        self.tolerance_cycles = tolerance_cycles

    def on_event(self, event: TelemetryEvent, auditor: "InvariantAuditor") -> None:
        if event.name != "zc.fallback":
            return
        waited = event.fields.get("waited_cycles")
        if waited is None or waited <= self.tolerance_cycles:
            return
        auditor.report(
            self.name,
            event.t_cycles,
            f"zc fallback busy-waited {waited:.0f} cycles before transitioning "
            "(§IV-C requires immediate fallback, zero busy-waiting)",
        )


class ConfigPhaseChecker(Checker):
    """§IV-A: each configuration phase is exactly the N/2+1 probe sweep."""

    name = "config-phase"

    def __init__(self, expected_probes: int | None = None) -> None:
        #: Explicit probe count to expect; None resolves it from the
        #: auditor's machine context (``min(N/2, pool size) + 1``).
        self.expected_probes = expected_probes
        #: In-flight probes per scheduler ``source`` (several enclaves may
        #: share one kernel — repro.serve shards — and their configuration
        #: phases interleave on the shared bus).
        self._probes: dict[Any, list[TelemetryEvent]] = {}

    def on_event(self, event: TelemetryEvent, auditor: "InvariantAuditor") -> None:
        source = event.fields.get("source")
        if event.name == "zc.sched.probe":
            self._probes.setdefault(source, []).append(event)
            return
        if event.name != "zc.sched.decision":
            return
        probes = self._probes.pop(source, [])
        utilities = event.fields.get("utilities", [])
        counts = [p.fields.get("workers") for p in probes]
        if counts != list(range(len(counts))):
            auditor.report(
                self.name,
                event.t_cycles,
                f"configuration phase probed worker counts {counts}, "
                "expected the ascending sweep 0..k",
            )
        if len(probes) != len(utilities):
            auditor.report(
                self.name,
                event.t_cycles,
                f"decision reports {len(utilities)} utilities but the phase "
                f"emitted {len(probes)} probes",
            )
        else:
            for probe, u_decided in zip(probes, utilities):
                u_probed = probe.fields.get("u_cycles", 0.0)
                if abs(u_probed - u_decided) > _REL_TOL * max(abs(u_decided), 1.0):
                    auditor.report(
                        self.name,
                        event.t_cycles,
                        f"probe U_{probe.fields.get('workers')} = {u_probed:.1f} "
                        f"disagrees with the decision's {u_decided:.1f}",
                    )
                    break
        expected = self.expected_probes
        if expected is None:
            expected = auditor.expected_probe_count()
        if expected is not None and len(probes) != expected:
            auditor.report(
                self.name,
                event.t_cycles,
                f"configuration phase ran {len(probes)} micro-quanta, "
                f"expected N/2 + 1 = {expected}",
            )


class ArgminChecker(Checker):
    """§IV-A: the scheduling phase keeps ``M' = argmin_i U_i`` workers."""

    name = "argmin-decision"

    def on_event(self, event: TelemetryEvent, auditor: "InvariantAuditor") -> None:
        if event.name != "zc.sched.decision":
            return
        utilities = event.fields.get("utilities", [])
        chosen = event.fields.get("chosen")
        if not utilities or chosen is None or not 0 <= chosen < len(utilities):
            auditor.report(
                self.name,
                event.t_cycles,
                f"malformed decision: chosen={chosen!r} over {len(utilities)} utilities",
            )
            return
        best = min(utilities)
        if utilities[chosen] > best + _REL_TOL * max(abs(best), 1.0):
            auditor.report(
                self.name,
                event.t_cycles,
                f"kept M' = {chosen} workers (U = {utilities[chosen]:.1f}) but "
                f"argmin_i U_i = {utilities.index(best)} (U = {best:.1f})",
            )


class ConservationChecker(Checker):
    """No simulated cycle escapes attribution, checked per window.

    Live-only: replayed event streams carry no ledger.  Every
    ``window_cycles`` of simulated time (default: one scheduler quantum,
    10 ms at the cell's clock) the checker snapshots the live ledger and
    verifies categorised wall cycles + idle capacity == ``now × n_cpus``.
    On the first violation it reports and unsubscribes the whole auditor
    when ``halt_on_violation`` is set — a conservation break means every
    later number is suspect.
    """

    name = "cycle-conservation"

    def __init__(self, window_cycles: float | None = None, rel_tol: float = 1e-6) -> None:
        self.window_cycles = window_cycles
        self.rel_tol = rel_tol
        self._next_boundary: float | None = None
        self._dead = False

    def on_event(self, event: TelemetryEvent, auditor: "InvariantAuditor") -> None:
        capture = auditor.capture
        if self._dead or capture is None or capture.kernel is None:
            return
        if self._next_boundary is None:
            window = self.window_cycles
            if window is None:
                window = 0.01 * capture.freq_hz  # one scheduler quantum Q
            self.window_cycles = window
            self._next_boundary = window
        if event.t_cycles < self._next_boundary:
            return
        while event.t_cycles >= self._next_boundary:
            self._next_boundary += self.window_cycles
        snapshot = capture.ledger.snapshot(capture.kernel)
        error = snapshot.conservation_error()
        if error > self.rel_tol * max(snapshot.capacity_cycles, 1.0):
            self._dead = True  # one-shot: report the first broken window only
            auditor.report(
                self.name,
                event.t_cycles,
                f"ledger lost {error:.1f} cycles inside the window ending at "
                f"{event.t_cycles:.0f} (capacity {snapshot.capacity_cycles:.0f})",
            )

    def finish(self, auditor: "InvariantAuditor", snapshot: "LedgerSnapshot | None") -> None:
        if self._dead or snapshot is None:
            return
        error = snapshot.conservation_error()
        if error > self.rel_tol * max(snapshot.capacity_cycles, 1.0):
            auditor.report(
                self.name,
                snapshot.now_cycles,
                f"final ledger does not balance: {error:.1f} cycles unattributed "
                f"of {snapshot.capacity_cycles:.0f} capacity",
            )


class RecoveryChecker(Checker):
    """Fault supervision: scheduled worker respawns actually happen.

    The fault injector emits ``fault.worker.crash`` with
    ``respawn_after_cycles`` when the plan schedules supervision for the
    killed worker (None means the slot stays dead by design).  This
    checker arms a deadline per ``(target, worker)`` slot and expects a
    ``fault.worker.respawn`` — or a ``fault.worker.respawn.skipped``,
    the supervisor's explicit "moot, shutting down" verdict — before any
    later event passes the deadline.  ``fault.plan.detached`` cancels
    not-yet-due deadlines (detach cancels the pending timers too), but a
    deadline already in the past at detach time means the respawn timer
    was lost.  Healthy runs emit no ``fault.*`` events, so this checker
    is vacuously green outside fault injection.
    """

    name = "fault-recovery"

    def __init__(self) -> None:
        #: (target, worker) -> simulated deadline for its respawn event.
        self._pending: dict[tuple[str, int], float] = {}
        self._last_t = 0.0

    def _slot(self, event: TelemetryEvent) -> tuple[str, int]:
        return (event.fields.get("target", "?"), event.fields.get("worker", -1))

    def _overdue(self, auditor: "InvariantAuditor", t_cycles: float) -> None:
        for slot, deadline in sorted(self._pending.items()):
            # Strict >: the respawn emit happens exactly at its deadline,
            # and unrelated events carrying that same timestamp may be
            # dispatched before the timer callback.
            if t_cycles > deadline:
                del self._pending[slot]
                auditor.report(
                    self.name,
                    t_cycles,
                    f"worker {slot[0]}/{slot[1]} crashed with a respawn due at "
                    f"{deadline:.0f} but no fault.worker.respawn arrived",
                )

    def on_event(self, event: TelemetryEvent, auditor: "InvariantAuditor") -> None:
        self._last_t = event.t_cycles
        if self._pending:
            self._overdue(auditor, event.t_cycles)
        if event.name == "fault.worker.crash":
            after = event.fields.get("respawn_after_cycles")
            if after is not None:
                self._pending[self._slot(event)] = event.t_cycles + after
        elif event.name in ("fault.worker.respawn", "fault.worker.respawn.skipped"):
            self._pending.pop(self._slot(event), None)
        elif event.name == "fault.plan.detached":
            self._pending.clear()  # _overdue above already flagged past-due slots

    def finish(self, auditor: "InvariantAuditor", snapshot: "LedgerSnapshot | None") -> None:
        # A truncated stream (no detach event) still owes respawns whose
        # deadline the stream itself passed.
        t_end = snapshot.now_cycles if snapshot is not None else self._last_t
        if self._pending:
            self._overdue(auditor, t_end)


class RouterConservationChecker(Checker):
    """Serving layer: no request is dropped or double-counted.

    The router's contract is that every issued request terminates in
    exactly one of ``ok`` / ``shed`` / ``failed`` (carried on its
    ``serve.request.complete`` event), that every shed decision
    (``serve.request.shed``) surfaces as exactly one shed completion, and
    that every non-shed completion was actually enqueued on a shard at
    least once (``serve.request.submit``; re-routes enqueue again, so the
    submit count may exceed completions but never undercut them).
    Quarantine bookkeeping must balance too: a shard cannot be re-admitted
    or declared dead more often than it was quarantined.  Vacuously green
    on runs that emit no ``serve.*`` events.
    """

    name = "serve-conservation"

    def __init__(self) -> None:
        self._enqueued = 0
        self._shed_events = 0
        self._completes: dict[str, int] = {}
        self._quarantines = 0
        self._resolutions = 0
        self._last_t = 0.0

    def on_event(self, event: TelemetryEvent, auditor: "InvariantAuditor") -> None:
        if not event.name.startswith("serve."):
            return
        self._last_t = event.t_cycles
        if event.name == "serve.request.submit":
            self._enqueued += 1
        elif event.name == "serve.request.shed":
            self._shed_events += 1
        elif event.name == "serve.request.complete":
            status = event.fields.get("status")
            if status not in ("ok", "shed", "failed"):
                auditor.report(
                    self.name,
                    event.t_cycles,
                    f"request completed with unknown status {status!r}",
                )
                return
            self._completes[status] = self._completes.get(status, 0) + 1
        elif event.name == "serve.shard.quarantine":
            self._quarantines += 1
        elif event.name in ("serve.shard.readmit", "serve.shard.dead"):
            self._resolutions += 1
            if self._resolutions > self._quarantines:
                auditor.report(
                    self.name,
                    event.t_cycles,
                    f"{event.name} without a matching serve.shard.quarantine",
                )

    def finish(self, auditor: "InvariantAuditor", snapshot: "LedgerSnapshot | None") -> None:
        completed_shed = self._completes.get("shed", 0)
        if completed_shed != self._shed_events:
            auditor.report(
                self.name,
                self._last_t,
                f"{self._shed_events} shed decision(s) but {completed_shed} "
                "shed completion(s) — a shed request vanished or doubled",
            )
        served = self._completes.get("ok", 0) + self._completes.get("failed", 0)
        if self._enqueued < served:
            auditor.report(
                self.name,
                self._last_t,
                f"{served} request(s) completed on shards but only "
                f"{self._enqueued} were ever enqueued",
            )


class QuarantineRoutingChecker(Checker):
    """Serving layer: no request is placed on a quarantined or dead shard.

    Tracks shard health from the router's own event stream
    (``serve.shard.quarantine`` marks a shard unroutable until its
    ``serve.shard.readmit``; ``serve.shard.dead`` is terminal) and flags
    any ``serve.request.submit`` that names an unroutable shard — the
    exact window a buggy router would keep feeding a lost enclave.
    Vacuously green on runs that emit no ``serve.*`` events.
    """

    name = "serve-quarantine-routing"

    def __init__(self) -> None:
        self._quarantined: set[int] = set()
        self._dead: set[int] = set()

    def on_event(self, event: TelemetryEvent, auditor: "InvariantAuditor") -> None:
        if event.name == "serve.shard.quarantine":
            self._quarantined.add(event.fields.get("shard"))
        elif event.name == "serve.shard.readmit":
            self._quarantined.discard(event.fields.get("shard"))
        elif event.name == "serve.shard.dead":
            shard = event.fields.get("shard")
            self._quarantined.discard(shard)
            self._dead.add(shard)
        elif event.name == "serve.request.submit":
            shard = event.fields.get("shard")
            if shard in self._quarantined:
                auditor.report(
                    self.name,
                    event.t_cycles,
                    f"request enqueued on shard {shard} while quarantined",
                )
            elif shard in self._dead:
                auditor.report(
                    self.name,
                    event.t_cycles,
                    f"request enqueued on shard {shard} after it was declared dead",
                )


class SpanConservationChecker(Checker):
    """Serving layer: every ``serve.request.span`` is a valid span tree.

    The router promises span boundaries stamped in monotonic order
    (submit ≤ enqueue ≤ dequeue ≤ result ≤ complete, with absent
    intermediate boundaries only for non-ok requests), exactly one span
    record per request id, and — because :mod:`repro.slo.trace` builds
    children that tile ``[t_submit, t_complete]`` — an exact
    root-equals-children cycle attribution.  This checker guards the
    emitter side of that promise, live or in JSONL replay.  Vacuously
    green on runs without span events.
    """

    name = "span-conservation"

    #: Boundary fields in request order (``t_complete`` is separate: it
    #: is the only one allowed to equal a missing predecessor).
    _ORDERED = ("t_submit", "t_enqueue", "t_dequeue", "t_result", "t_complete")

    def __init__(self) -> None:
        self._seen: set[Any] = set()

    def on_event(self, event: TelemetryEvent, auditor: "InvariantAuditor") -> None:
        if event.name != "serve.request.span":
            return
        fields = event.fields
        request_id = fields.get("request_id")
        if request_id in self._seen:
            auditor.report(
                self.name,
                event.t_cycles,
                f"request {request_id} published more than one span record",
            )
            return
        self._seen.add(request_id)
        if fields.get("t_submit") is None or fields.get("t_complete") is None:
            auditor.report(
                self.name,
                event.t_cycles,
                f"request {request_id} span lacks a submit/complete boundary",
            )
            return
        boundaries = [
            (name, fields[name])
            for name in self._ORDERED
            if fields.get(name) is not None
        ]
        for (prev_name, prev_t), (next_name, next_t) in zip(
            boundaries, boundaries[1:]
        ):
            if next_t < prev_t:
                auditor.report(
                    self.name,
                    event.t_cycles,
                    f"request {request_id} span boundary {next_name} "
                    f"({next_t:.0f}) precedes {prev_name} ({prev_t:.0f})",
                )
                return
        if fields.get("status") == "ok" and len(boundaries) != len(self._ORDERED):
            missing = [
                name for name in self._ORDERED if fields.get(name) is None
            ]
            auditor.report(
                self.name,
                event.t_cycles,
                f"ok request {request_id} span is missing boundaries "
                f"{missing} — an executed request must cross all of them",
            )


class ScalingSanityChecker(Checker):
    """Autoscale layer: scaling actions are sane and conserve requests.

    Three invariants over the ``autoscale.*`` / ``serve.shard.*`` event
    streams:

    1. **No scale-up under quarantine** — an ``autoscale.spawn`` while
       any shard sits in quarantine is a violation: the quarantined
       capacity may be re-admitted any moment, and the controller
       promises to suppress spawns until the episode resolves.
    2. **Retirement is terminal** — a ``serve.request.submit`` naming a
       retired shard, or a ``serve.shard.add`` re-using a retired
       index, would mean the router kept feeding an enclave the
       autoscaler already tore down.
    3. **Re-homing conservation** — every request id listed in a
       ``serve.shard.retire`` event's ``drained_request_ids`` must
       re-surface as exactly a submit (re-homed onto a surviving shard)
       or a shed; :meth:`finish` flags any id that simply vanished.

    Vacuously green on runs that never scale.
    """

    name = "scaling-sanity"

    def __init__(self) -> None:
        self._quarantined: set[int] = set()
        self._retired: set[int] = set()
        self._pending_rehome: set[Any] = set()
        self._last_t = 0.0

    def on_event(self, event: TelemetryEvent, auditor: "InvariantAuditor") -> None:
        fields = event.fields
        if event.name == "serve.shard.quarantine":
            self._quarantined.add(fields.get("shard"))
        elif event.name in ("serve.shard.readmit", "serve.shard.dead"):
            self._quarantined.discard(fields.get("shard"))
        elif event.name == "autoscale.spawn":
            self._last_t = event.t_cycles
            if self._quarantined:
                auditor.report(
                    self.name,
                    event.t_cycles,
                    f"shard {fields.get('shard')} spawned while shard(s) "
                    f"{sorted(self._quarantined)} are quarantined",
                )
        elif event.name == "serve.shard.retire":
            self._last_t = event.t_cycles
            shard = fields.get("shard")
            if shard in self._retired:
                auditor.report(
                    self.name,
                    event.t_cycles,
                    f"shard {shard} retired twice",
                )
            self._retired.add(shard)
            self._pending_rehome.update(fields.get("drained_request_ids", ()))
        elif event.name == "serve.shard.add":
            shard = fields.get("shard")
            if shard in self._retired:
                auditor.report(
                    self.name,
                    event.t_cycles,
                    f"retired shard {shard} re-added to the routing set",
                )
        elif event.name == "serve.request.submit":
            shard = fields.get("shard")
            if shard in self._retired:
                auditor.report(
                    self.name,
                    event.t_cycles,
                    f"request {fields.get('request_id')} enqueued on shard "
                    f"{shard} after its retirement",
                )
            self._pending_rehome.discard(fields.get("request_id"))
        elif event.name == "serve.request.shed":
            self._pending_rehome.discard(fields.get("request_id"))

    def finish(self, auditor: "InvariantAuditor", snapshot: "LedgerSnapshot | None") -> None:
        if self._pending_rehome:
            lost = sorted(str(rid) for rid in self._pending_rehome)
            auditor.report(
                self.name,
                self._last_t,
                f"{len(lost)} drained request(s) never re-homed or shed "
                f"after shard retirement: {lost[:5]}"
                + ("…" if len(lost) > 5 else ""),
            )


class ObsAnomalyChecker(Checker):
    """Observability: surface ``obs.anomaly`` events as diagnostics.

    Anomalies are *signals*, not invariant violations — a flash crowd
    legitimately breaches its lane's EWMA band — so this checker reports
    through the auditor's diagnostic channel: the verdict text carries
    them, ``ok`` does not.  Audited runs with no sampler attached emit
    no ``obs.anomaly`` events and stay silent here.
    """

    name = "obs-anomaly"

    def on_event(self, event: TelemetryEvent, auditor: "InvariantAuditor") -> None:
        if event.name != "obs.anomaly":
            return
        fields = event.fields
        auditor.report_diagnostic(
            self.name,
            event.t_cycles,
            f"{fields.get('lane')}/{fields.get('metric')} "
            f"{fields.get('kind')} at window {fields.get('window')} "
            f"(value {fields.get('value', 0.0):.4g}, "
            f"z {fields.get('z', 0.0):.2f})",
        )


def default_checkers() -> list[Checker]:
    """One fresh instance of every stock checker."""
    return [
        ConservationChecker(),
        ImmediateFallbackChecker(),
        ConfigPhaseChecker(),
        ArgminChecker(),
        RecoveryChecker(),
        RouterConservationChecker(),
        QuarantineRoutingChecker(),
        SpanConservationChecker(),
        ScalingSanityChecker(),
        ObsAnomalyChecker(),
    ]


class InvariantAuditor:
    """Runs a set of checkers over one cell's event stream.

    Args:
        cell: Label of the cell being audited (for violation messages).
        n_cpus: Logical CPU count of the simulated machine (``N`` in the
            paper's ``N/2 + 1``); None disables the absolute probe-count
            check.
        workers_cap: Size of the zc worker pool, which caps the probe
            sweep; resolved lazily from the live capture's backend when
            not given (replay passes it from the JSONL meta line).
        capture: The live :class:`CellCapture`, when auditing on the bus;
            enables the (live-only) conservation checker.
        checkers: Checker instances to run; defaults to
            :func:`default_checkers`.
        halt_on_violation: Detach from the bus on the first violation —
            turns every checker one-shot (and exercises the bus's
            unsubscribe-during-emit guarantee).
        recent_window: How many recent events each violation's ``window``
            context keeps.
    """

    def __init__(
        self,
        cell: str = "?",
        n_cpus: int | None = None,
        workers_cap: int | None = None,
        capture: "CellCapture | None" = None,
        checkers: Sequence[Checker] | None = None,
        halt_on_violation: bool = False,
        recent_window: int = 8,
    ) -> None:
        self.cell = cell
        self.n_cpus = n_cpus
        self.workers_cap = workers_cap
        self.capture = capture
        self.checkers = list(checkers) if checkers is not None else default_checkers()
        self.halt_on_violation = halt_on_violation
        self.violations: list[Violation] = []
        #: Non-failing observations (anomaly verdicts and the like):
        #: rendered with the verdict but never counted against ``ok``.
        self.diagnostics: list[Violation] = []
        self._recent: deque[TelemetryEvent] = deque(maxlen=recent_window)
        self._bus: EventBus | None = None

    # ------------------------------------------------------------------
    # Bus lifecycle (live mode)
    # ------------------------------------------------------------------
    def attach(self, bus: EventBus) -> "InvariantAuditor":
        """Subscribe to ``bus``; every emit flows through the checkers."""
        bus.subscribe(self.on_event)
        self._bus = bus
        return self

    def detach(self) -> None:
        """Unsubscribe from the bus (idempotent; safe mid-emit)."""
        if self._bus is not None:
            self._bus.unsubscribe(self.on_event)
            self._bus = None

    # ------------------------------------------------------------------
    # Event flow
    # ------------------------------------------------------------------
    def on_event(self, event: TelemetryEvent) -> None:
        """Feed one event to every checker (bus subscriber entry point)."""
        self._recent.append(event)
        for checker in self.checkers:
            checker.on_event(event, self)

    def feed(self, events: Sequence[TelemetryEvent]) -> "InvariantAuditor":
        """Replay a pre-recorded stream through the checkers."""
        for event in events:
            self.on_event(event)
        return self

    def report(self, checker: str, t_cycles: float, message: str) -> None:
        """Record one violation (checkers call this)."""
        self.violations.append(
            Violation(
                checker=checker,
                cell=self.cell,
                t_cycles=t_cycles,
                message=message,
                window=tuple(f"{e.t_cycles:.0f}:{e.name}" for e in self._recent),
            )
        )
        if self.halt_on_violation:
            self.detach()  # unsubscribes during the in-flight emit

    def report_diagnostic(self, checker: str, t_cycles: float, message: str) -> None:
        """Record a non-failing observation (diagnostic checkers call this)."""
        self.diagnostics.append(
            Violation(
                checker=checker,
                cell=self.cell,
                t_cycles=t_cycles,
                message=message,
            )
        )

    def finish(self, snapshot: "LedgerSnapshot | None" = None) -> list[Violation]:
        """Detach and run end-of-stream checks; returns all violations."""
        self.detach()
        if snapshot is None and self.capture is not None:
            snapshot = self.capture.snapshot
        for checker in self.checkers:
            checker.finish(self, snapshot)
        return self.violations

    # ------------------------------------------------------------------
    # Context resolution
    # ------------------------------------------------------------------
    def expected_probe_count(self) -> int | None:
        """``min(N/2, pool size) + 1`` — the paper's probe sweep length."""
        if self.n_cpus is None:
            return None
        cap = self.workers_cap
        if cap is None:
            capture = self.capture
            enclave = capture.enclave if capture is not None else None
            backend = getattr(enclave, "backend", None)
            workers = getattr(backend, "workers", None)
            if workers is None:
                return None
            self.workers_cap = cap = len(workers)
        return min(self.n_cpus // 2, cap) + 1

    @property
    def ok(self) -> bool:
        """True when no checker reported a violation."""
        return not self.violations

    def render(self) -> str:
        """Human-readable verdict for reports and CLI output."""
        if self.ok:
            lines = [f"{self.cell}: all invariants hold"]
        else:
            lines = [f"{self.cell}: {len(self.violations)} violation(s)"]
            lines.extend(f"  - {violation}" for violation in self.violations)
        if self.diagnostics:
            lines.append(f"  {len(self.diagnostics)} diagnostic note(s):")
            lines.extend(f"  ~ {note}" for note in self.diagnostics)
        return "\n".join(lines)


def attach_auditor(
    capture: "CellCapture",
    checkers: Sequence[Checker] | None = None,
    halt_on_violation: bool = False,
) -> InvariantAuditor:
    """Put a live auditor on one cell's bus (the fixture entry point).

    Call while the cell is live (right after the session attaches it);
    call :meth:`InvariantAuditor.finish` after ``Runtime.close()`` has
    finalized the capture so the conservation checker sees the final
    snapshot.
    """
    assert capture.kernel is not None, "attach_auditor needs a live capture"
    auditor = InvariantAuditor(
        cell=capture.label,
        n_cpus=len(capture.kernel.cpus),
        capture=capture,
        checkers=checkers,
        halt_on_violation=halt_on_violation,
    )
    return auditor.attach(capture.bus)
