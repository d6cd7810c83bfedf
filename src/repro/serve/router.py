"""Request routing across enclave shards.

The router is the untrusted front door of the serving layer:

- **Placement** — ``policy="hash"`` uses rendezvous (highest-random-
  weight) hashing over a keyed BLAKE2b digest, so each key has a stable
  shard preference and losing a shard only re-homes that shard's keys;
  ``policy="round-robin"`` sprays requests evenly (keys lose affinity,
  which for the WAL-backed KV store means a key's value only survives on
  the shard that stored it — fine for uniform benchmarking traffic).
- **Admission** — a full shard queue either sheds with an error
  (``admission="shed"``, the open-loop default) or blocks the submitter
  until space frees (``admission="block"``).  With ``tenant_weights``
  set, shedding is *weighted-fair*: instead of always dropping the
  newcomer, the router sheds whichever tenant is furthest over its
  weighted share of the queue — an over-share tenant's newest queued
  request is evicted to admit an under-share newcomer.
- **Fault handling** — a shard whose enclave is lost is *quarantined*:
  routing skips it, its queued requests re-route to healthy shards, and
  a probe thread drives the enclave's recovery manager; on success the
  shard is re-admitted, on exhausted recovery it is declared dead.
- **Tracing** — every request carries a ``request_id`` and ``tenant``;
  the router stamps admission/queue/execute boundaries off the simulated
  clock and hands one span record per completion to each of its
  ``span_subscribers`` (the autoscaler, a span sink) and to the bus as a
  ``serve.request.span`` event, so :mod:`repro.slo.trace` can rebuild the
  span tree live or from a JSONL replay.  Nothing caps the stream.

Bus events (emitted only when the kernel carries an event bus), all
tagged with ``tenant``/``request_id`` (empty for shard-level events) and
— for request-level events — the ``app`` the request addressed:
``serve.request.submit`` / ``serve.request.complete`` /
``serve.request.shed`` / ``serve.request.span``,
``serve.shard.quarantine`` / ``serve.shard.readmit`` /
``serve.shard.dead``, plus the elastic-fleet pair
``serve.shard.add`` / ``serve.shard.retire`` (the autoscaler's
ScalingSanityChecker consumes the latter two together with the
``autoscale.*`` stream).  The regression auditor's serving checkers
consume exactly these.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.analysis.metrics import LatencyRecorder
from repro.serve.shard import EnclaveShard
from repro.sgx import EnclaveLostError
from repro.sim.instructions import Block
from repro.sim.kernel import Kernel, Program

#: Admission-control policies for a full shard queue.
ADMISSION_CHOICES = ("shed", "block")
#: Request-placement policies.
POLICY_CHOICES = ("hash", "round-robin")


class Request:
    """One in-flight client request.

    Completion is a one-shot event carrying ``(status, payload)`` where
    status is ``"ok"``, ``"shed"`` or ``"failed"``; submitters block on
    ``done`` and read latency off the simulated clock.  The span
    timestamps (``enqueued_at``/``dequeued_at``/``executed_at``) are
    stamped by the shard as the request moves through it; a re-routed
    request's earlier attempts are absorbed into its admission span.
    """

    __slots__ = (
        "op",
        "key",
        "value",
        "app",
        "done",
        "submitted_at",
        "shard",
        "request_id",
        "tenant",
        "enqueued_at",
        "dequeued_at",
        "executed_at",
    )

    def __init__(
        self,
        kernel: Kernel,
        op: str,
        key: bytes,
        value: bytes | None = None,
        *,
        request_id: int = 0,
        tenant: str = "",
        app: str = "kv",
    ) -> None:
        self.op = op
        self.key = key
        self.value = value
        self.app = app
        self.done = kernel.event(name=f"serve:{op}")
        self.submitted_at = kernel.now
        #: Index of the shard that accepted the request (None until queued).
        self.shard: int | None = None
        self.request_id = request_id
        self.tenant = tenant
        #: Simulated instants of the span boundaries (None until reached).
        self.enqueued_at: float | None = None
        self.dequeued_at: float | None = None
        self.executed_at: float | None = None

    @property
    def status(self) -> str | None:
        """Completion status, or None while in flight."""
        return self.done.value[0] if self.done.fired else None

    def complete(self, payload: Any) -> None:
        """Mark served successfully."""
        self.done.fire(("ok", payload))

    def shed(self) -> None:
        """Mark rejected by admission control."""
        self.done.fire(("shed", None))

    def fail(self, reason: str) -> None:
        """Mark failed (shard dead with no healthy alternative)."""
        self.done.fire(("failed", reason))


@dataclass
class TenantStats:
    """Per-tenant request accounting (the contract engine's raw input)."""

    submitted: int = 0
    completed: int = 0
    shed: int = 0
    failed: int = 0
    latency: LatencyRecorder = field(default_factory=LatencyRecorder)

    def counts(self) -> dict[str, int]:
        """The four terminal counters as a plain dict."""
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "shed": self.shed,
            "failed": self.failed,
        }


def _rendezvous_score(key: bytes, shard_index: int) -> bytes:
    # Keyed digest, not hash(): Python's hash is salted per process and
    # would make placement nondeterministic across runs.
    return hashlib.blake2b(
        key + shard_index.to_bytes(4, "big"), digest_size=8
    ).digest()


class Router:
    """Routes client requests across :class:`EnclaveShard` instances."""

    def __init__(
        self,
        kernel: Kernel,
        shards: list[EnclaveShard],
        *,
        policy: str = "hash",
        admission: str = "shed",
        tenant_weights: dict[str, float] | None = None,
    ) -> None:
        if not shards:
            raise ValueError("router needs at least one shard")
        if policy not in POLICY_CHOICES:
            raise ValueError(f"policy must be one of {POLICY_CHOICES}")
        if admission not in ADMISSION_CHOICES:
            raise ValueError(f"admission must be one of {ADMISSION_CHOICES}")
        if tenant_weights is not None:
            if not tenant_weights:
                raise ValueError("tenant_weights must name at least one tenant")
            for tenant, weight in tenant_weights.items():
                if weight <= 0:
                    raise ValueError(f"tenant {tenant!r} needs a positive weight")
        self.kernel = kernel
        self.shards = shards
        self.policy = policy
        self.admission = admission
        self.tenant_weights = tenant_weights
        for shard in shards:
            shard.router = self
        self._rr_next = 0
        self.quarantined: set[int] = set()
        self.dead: set[int] = set()
        #: Shards retired by the autoscaler (permanently unroutable).
        self.retired: set[int] = set()
        #: Predictive-admission hook (autoscaler): ``tenant -> bool``;
        #: False sheds the request up front with reason ``forecast``.
        self.predictive_gate: "Callable[[str], bool] | None" = None
        self.latency = LatencyRecorder()
        #: Per-tenant terminal counters and latency (created on first use).
        self.tenants: dict[str, TenantStats] = {}
        #: Per-app terminal counters and latency (created on first use).
        self.apps: dict[str, TenantStats] = {}
        #: App a request falls back to when it names none.
        self.default_app = getattr(shards[0], "default_app", "kv")
        # Conservation invariant: submitted == completed + shed + failed
        # once the run drains (audited by RouterConservationChecker).
        self.submitted = 0
        self.completed = 0
        self.shed = 0
        self.failed = 0
        #: Requests re-homed off a quarantined shard.
        self.rerouted = 0
        #: Requests shed up front by the predictive-admission gate.
        self.forecast_shed = 0
        #: Lifetime mid-run shard additions / retirements.
        self.shards_added = 0
        self.shards_retired = 0
        #: Queued requests evicted by weighted-fair admission.
        self.preempted = 0
        #: Lifetime quarantine entries / re-admissions (the live sets
        #: above only show current membership).
        self.quarantines = 0
        self.readmissions = 0
        #: Called with every completed request's span record, in
        #: completion order (see ``_record_span``).
        self.span_subscribers: list[Callable[[dict[str, Any]], None]] = []
        #: Span records handed out so far.
        self.spans_recorded = 0
        #: Quarantine entry instants and resolved recovery episodes.
        self._quarantined_at: dict[int, float] = {}
        self.recoveries: list[dict[str, Any]] = []
        self._next_request_id = 0

    # ------------------------------------------------------------------
    # Client surface
    # ------------------------------------------------------------------
    def request(
        self,
        op: str,
        key: bytes,
        value: bytes | None = None,
        *,
        tenant: str = "",
        app: str | None = None,
    ) -> Program:
        """Issue one request end-to-end; returns ``(status, payload)``."""
        self._next_request_id += 1
        req = Request(
            self.kernel,
            op,
            key,
            value,
            request_id=self._next_request_id,
            tenant=tenant,
            app=app if app is not None else self.default_app,
        )
        self.submitted += 1
        stats = self._tenant(tenant)
        stats.submitted += 1
        app_stats = self._app(req.app)
        app_stats.submitted += 1
        if self.predictive_gate is not None and not self.predictive_gate(tenant):
            # Shed *before* queueing: the forecast says admitting this
            # request would blow the window's capacity (and p99).  Only
            # fresh client arrivals are gated — re-routed/drained
            # requests go through ``submit`` directly.
            self.forecast_shed += 1
            self._shed(req, reason="forecast")
        else:
            yield from self.submit(req)
        if not req.done.fired:
            yield Block(req.done)
        status, payload = req.done.value
        t_complete = self.kernel.now
        if status == "ok":
            self.completed += 1
            stats.completed += 1
            app_stats.completed += 1
            latency = t_complete - req.submitted_at
            self.latency.record(latency)
            stats.latency.record(latency)
            app_stats.latency.record(latency)
        elif status == "failed":
            self.failed += 1
            stats.failed += 1
            app_stats.failed += 1
        else:
            stats.shed += 1
            app_stats.shed += 1
        bus = self.kernel.bus
        if bus is not None:
            bus.emit(
                "serve.request.complete",
                shard=req.shard,
                op=op,
                status=status,
                tenant=req.tenant,
                app=req.app,
                request_id=req.request_id,
            )
        self._record_span(req, status, t_complete, bus)
        return status, payload

    def submit(self, request: Request) -> Program:
        """Route ``request`` onto a shard queue (or shed it).

        Does not wait for completion and does not touch the submitted
        counter — re-routing a quarantined shard's requests goes through
        here too.
        """
        while True:
            shard = self._pick(request.key)
            if shard is None:
                self._shed(request, reason="no-shard")
                return request
            if shard.try_enqueue(request):
                bus = self.kernel.bus
                if bus is not None:
                    bus.emit(
                        "serve.request.submit",
                        shard=shard.index,
                        op=request.op,
                        tenant=request.tenant,
                        app=request.app,
                        request_id=request.request_id,
                    )
                return request
            if self.admission == "shed":
                if self.tenant_weights is not None and self._preempt_for(
                    shard, request
                ):
                    return request
                self._shed(request, reason="queue-full", shard=shard.index)
                return request
            # Blocking admission: wait for space, then re-pick (the shard
            # may have been quarantined while we slept).
            yield Block(shard.space_event())

    def _shed(self, request: Request, reason: str, shard: int | None = None) -> None:
        """Reject ``request`` (admission control); fires its completion."""
        self.shed += 1
        bus = self.kernel.bus
        if bus is not None:
            fields: dict[str, Any] = {
                "op": request.op,
                "reason": reason,
                "tenant": request.tenant,
                "app": request.app,
                "request_id": request.request_id,
            }
            if shard is not None:
                fields["shard"] = shard
            bus.emit("serve.request.shed", **fields)
        request.shed()

    # ------------------------------------------------------------------
    # Weighted-fair admission
    # ------------------------------------------------------------------
    def _weight(self, tenant: str) -> float:
        weights = self.tenant_weights or {}
        return weights.get(tenant, 1.0)

    def _preempt_for(self, shard: EnclaveShard, incoming: Request) -> bool:
        """Weighted-fair shed: evict an over-share tenant for ``incoming``.

        Each tenant's *pressure* on the full queue is ``queued / weight``.
        If some queued tenant's pressure exceeds what the incoming
        tenant's would be after admission, that tenant's newest queued
        request is shed instead of the newcomer.  Returns True when the
        incoming request was admitted this way.
        """
        occupancy = shard.tenant_occupancy()
        incoming_pressure = (
            occupancy.get(incoming.tenant, 0) + 1
        ) / self._weight(incoming.tenant)
        # Deterministic victim choice: max pressure, ties to the
        # lexicographically largest tenant name.
        victim_tenant: str | None = None
        victim_pressure = incoming_pressure
        for tenant, queued in sorted(occupancy.items()):
            pressure = queued / self._weight(tenant)
            if pressure > victim_pressure or (
                pressure == victim_pressure
                and victim_tenant is not None
                and tenant > victim_tenant
            ):
                victim_tenant = tenant
                victim_pressure = pressure
        if victim_tenant is None:
            return False
        victim = shard.evict_newest(victim_tenant)
        if victim is None:  # pragma: no cover - occupancy said otherwise
            return False
        self.preempted += 1
        self._shed(victim, reason="preempted", shard=shard.index)
        admitted = shard.try_enqueue(incoming)
        assert admitted, "eviction must leave room for the incoming request"
        self._emit(
            "serve.request.submit",
            shard=shard.index,
            op=incoming.op,
            tenant=incoming.tenant,
            app=incoming.app,
            request_id=incoming.request_id,
        )
        return True

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def available_shards(self) -> list[EnclaveShard]:
        """Shards currently routable, quarantining lost ones on sight."""
        healthy = []
        for shard in self.shards:
            if (
                shard.index in self.dead
                or shard.index in self.quarantined
                or shard.index in self.retired
            ):
                continue
            if not shard.available:
                # Lazy detection: the injector flipped enclave.lost but no
                # request has tripped over it yet.
                if shard.enclave.lost:
                    self.quarantine(shard)
                continue
            healthy.append(shard)
        return healthy

    def _pick(self, key: bytes) -> EnclaveShard | None:
        candidates = self.available_shards()
        if not candidates:
            return None
        if self.policy == "round-robin":
            shard = candidates[self._rr_next % len(candidates)]
            self._rr_next += 1
            return shard
        return max(candidates, key=lambda s: _rendezvous_score(key, s.index))

    # ------------------------------------------------------------------
    # Fault handling
    # ------------------------------------------------------------------
    def shard_lost(self, shard: EnclaveShard, request: Request) -> None:
        """A server thread lost its enclave mid-request (recovery spent).

        Called synchronously from the shard's server loop: quarantine the
        shard and re-home the failed request on a fresh thread.
        """
        self.quarantine(shard)
        self._respawn_submit(request)

    def quarantine(self, shard: EnclaveShard) -> None:
        """Stop routing to ``shard``; re-home its queue; probe recovery."""
        if shard.index in self.quarantined or shard.index in self.dead:
            return
        self.quarantined.add(shard.index)
        self.quarantines += 1
        self._quarantined_at[shard.index] = self.kernel.now
        self._emit(
            "serve.shard.quarantine", shard=shard.index, tenant="", request_id=""
        )
        for queued in shard.drain():
            self._respawn_submit(queued)
        self.kernel.spawn(
            self._probe(shard),
            name=f"probe-shard{shard.index}",
            kind="serve-probe",
            daemon=True,
        )

    def _respawn_submit(self, request: Request) -> None:
        self.rerouted += 1
        request.shard = None
        request.enqueued_at = None
        request.dequeued_at = None

        def resubmit() -> Program:
            yield from self.submit(request)

        self.kernel.spawn(
            resubmit(), name="serve-reroute", kind="serve-router", daemon=True
        )

    def _probe(self, shard: EnclaveShard) -> Program:
        """Drive the quarantined enclave's recovery, then re-admit it.

        The probe ecall enters the lost enclave, which routes it through
        the installed :class:`repro.faults.recovery.EnclaveRecovery`
        (single-flight, capped exponential backoff).  Recovery success
        re-admits the shard; exhausted attempts (or no recovery manager)
        declare it dead.
        """
        try:
            yield from shard.probe()
        except EnclaveLostError:
            self.quarantined.discard(shard.index)
            self.dead.add(shard.index)
            self._resolve_recovery(shard.index, "dead")
            self._emit(
                "serve.shard.dead", shard=shard.index, tenant="", request_id=""
            )
            return
        self.quarantined.discard(shard.index)
        self.readmissions += 1
        recovery_cycles = self._resolve_recovery(shard.index, "readmitted")
        self._emit(
            "serve.shard.readmit",
            shard=shard.index,
            recovery_cycles=recovery_cycles,
            tenant="",
            request_id="",
        )

    # ------------------------------------------------------------------
    # Elastic fleet (autoscaler surface)
    # ------------------------------------------------------------------
    def add_shard(self, shard: EnclaveShard) -> None:
        """Admit a freshly spawned shard into the routing set.

        Rendezvous hashing makes this incremental: only keys whose
        highest score moves to the new shard re-home; every other key
        keeps its placement bit-for-bit (covered by
        ``tests/serve/test_router.py``).
        """
        if any(existing.index == shard.index for existing in self.shards):
            raise ValueError(f"shard index {shard.index} already routed")
        shard.router = self
        self.shards.append(shard)
        self.shards_added += 1
        self._emit("serve.shard.add", shard=shard.index, tenant="", request_id="")

    def retire_shard(self, shard: EnclaveShard) -> list[Request]:
        """Permanently remove ``shard`` from routing; re-home its queue.

        Unlike quarantine there is no probe/readmit path — retirement is
        the autoscaler scaling down.  Queued-but-unstarted requests are
        drained and resubmitted to the surviving shards (conservation
        across retire is audited by the ScalingSanityChecker via the
        ``drained_request_ids`` event field).  Returns the drained
        requests.
        """
        if shard.index in self.retired:
            return []
        shard.stop()
        self.retired.add(shard.index)
        self.shards_retired += 1
        drained = shard.drain()
        self._emit(
            "serve.shard.retire",
            shard=shard.index,
            drained=len(drained),
            drained_request_ids=[request.request_id for request in drained],
            tenant="",
            request_id="",
        )
        for queued in drained:
            self._respawn_submit(queued)
        return drained

    def _resolve_recovery(self, shard_index: int, outcome: str) -> float:
        """Close a quarantine episode; returns its duration in cycles."""
        started = self._quarantined_at.pop(shard_index, self.kernel.now)
        cycles = self.kernel.now - started
        self.recoveries.append(
            {"shard": shard_index, "outcome": outcome, "cycles": cycles}
        )
        return cycles

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Counter snapshot (the bench folds this into its artifact)."""
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "shed": self.shed,
            "failed": self.failed,
            "rerouted": self.rerouted,
            "preempted": self.preempted,
            "forecast_shed": self.forecast_shed,
            "quarantines": self.quarantines,
            "readmissions": self.readmissions,
            "shards_added": self.shards_added,
            "shards_retired": self.shards_retired,
            "quarantined": sorted(self.quarantined),
            "dead": sorted(self.dead),
            "retired": sorted(self.retired),
        }

    def _tenant(self, tenant: str) -> TenantStats:
        stats = self.tenants.get(tenant)
        if stats is None:
            stats = self.tenants[tenant] = TenantStats()
        return stats

    def _app(self, app: str) -> TenantStats:
        stats = self.apps.get(app)
        if stats is None:
            stats = self.apps[app] = TenantStats()
        return stats

    def _record_span(
        self, request: Request, status: str, t_complete: float, bus: Any
    ) -> None:
        """Hand the request's span boundaries to every subscriber.

        One flat record per request; :mod:`repro.slo.trace` turns it into
        the admission → queue → execute → reply tree.  Subscribers get it
        with no bus installed (the bench reads spans without telemetry);
        the matching ``serve.request.span`` event on ``bus`` makes the
        same record reconstructable from a JSONL export.  With neither, no
        record is built.
        """
        self.spans_recorded += 1
        subscribers = self.span_subscribers
        if not subscribers and bus is None:
            return
        record = {
            "request_id": request.request_id,
            "tenant": request.tenant,
            "app": request.app,
            "op": request.op,
            "status": status,
            "shard": request.shard,
            "t_submit": request.submitted_at,
            "t_enqueue": request.enqueued_at,
            "t_dequeue": request.dequeued_at,
            "t_result": request.executed_at,
            "t_complete": t_complete,
        }
        for subscriber in subscribers:
            subscriber(record)
        if bus is not None:
            bus.emit("serve.request.span", **record)

    def _emit(self, name: str, **fields: Any) -> None:
        bus = self.kernel.bus
        if bus is not None:
            bus.emit(name, **fields)
