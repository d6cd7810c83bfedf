"""The autoscale control loop: obs windows in, scaling actions out.

An :class:`AutoscaleController` subscribes to the serving bench's
:class:`repro.obs.MetricSampler` window stream.  Each time a window
closes it:

1. refreshes its per-request service-cost estimate from the span
   records the router handed it since the last window (execute-phase
   cycles, EWMA-smoothed);
2. folds the window's per-lane ``submitted`` counts into the
   :class:`repro.autoscale.forecast.EwmaForecaster`;
3. runs :func:`repro.autoscale.optimizer.fleet_argmin` over
   (shards × workers × batch) against the forecast;
4. acts: spawns shards (``create_enclave`` cost charged on the
   bring-up thread, then :meth:`Router.add_shard` re-homes keys
   incrementally), retires shards (:meth:`Router.retire_shard` drains
   and re-homes, ``destroy_enclave`` charged on a teardown thread),
   retunes the worker-budget arbiter's cap, and sets the live shards'
   dequeue batch;
5. re-arms the predictive admission gate: if the forecast exceeds the
   planned capacity (× headroom), the router sheds the excess *at
   admission* next window, per tenant in proportion to each tenant
   lane's forecast share — before queues build and blow p99.

Scale-up is suppressed while any shard is quarantined (capacity is
already in flux and the probe may re-admit it); the
ScalingSanityChecker (:mod:`repro.regress.audit`) audits exactly that,
plus request conservation across retirement, from the ``autoscale.*`` /
``serve.shard.*`` event streams.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.autoscale.forecast import EwmaForecaster
from repro.autoscale.optimizer import FleetDemand, FleetPlan, fleet_argmin
from repro.sgx.lifecycle import (
    create_enclave,
    creation_cycles,
    destroy_enclave,
    destruction_cycles,
)
from repro.sim.kernel import Program

if TYPE_CHECKING:
    from repro.api import AutoscaleSpec
    from repro.serve.bench import ServeCluster
    from repro.serve.shard import EnclaveShard

#: Service-cost prior (cycles/request) before any span has completed:
#: roughly one served KV request on the calibrated machine.
DEFAULT_SERVICE_CYCLES = 15_000.0

#: EWMA smoothing for the measured service cost (separate from the
#: arrival forecast's alpha: service cost drifts slowly).
SERVICE_ALPHA = 0.3


class AutoscaleController:
    """Drives a :class:`repro.serve.bench.ServeCluster` elastically."""

    def __init__(
        self,
        cluster: "ServeCluster",
        spec: "AutoscaleSpec",
        sampler: Any,
    ) -> None:
        if cluster.spec is None:
            raise ValueError("autoscale needs a spec-built cluster")
        if cluster.arbiter is None:
            raise ValueError("autoscale needs a worker-budget arbiter")
        if sampler is None:
            raise ValueError("autoscale needs the obs window sampler")
        self.cluster = cluster
        self.spec = spec
        self.sampler = sampler
        self.kernel = cluster.kernel
        self.router = cluster.router
        self.arbiter = cluster.arbiter
        self._forecaster = EwmaForecaster(spec.alpha)
        self._service: float | None = None
        #: Execute-phase cycles of the spans since the last window.
        self._service_samples: list[float] = []
        self._next_index = max(shard.index for shard in cluster.shards) + 1
        self._pending_spawns = 0
        #: One record per control window (the artifact's audit trail).
        self.decisions: list[dict[str, Any]] = []
        self.spawns = 0
        self.retires = 0
        self.suppressed_spawns = 0
        # Predictive gate: None = open; else per-tenant admission
        # allowance for the current window.
        self._gate_allowance: dict[str, float] | None = None
        self._gate_admitted: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def install(self) -> "AutoscaleController":
        """Subscribe to the window and span streams; arm the admission gate."""
        self.sampler.add_on_window(self._on_window)
        self.router.span_subscribers.append(self._on_span)
        self.router.predictive_gate = self._admit
        return self

    # ------------------------------------------------------------------
    # Predictive admission
    # ------------------------------------------------------------------
    def _admit(self, tenant: str) -> bool:
        allowance = self._gate_allowance
        if allowance is None:
            return True
        if tenant not in allowance:
            # Lanes the forecaster has never seen carry no forecast to
            # gate on; let the queue-level admission handle them.
            return True
        admitted = self._gate_admitted.get(tenant, 0)
        if admitted < allowance[tenant]:
            self._gate_admitted[tenant] = admitted + 1
            return True
        return False

    def _rearm_gate(self, plan: FleetPlan, demand: FleetDemand) -> float:
        """Set next window's admission allowance; returns the capacity."""
        capacity = plan.capacity_requests(demand) * self.spec.headroom
        total = self._forecaster.forecast("total")
        self._gate_admitted = {}
        if total <= capacity:
            self._gate_allowance = None
            return capacity
        tenant_levels = {
            lane[len("tenant:"):]: self._forecaster.forecast(lane)
            for lane in self._forecaster.lanes()
            if lane.startswith("tenant:")
        }
        if not tenant_levels:
            # No tenant lanes: every request rides the anonymous tenant.
            self._gate_allowance = {"": capacity}
            return capacity
        share_base = sum(tenant_levels.values())
        self._gate_allowance = {
            tenant: capacity * level / share_base if share_base > 0 else 0.0
            for tenant, level in tenant_levels.items()
        }
        return capacity

    # ------------------------------------------------------------------
    # Control loop
    # ------------------------------------------------------------------
    def _on_window(self, index: int, records: list, anomalies: list) -> None:
        now = self.kernel.now
        self._refresh_service_estimate()
        total_submitted = 0
        for record in records:
            lane = record.get("lane")
            if lane == "total":
                total_submitted = record.get("submitted", 0)
                self._forecaster.observe("total", total_submitted)
            elif isinstance(lane, str) and lane.startswith("tenant:"):
                self._forecaster.observe(lane, record.get("submitted", 0))
        live = self._live_shards()
        reference = self.cluster.shards[0].enclave
        demand = FleetDemand(
            arrivals=self._forecaster.forecast("total"),
            window_cycles=self.sampler.interval,
            service_cycles=self._service or DEFAULT_SERVICE_CYCLES,
            dispatch_cycles=self.cluster.spec.dispatch_cycles,
            servers_per_shard=self.cluster.spec.servers_per_shard,
        )
        plan = fleet_argmin(
            demand,
            live_shards=live,
            min_shards=self.spec.min_shards,
            max_shards=self.spec.max_shards,
            worker_options=self.spec.worker_options,
            batch_options=self.spec.batch_options,
            creation_cycles=creation_cycles(reference.heap_bytes),
            destruction_cycles=destruction_cycles(reference.heap_bytes),
            t_es=reference.cost.t_es,
        )
        spawned = 0
        retired = 0
        if plan.shards > live:
            if self.router.quarantined:
                # Never scale up while a shard is quarantined: its probe
                # may re-admit that capacity any moment, and the
                # ScalingSanityChecker treats a spawn here as a
                # violation.
                self.suppressed_spawns += 1
            else:
                for _ in range(plan.shards - live):
                    self._spawn_shard(now)
                    spawned += 1
        elif plan.shards < live:
            for _ in range(live - plan.shards):
                victim = self._retire_candidate()
                if victim is None:
                    break
                self._retire_shard(victim, now)
                retired += 1
        self.arbiter.set_cap(plan.workers * plan.shards, at=now)
        for shard in self.router.shards:
            if shard.index not in self.router.retired:
                shard.batch = plan.batch
        capacity = self._rearm_gate(plan, demand)
        decision = {
            "window": index,
            "t_cycles": now,
            "submitted": total_submitted,
            "forecast": demand.arrivals,
            "service_cycles": demand.service_cycles,
            "live_shards": live,
            "plan_shards": plan.shards,
            "plan_workers": plan.workers,
            "plan_batch": plan.batch,
            "u_cycles": plan.u_cycles,
            "cap": plan.workers * plan.shards,
            "capacity_requests": capacity,
            "gated": self._gate_allowance is not None,
            "spawned": spawned,
            "retired": retired,
        }
        self.decisions.append(decision)
        self._emit("autoscale.decision", tenant="", request_id="", **decision)

    def _on_span(self, span: dict[str, Any]) -> None:
        """Keep a served request's execute-phase cycles for the next window."""
        if span["status"] != "ok":
            return
        t_dequeue = span.get("t_dequeue")
        t_result = span.get("t_result")
        if t_dequeue is None or t_result is None:
            return
        sample = float(t_result - t_dequeue)
        if sample > 0:
            self._service_samples.append(sample)

    def _refresh_service_estimate(self) -> None:
        for sample in self._service_samples:
            self._service = (
                sample
                if self._service is None
                else SERVICE_ALPHA * sample + (1 - SERVICE_ALPHA) * self._service
            )
        self._service_samples.clear()

    # ------------------------------------------------------------------
    # Fleet actions
    # ------------------------------------------------------------------
    def _live_shards(self) -> int:
        """Provisioned shard count: routable plus in-flight bring-ups."""
        live = sum(
            1
            for shard in self.router.shards
            if shard.index not in self.router.retired
            and shard.index not in self.router.dead
        )
        return live + self._pending_spawns

    def _retire_candidate(self) -> "EnclaveShard | None":
        """Deterministic scale-down victim: the newest routable shard."""
        candidates = [
            shard
            for shard in self.router.shards
            if shard.index not in self.router.retired
            and shard.index not in self.router.dead
            and shard.index not in self.router.quarantined
        ]
        if len(candidates) <= 1:
            return None
        return max(candidates, key=lambda shard: shard.index)

    def _spawn_shard(self, now: float) -> None:
        index = self._next_index
        self._next_index += 1
        shard = self.cluster.new_shard(index)
        self._pending_spawns += 1
        self.spawns += 1
        # The cluster owns the runtime from this instant (close() must
        # reach it even if the run ends mid-bring-up); the ledger entry
        # charges provisioning from the decision, creation included.
        self.cluster.shards.append(shard)
        created = creation_cycles(shard.enclave.heap_bytes) + (
            shard.enclave._epc_penalty_cycles
        )
        self.cluster.lifecycle.append(
            {
                "shard": index,
                "servers": shard.n_servers,
                "spawned_at": now,
                "retired_at": None,
                "creation_cycles": created,
                "destruction_cycles": 0.0,
            }
        )
        self._emit(
            "autoscale.spawn",
            shard=index,
            creation_cycles=created,
            tenant="",
            request_id="",
        )

        def bring_up() -> Program:
            yield from create_enclave(shard.runtime.enclave)
            yield from shard.start_program()
            self._pending_spawns -= 1
            self.router.add_shard(shard)

        self.kernel.spawn(
            bring_up(),
            name=f"autoscale-spawn{index}",
            kind="autoscale",
            daemon=True,
        )

    def _retire_shard(self, shard: "EnclaveShard", now: float) -> None:
        self.retires += 1
        drained = self.router.retire_shard(shard)
        destroyed = destruction_cycles(shard.enclave.heap_bytes)
        for entry in self.cluster.lifecycle:
            if entry["shard"] == shard.index and entry["retired_at"] is None:
                entry["retired_at"] = now
                entry["destruction_cycles"] = destroyed
                break
        self._emit(
            "autoscale.retire",
            shard=shard.index,
            drained=len(drained),
            destruction_cycles=destroyed,
            tenant="",
            request_id="",
        )

        def tear_down() -> Program:
            yield from destroy_enclave(shard.runtime.enclave)

        self.kernel.spawn(
            tear_down(),
            name=f"autoscale-retire{shard.index}",
            kind="autoscale",
            daemon=True,
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self) -> dict[str, Any]:
        """The artifact's ``autoscale`` section."""
        return {
            "windows": len(self.decisions),
            "spawns": self.spawns,
            "retires": self.retires,
            "suppressed_spawns": self.suppressed_spawns,
            "forecast_shed": self.router.forecast_shed,
            "service_cycles_estimate": self._service,
            "final_shards": self._live_shards(),
            "final_cap": self.arbiter.cap,
            "decisions": self.decisions,
        }

    def _emit(self, name: str, **fields: Any) -> None:
        bus = self.kernel.bus
        if bus is not None:
            bus.emit(name, **fields)
