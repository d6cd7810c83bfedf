"""The windowed metric sampler: bus events → per-interval lane records.

A :class:`MetricSampler` owns a fixed grid of ``n_windows`` intervals of
``interval_cycles`` simulated cycles starting at install time ``t0``.
Window ``k`` covers ``[t0 + k·I, t0 + (k+1)·I)`` — an event timestamped
exactly on a boundary belongs to the *next* window.  Ticks are pure
driver-side :meth:`repro.sim.kernel.Kernel.call_at` callbacks at each
boundary, so sampling costs zero simulated cycles and never perturbs
the schedule it observes.

**Why raw windows exist.**  The sampler accumulates *raw* per-window
data (integer counters, latency sample lists, per-shard wasted cycles)
and formats each closing window's records from it with
:func:`build_window_records` for its live consumers (console, autoscale
hook, anomaly detector).  The artifact's records are formatted again
from the raw windows by :func:`repro.serve.bench.build_artifact`; a
sliced run first merges the per-slice raw windows with
:func:`merge_raw_windows` (counters sum, samples pool, shard lanes copy
from their owning slice) — so a sliced run's window stream is
byte-identical to the unsliced one.  Two rules make that hold:

- integer counters may accumulate into any lane at event time (integer
  addition commutes), but *floats* (``u_cycles``, gauges) only ever
  accumulate into their owning shard lane; the total lane derives them
  by summing shard lanes in index order inside the formatter, never in
  arrival order;
- latency percentiles are computed from pooled sample lists
  (sort-based, hence pooling-order independent).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.analysis.metrics import LatencyRecorder
from repro.telemetry.events import TelemetryEvent

#: Default window count when the caller gives a duration but no interval.
DEFAULT_WINDOWS = 10

#: Integer counters carried by every lane accumulator.
LANE_COUNTERS = (
    "submitted",
    "completed",
    "shed",
    "preempted",
    "failed",
    "faults",
    "sched_decisions",
    "fallbacks",
)

#: Lane naming scheme (documented in docs/observability.md): the fleet
#: aggregate is ``total``, shard lanes are ``shard<i>`` by global index,
#: tenant lanes are ``tenant:<name>`` and appear only in windows where
#: the tenant was active.
TOTAL_LANE = "total"


def shard_lane(index: int) -> str:
    """The lane name for global shard index ``index``."""
    return f"shard{index}"


def tenant_lane(name: str) -> str:
    """The lane name for tenant ``name``."""
    return f"tenant:{name}"


def _new_lane() -> dict[str, Any]:
    lane: dict[str, Any] = {name: 0 for name in LANE_COUNTERS}
    lane["u_cycles"] = 0.0
    lane["latency_cycles"] = []
    return lane


def _source_shard_lane(source: Any) -> str | None:
    """Map an enclave name like ``shard-3`` to its lane (else None)."""
    if isinstance(source, str) and source.startswith("shard-"):
        suffix = source[6:]
        if suffix.isdigit():
            return shard_lane(int(suffix))
    return None


class MetricSampler:
    """Closes fixed-cadence windows over the kernel's telemetry bus.

    Args:
        kernel: The simulation kernel to observe.  If it has no event
            bus, :meth:`install` creates a non-retaining one
            (``max_events=1``) and removes it again on :meth:`detach`.
        interval_cycles: Window width in simulated cycles (> 0).
        n_windows: Number of windows on the grid (>= 1).  The sampler's
            :attr:`horizon` is ``t0 + n_windows · interval_cycles``;
            events past it are tallied in :attr:`spilled` per lane and
            counter.
        shards: :class:`repro.serve.shard.EnclaveShard` list for gauge
            sampling (queue depth, worker occupancy) and for the static
            shard-lane set.  May be a subset of a larger cluster (the
            slice runner passes only the shards it hosts).
        detector: Optional :class:`repro.obs.anomaly.AnomalyDetector`
            fed each window's records as they close (live path).
        on_window: Optional callback ``(index, records, anomalies)``
            invoked after each window closes — the live console hook.

    The sampler keeps :attr:`raw_windows`, not formatted records: a
    window's records live only as long as its callbacks, and the
    artifact formats every window again from the raw data
    (:func:`repro.serve.bench.build_artifact`).
    """

    def __init__(
        self,
        kernel: Any,
        interval_cycles: float,
        n_windows: int,
        *,
        shards: Any = (),
        detector: Any = None,
        on_window: Callable[[int, list, list], None] | None = None,
    ) -> None:
        if interval_cycles <= 0:
            raise ValueError("interval_cycles must be > 0")
        if n_windows < 1:
            raise ValueError("n_windows must be >= 1")
        self.kernel = kernel
        self.interval = float(interval_cycles)
        self.n_windows = int(n_windows)
        self.shards = sorted(shards, key=lambda shard: shard.index)
        self.detector = detector
        self.on_window = on_window
        #: Extra ``(index, records, anomalies)`` subscribers (autoscale
        #: control loop etc.), invoked after :attr:`on_window`.
        self._window_hooks: list[Callable[[int, list, list], None]] = []
        self.t0: float | None = None
        self.horizon: float | None = None
        #: Raw per-window accumulators, in window order (merge input).
        self.raw_windows: list[dict[str, Any]] = []
        #: Events landing past the horizon, as lane → {counter → count}:
        #: the counter each would have bumped (``latency_count`` for a
        #: span's latency sample), so windowed + spilled = run totals.
        self.spilled: dict[str, dict[str, int]] = {}
        #: Anomalies the attached detector flagged (live path).
        self.anomalies: list[dict[str, Any]] = []
        self._acc: dict[int, dict[str, dict[str, Any]]] = {}
        #: (shard, tenant) → lane-name list; callers iterate, never mutate.
        self._lane_cache: dict[tuple, list[str]] = {}
        self._t0 = 0.0
        self._closed_windows = 0
        self._bus: Any = None
        self._owns_bus = False
        self._installed = False
        self._detached = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def shard_lanes(self) -> list[str]:
        """Static shard-lane names, ascending by global index."""
        return [shard_lane(shard.index) for shard in self.shards]

    def install(self) -> "MetricSampler":
        """Subscribe to the bus and arm one tick timer per boundary."""
        if self._installed:
            raise RuntimeError("sampler already installed")
        self._installed = True
        kernel = self.kernel
        self.t0 = self._t0 = kernel.now
        self.horizon = self.t0 + self.interval * self.n_windows
        bus = kernel.bus
        if bus is None:
            # Emit-only shim, not a full EventBus: every emit site in
            # the simulator pays per call once ``kernel.bus`` is set, so
            # the detached-run path skips event construction, storage
            # and subscriber fan-out entirely and dispatches straight
            # into the sampler (the <10% host-overhead budget lives or
            # dies on this).
            bus = _SamplerBus(kernel, self)
            kernel.bus = bus
            self._owns_bus = True
            self._bus = bus
        else:
            self._bus = bus
            bus.subscribe(self._on_event)
        for index in range(self.n_windows):
            kernel.call_at(
                self.t0 + (index + 1) * self.interval, self._make_tick(index)
            )
        return self

    def detach(self) -> None:
        """Unsubscribe; flush windows the clock never reached.  Idempotent.

        Benchmarks drive the kernel to :attr:`horizon` before detaching,
        so the flush is a no-op there; unit tests that stop early still
        get a complete grid (trailing windows sample end-state gauges).
        """
        if not self._installed or self._detached:
            return
        for index in range(self._closed_windows, self.n_windows):
            self._close_window(index)
        self._detached = True
        if self._bus is not None:
            if self._owns_bus:
                if self.kernel.bus is self._bus:
                    self.kernel.bus = None
            else:
                self._bus.unsubscribe(self._on_event)
            self._bus = None

    def _make_tick(self, index: int) -> Callable[[], None]:
        def tick() -> None:
            if not self._detached:
                self._close_window(index)

        return tick

    def _close_window(self, index: int) -> None:
        if index != self._closed_windows:
            return  # late timer after an early detach already flushed it
        self._closed_windows += 1
        lanes = self._acc.pop(index, None) or {}
        gauges: dict[str, dict[str, Any]] = {}
        for shard in self.shards:
            backend = getattr(shard.enclave, "backend", None)
            active = cap = None
            if backend is not None and hasattr(backend, "active_worker_target"):
                workers = getattr(backend, "workers", None)
                if workers:
                    active = int(backend.active_worker_target)
                    cap = len(workers)
            gauges[shard_lane(shard.index)] = {
                "queue_depth": len(shard.queue),
                "workers_active": active,
                "workers_cap": cap,
            }
        raw = {"window": index, "lanes": lanes, "gauges": gauges}
        self.raw_windows.append(raw)
        records = build_window_records(
            raw,
            interval_cycles=self.interval,
            freq_hz=self.kernel.spec.freq_hz,
            shard_lanes=self.shard_lanes,
        )
        fresh: list[dict[str, Any]] = []
        if self.detector is not None:
            for record in records:
                fresh.extend(self.detector.observe(record))
            self.anomalies.extend(fresh)
            bus = self._bus
            if bus is not None:
                for anomaly in fresh:
                    bus.emit("obs.anomaly", **anomaly)
        if self.on_window is not None:
            self.on_window(index, records, fresh)
        for hook in self._window_hooks:
            hook(index, records, fresh)

    def add_on_window(self, hook: Callable[[int, list, list], None]) -> None:
        """Subscribe an extra per-window callback (multi-consumer hook).

        Runs after :attr:`on_window` with the same ``(index, records,
        anomalies)`` arguments; subscription order is invocation order.
        """
        self._window_hooks.append(hook)

    # ------------------------------------------------------------------
    # Event accounting
    # ------------------------------------------------------------------
    def _lane_accs(
        self, t_cycles: float, lane_names: list[str], counter: str
    ) -> list[dict[str, Any]] | None:
        """The window accumulators of ``lane_names`` at ``t_cycles``, or
        None past the horizon, where the event is tallied in
        :attr:`spilled` under ``counter``."""
        index = int((t_cycles - self._t0) // self.interval)
        if index >= self.n_windows:
            for name in lane_names:
                spilled = self.spilled.setdefault(name, {})
                spilled[counter] = spilled.get(counter, 0) + 1
            return None
        if index < 0:
            index = 0
        window = self._acc.get(index)
        if window is None:
            window = self._acc[index] = {}
        accs = []
        for name in lane_names:
            lane = window.get(name)
            if lane is None:
                lane = window[name] = _new_lane()
            accs.append(lane)
        return accs

    def _bump(
        self, t_cycles: float, counter: str, lane_names: list[str]
    ) -> None:
        accs = self._lane_accs(t_cycles, lane_names, counter)
        if accs is not None:
            for lane in accs:
                lane[counter] += 1

    def _request_lanes(self, fields: dict[str, Any]) -> list[str]:
        shard = fields.get("shard")
        tenant = fields.get("tenant")
        key = (shard, tenant)
        lanes = self._lane_cache.get(key)
        if lanes is None:
            lanes = [TOTAL_LANE]
            if shard is not None and shard != "":
                lanes.append(shard_lane(int(shard)))
            if tenant:
                lanes.append(tenant_lane(tenant))
            self._lane_cache[key] = lanes
        return lanes

    def _on_event(self, event: TelemetryEvent) -> None:
        """Real-bus subscriber (telemetry session owns the bus)."""
        self._dispatch(event.name, event.t_cycles, event.fields)

    def _dispatch(self, name: str, t_cycles: float, fields: dict[str, Any]) -> None:
        handler = _HANDLERS.get(name)
        if handler is not None:
            handler(self, t_cycles, fields)
        elif name.startswith("fault."):
            self._on_fault(t_cycles, fields)

    def _on_submit(self, t_cycles: float, fields: dict[str, Any]) -> None:
        self._bump(t_cycles, "submitted", self._request_lanes(fields))

    def _on_complete(self, t_cycles: float, fields: dict[str, Any]) -> None:
        counter = _STATUS_COUNTERS.get(fields.get("status"))
        if counter is not None:
            self._bump(t_cycles, counter, self._request_lanes(fields))

    def _on_shed(self, t_cycles: float, fields: dict[str, Any]) -> None:
        # Terminal shed counts come from the ``complete`` event; this one
        # only contributes the preemption rate (weighted-fair evictions).
        if fields.get("reason") == "preempted":
            self._bump(t_cycles, "preempted", self._request_lanes(fields))

    def _on_span(self, t_cycles: float, fields: dict[str, Any]) -> None:
        if fields.get("status") != "ok":
            return
        latency = fields["t_complete"] - fields["t_submit"]
        accs = self._lane_accs(t_cycles, self._request_lanes(fields), "latency_count")
        if accs is not None:
            for lane in accs:
                lane["latency_cycles"].append(latency)

    def _on_decision(self, t_cycles: float, fields: dict[str, Any]) -> None:
        owner = _source_shard_lane(fields.get("source"))
        lanes = [TOTAL_LANE, owner] if owner is not None else [TOTAL_LANE]
        accs = self._lane_accs(t_cycles, lanes, "sched_decisions")
        if accs is None:
            return
        for lane in accs:
            lane["sched_decisions"] += 1
        utilities = fields.get("utilities")
        if utilities:
            # ``chosen`` is a worker *count*, not an index; the scheduler
            # picked the argmin, so the realized wasted-cycle estimate for
            # this decision is min(U_i).  Floats go to the owning shard
            # lane only (the formatter derives the total — see module doc).
            accs[-1]["u_cycles"] += min(utilities)

    def _on_fallback(self, t_cycles: float, fields: dict[str, Any]) -> None:
        # ``zc.fallback`` carries no source, so it lands on the total
        # lane only; per-shard fallback splits stay in the ledger.
        self._bump(t_cycles, "fallbacks", [TOTAL_LANE])

    def _on_shard_fault(self, t_cycles: float, fields: dict[str, Any]) -> None:
        shard = fields.get("shard")
        lanes = [TOTAL_LANE]
        if shard is not None and shard != "":
            lanes.append(shard_lane(int(shard)))
        self._bump(t_cycles, "faults", lanes)

    def _on_fault(self, t_cycles: float, fields: dict[str, Any]) -> None:
        owner = _source_shard_lane(fields.get("target"))
        lanes = [TOTAL_LANE, owner] if owner is not None else [TOTAL_LANE]
        self._bump(t_cycles, "faults", lanes)


class _SamplerBus:
    """Emit-only ``kernel.bus`` stand-in for telemetry-detached runs.

    Implements just the ``emit(name, **fields)`` surface the simulator's
    emit sites use (they all guard with ``bus is not None`` and call
    nothing else).  Skipping :class:`~repro.telemetry.events.EventBus`'s
    event construction, ring storage and subscriber fan-out keeps the
    sampler's host overhead on unsampled events down to one dict miss.
    """

    __slots__ = ("_kernel", "_sampler")

    def __init__(self, kernel: Any, sampler: "MetricSampler") -> None:
        self._kernel = kernel
        self._sampler = sampler

    def emit(self, name: str, /, **fields: Any) -> None:
        # Hand-inlined MetricSampler._dispatch: this is the hot path for
        # every emit site in a detached run, handled or not.
        handler = _HANDLERS.get(name)
        if handler is not None:
            handler(self._sampler, self._kernel.now, fields)
        elif name.startswith("fault."):
            self._sampler._on_fault(self._kernel.now, fields)


_STATUS_COUNTERS = {"ok": "completed", "shed": "shed", "failed": "failed"}

_HANDLERS: dict[str, Callable[[MetricSampler, float, dict], None]] = {
    "serve.request.submit": MetricSampler._on_submit,
    "serve.request.complete": MetricSampler._on_complete,
    "serve.request.shed": MetricSampler._on_shed,
    "serve.request.span": MetricSampler._on_span,
    "serve.shard.quarantine": MetricSampler._on_shard_fault,
    "serve.shard.readmit": MetricSampler._on_shard_fault,
    "serve.shard.dead": MetricSampler._on_shard_fault,
    "zc.sched.decision": MetricSampler._on_decision,
    "zc.fallback": MetricSampler._on_fallback,
}


# ----------------------------------------------------------------------
# Record formatting (shared by the live sampler and the artifact)
# ----------------------------------------------------------------------
def build_window_records(
    raw: dict[str, Any],
    *,
    interval_cycles: float,
    freq_hz: float,
    shard_lanes: list[str],
) -> list[dict[str, Any]]:
    """Format one raw window into ``serve.window`` records, one per lane.

    Lane order is fixed: ``total``, then ``shard_lanes`` as given
    (ascending global index), then active tenant lanes sorted by name.
    The total lane's floats (``u_cycles``, gauges, ``occupancy``) are
    derived here by summing shard lanes in that order — the only float
    additions in the pipeline, so a slice merge that reassembles the
    same shard lanes reproduces the total bit-for-bit.

    Record timestamps are *grid-relative* (window ``k`` starts at
    ``k·I``): the grid origin is the load-start instant, which shifts
    with cluster startup cost, and only load-relative time is
    comparable across slicing layouts.  Latency and wasted-cycle floats
    are rounded to fixed decimals for the same reason — a rigid
    timeline shift perturbs the last ulp of cycle timestamps, and the
    bit-identity contract must not hang on it.
    """
    index = raw["window"]
    lanes = raw["lanes"]
    gauges = raw.get("gauges", {})
    t_start = index * interval_cycles
    window_s = interval_cycles / freq_hz
    tenant_lanes = sorted(name for name in lanes if name.startswith("tenant:"))
    records = []
    for name in [TOTAL_LANE, *shard_lanes, *tenant_lanes]:
        lane = lanes.get(name)
        if lane is None:
            lane = _new_lane()
        samples = lane["latency_cycles"]
        if samples:
            recorder = LatencyRecorder()
            recorder.record_many(samples)
            # Rounded to ns resolution: cycle timestamps carry ulp-level
            # jitter between slicing layouts (rigid timeline shift), far
            # below anything physically meaningful.
            p50_us = round(recorder.percentile(50.0) / freq_hz * 1e6, 3)
            p99_us = round(recorder.percentile(99.0) / freq_hz * 1e6, 3)
        else:
            p50_us = p99_us = 0.0
        if name == TOTAL_LANE:
            u_cycles = lane["u_cycles"]  # unattributed remainder only
            queue_depth: int | None = 0
            active_sum: int | None = 0
            cap_sum: int | None = 0
            if not shard_lanes:
                queue_depth = active_sum = cap_sum = None
            for shard_name in shard_lanes:
                u_cycles += (lanes.get(shard_name) or {}).get("u_cycles", 0.0)
                gauge = gauges.get(shard_name) or {}
                depth = gauge.get("queue_depth")
                queue_depth = (
                    None if depth is None or queue_depth is None
                    else queue_depth + depth
                )
                active = gauge.get("workers_active")
                active_sum = (
                    None if active is None or active_sum is None
                    else active_sum + active
                )
                cap = gauge.get("workers_cap")
                cap_sum = (
                    None if cap is None or cap_sum is None else cap_sum + cap
                )
        elif name in gauges:
            u_cycles = lane["u_cycles"]
            gauge = gauges[name]
            queue_depth = gauge.get("queue_depth")
            active_sum = gauge.get("workers_active")
            cap_sum = gauge.get("workers_cap")
        else:
            u_cycles = lane["u_cycles"]
            queue_depth = active_sum = cap_sum = None
        occupancy = (
            active_sum / cap_sum
            if active_sum is not None and cap_sum
            else None
        )
        records.append(
            {
                "record": "serve.window",
                "window": index,
                "lane": name,
                "t_start_cycles": t_start,
                "t_end_cycles": t_start + interval_cycles,
                "submitted": lane["submitted"],
                "completed": lane["completed"],
                "shed": lane["shed"],
                "preempted": lane["preempted"],
                "failed": lane["failed"],
                "throughput_rps": lane["completed"] / window_s,
                "latency_count": len(samples),
                "p50_us": p50_us,
                "p99_us": p99_us,
                "queue_depth": queue_depth,
                "workers_active": active_sum,
                "workers_cap": cap_sum,
                "occupancy": occupancy,
                "faults": lane["faults"],
                "sched_decisions": lane["sched_decisions"],
                "fallbacks": lane["fallbacks"],
                "u_cycles": round(u_cycles, 3),
            }
        )
    return records


def merge_raw_windows(
    slice_raw_windows: list[list[dict[str, Any]]],
) -> list[dict[str, Any]]:
    """Superpose per-slice raw window lists (given in slice order).

    Every slice observed the same window grid, so the merge is
    window-by-window: integer counters sum, latency samples pool in
    slice order (percentiles are sort-based, so pooling order cannot
    show), shard lanes and their gauges copy from the one slice that
    hosts the shard, and the total lane's floats stay derived — the
    formatter recomputes them from the reassembled shard lanes.
    """
    if not slice_raw_windows:
        raise ValueError("nothing to merge")
    n_windows = len(slice_raw_windows[0])
    if any(len(windows) != n_windows for windows in slice_raw_windows):
        raise ValueError("slices disagree on the window count")
    merged: list[dict[str, Any]] = []
    for index in range(n_windows):
        lanes: dict[str, dict[str, Any]] = {}
        gauges: dict[str, dict[str, Any]] = {}
        for windows in slice_raw_windows:
            raw = windows[index]
            if raw["window"] != index:
                raise ValueError("slice window stream out of order")
            for name, lane in raw["lanes"].items():
                if name.startswith("shard"):
                    lanes[name] = lane  # single owner slice
                    continue
                target = lanes.get(name)
                if target is None:
                    target = lanes[name] = _new_lane()
                for counter in LANE_COUNTERS:
                    target[counter] += lane[counter]
                target["u_cycles"] += lane["u_cycles"]
                target["latency_cycles"].extend(lane["latency_cycles"])
            gauges.update(raw.get("gauges", {}))
        merged.append({"window": index, "lanes": lanes, "gauges": gauges})
    return merged


def merge_spilled(
    per_slice: list[dict[str, dict[str, int]]],
) -> dict[str, dict[str, int]]:
    """Sum the per-lane, per-counter spill counts across slices."""
    merged: dict[str, dict[str, int]] = {}
    for spilled in per_slice:
        for lane, counters in spilled.items():
            target = merged.setdefault(lane, {})
            for counter, count in counters.items():
                target[counter] = target.get(counter, 0) + count
    return merged
