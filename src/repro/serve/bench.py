"""The ``repro serve bench`` entry point.

A run is a list of slice outcomes.  :func:`simulate` builds a sharded
cluster (or one slice of it) on one kernel, drives it with the
:class:`repro.serve.loadgen.LoadGenerator` (synthetic load or a
committed trace's replay) and returns the outcome as plain data; :mod:`repro.serve.slices` runs N
slices in processes and merges their outcomes; :func:`build_artifact`
is the one writer of the stamped ``serve-bench`` artifact (written as
``BENCH_serve.json`` by the CLI).  A committed ``serve-bench`` baseline
is one such artifact; :mod:`repro.regress.baselines` gates a fresh run
against it.

The declarative surface is a :class:`repro.api.BenchSpec`:
:func:`run_bench` takes the spec plus runner plumbing (sinks, the
telemetry and audit switches) and nothing else.
:func:`build_cluster` does the same for a bare cluster from a
:class:`repro.api.ServeSpec`.  The cluster is the one owner of a
kernel besides :meth:`repro.api.Runtime.create`, because it puts N
enclave shards on one kernel: it attaches the ambient telemetry session
and resolves the fault plan once, for the whole cluster.

Everything here is deterministic per seed: same spec → identical
artifact, which is what lets CI compare against
``baselines/serve-quick.json`` with a tight threshold.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.analysis.metrics import LatencyRecorder
from repro.api import BenchSpec, Runtime, ServeSpec, SpecError, ZcConfig
from repro.faults import FaultInjector, FaultPlan, active_fault_plan, get_plan
from repro.serve.budget import WorkerBudgetArbiter
from repro.serve.loadgen import LoadGenerator
from repro.serve.router import Router
from repro.serve.shard import EnclaveShard
from repro.sim import Kernel, MachineSpec, server_machine
from repro.sim.instructions import Sleep
from repro.telemetry.schema import stamp
from repro.telemetry.session import CellCapture, TelemetrySession, active_session

#: Scheduler quantum for serve shards.  Serving runs are short (seconds
#: of simulated time at most); the paper's 10 ms quantum would leave the
#: scheduler mid-first-sweep, so shards default to a faster loop.
SERVE_QUANTUM_S = 0.002


@dataclass
class ServeCluster:
    """A wired serving cluster (kernel + shards + router + arbiter).

    It owns the shared kernel's lifecycle the way a
    :class:`repro.api.Runtime` owns its own: ``capture`` is the ambient
    session's capture of that kernel (None when telemetry is off),
    ``plan`` the fault plan the cluster runs under (``spec.plan``, else
    the ambient plan) and ``injector`` that plan attached to shard
    ``spec.fault_shard`` (None when the shard is not in this cluster).
    """

    kernel: Kernel
    shards: list[EnclaveShard]
    router: Router
    arbiter: WorkerBudgetArbiter | None = None
    capture: CellCapture | None = None
    plan: FaultPlan | None = None
    injector: FaultInjector | None = None
    #: The spec this cluster was built from (None for hand-wired ones).
    spec: ServeSpec | None = None
    #: Fleet ledger: one entry per shard ever provisioned, carrying its
    #: lifetime and modeled enclave-lifecycle cost.  The bench's fleet
    #: accounting (cycles-per-request) integrates over it.
    lifecycle: list[dict[str, Any]] = field(default_factory=list)
    _shard_factory: Callable[[int], EnclaveShard] | None = None
    _closed: bool = False

    def new_shard(self, index: int) -> EnclaveShard:
        """Create (but do not start or route) one more shard.

        The autoscaler's spawn path: the shard shares the cluster kernel,
        arbiter and app set, but the caller owns bring-up — run
        :meth:`EnclaveShard.start_program` on a kernel thread, charge
        :func:`repro.sgx.lifecycle.create_enclave`, then
        :meth:`repro.serve.router.Router.add_shard`.
        """
        if self._shard_factory is None:
            raise RuntimeError("cluster was not built from a spec")
        return self._shard_factory(index)

    def close(self) -> None:
        """Tear the cluster down in ledger order.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        if self.injector is not None:
            self.injector.detach()
        for shard in self.shards:
            shard.stop()
            shard.runtime.close()
        self.kernel.run()
        if self.capture is not None:
            self.capture.finalize()

    def __enter__(self) -> "ServeCluster":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def build_cluster(
    spec: ServeSpec,
    *,
    machine: MachineSpec | None = None,
    telemetry: bool = True,
    shard_ids: tuple[int, ...] | None = None,
) -> ServeCluster:
    """Wire the serving cluster a :class:`repro.api.ServeSpec` describes.

    Each shard is a full :class:`repro.api.Runtime` (own filesystem, own
    enclave, own backend worker pool) attached to the shared kernel;
    like every runtime on a borrowed kernel, a shard attaches neither
    telemetry nor faults itself.  With ``spec.budget`` set — or
    autoscaling on — a :class:`WorkerBudgetArbiter` caps the fleet's
    aggregate switchless workers.  ``telemetry=True`` attaches the
    ambient session, if any, to the shared kernel; ``False`` never
    attaches.  The fault plan (``spec.plan``, else the ambient plan) is
    resolved once, kept as ``cluster.plan``, and its injector attaches
    to shard ``spec.fault_shard``'s enclave (one injector per kernel).

    ``shard_ids`` instantiates a *subset* of a larger cluster while
    keeping global shard indices (labels, rendezvous scores, per-shard
    stats) — the slice-parallel runner (:mod:`repro.serve.slices`) builds
    one such cluster per process.  ``spec.shards`` stays the global
    count; a ``fault_shard`` outside the subset is simply not attached
    here (its owning slice attaches it).
    """
    from repro.serve.apps import make_apps

    if not isinstance(spec, ServeSpec):
        raise SpecError(f"build_cluster takes a ServeSpec, got {type(spec).__name__}")
    app_names = spec.app_names()
    shards = spec.shards
    if shard_ids is None:
        shard_ids = tuple(range(shards))
    else:
        shard_ids = tuple(shard_ids)
        if not shard_ids:
            raise SpecError("shard_ids must name at least one shard")
        if len(set(shard_ids)) != len(shard_ids):
            raise SpecError("shard_ids must be unique")
        if any(not 0 <= index < shards for index in shard_ids):
            raise SpecError(f"shard_ids {shard_ids} out of range for {shards} shards")
    kind = spec.backend
    kernel = Kernel(machine if machine is not None else server_machine())
    session = active_session() if telemetry else None
    capture = (
        session.attach(kernel, label=f"serve-{kind}x{shards}")
        if session is not None
        else None
    )

    if spec.budget is not None:
        arbiter = WorkerBudgetArbiter(spec.budget)
    elif spec.autoscale is not None:
        # Autoscaling retunes the cap per control window; seed it at the
        # widest candidate fleet so bring-up is not budget-starved.
        arbiter = WorkerBudgetArbiter(shards * spec.autoscale.worker_options[-1])
    else:
        arbiter = None

    def make_shard(index: int) -> EnclaveShard:
        config = ZcConfig(quantum_seconds=SERVE_QUANTUM_S) if kind == "zc" else None
        runtime = Runtime.create(
            backend=kind,
            config=config,
            kernel=kernel,
            arbiter=arbiter if kind == "zc" else None,
            label=f"shard-{index}",
            name=f"shard-{index}",
        )
        return EnclaveShard(
            index,
            runtime,
            queue_capacity=spec.queue_capacity,
            servers=spec.servers_per_shard,
            apps=make_apps(app_names, runtime) if app_names is not None else None,
            batch=spec.batch,
            dispatch_cycles=spec.dispatch_cycles,
        )

    shard_objs = [make_shard(index) for index in shard_ids]

    router = Router(
        kernel,
        shard_objs,
        policy=spec.policy,
        admission=spec.admission,
        tenant_weights=spec.tenant_weights(),
    )

    plan = get_plan(spec.plan) if spec.plan is not None else active_fault_plan()
    injector = None
    if plan is not None:
        # Lookup by global index, not list position: a subset cluster's
        # list positions do not match shard indices.
        by_index = {shard.index: shard for shard in shard_objs}
        if spec.fault_shard in by_index:
            injector = FaultInjector(plan).attach(
                kernel, by_index[spec.fault_shard].enclave
            )

    for shard in shard_objs:
        shard.start()

    return ServeCluster(
        kernel=kernel,
        # The cluster's list is the ownership ledger (close() must reach
        # every shard ever provisioned); the router's copy is the live
        # routing set.  They MUST be distinct lists: the autoscaler
        # appends a spawned shard to the cluster immediately but routes
        # it only after bring-up, via Router.add_shard.
        shards=list(shard_objs),
        router=router,
        arbiter=arbiter,
        capture=capture,
        plan=plan,
        injector=injector,
        spec=spec,
        # Initial shards are the provisioning floor both static and
        # autoscaled runs pay; only *dynamic* spawns charge the enclave
        # creation model (the autoscaler stamps those entries itself).
        lifecycle=[
            {
                "shard": shard.index,
                "servers": shard.n_servers,
                "spawned_at": 0.0,
                "retired_at": None,
                "creation_cycles": 0.0,
                "destruction_cycles": 0.0,
            }
            for shard in shard_objs
        ],
        _shard_factory=make_shard,
    )


def run_bench(
    spec: BenchSpec,
    *,
    machine: MachineSpec | None = None,
    telemetry: bool = True,
    audit: bool = False,
    trace: Any = None,
    span_sink: list | None = None,
    obs_on_window: Any = None,
    jobs: int | str | None = None,
) -> dict[str, Any]:
    """Run the benchmark a :class:`repro.api.BenchSpec` describes.

    Everything *declarative* — topology, load shape, windows, slices,
    scenario, contracts — lives in the spec; the keyword arguments are
    runner plumbing.  ``machine`` is every slice's simulated host,
    ``audit`` attaches the live invariant auditors to every slice kernel
    (their verdicts become the ``audit`` section) and ``jobs`` caps the
    slice processes.  The fault plan is ``spec.serve.plan``, else the
    ambient plan (:func:`repro.faults.activate_plan`).
    ``telemetry=True`` (the default) lets an unsliced run's cluster
    attach the ambient telemetry session; ``False`` never attaches, and
    a sliced run never captures.  ``trace`` (a loaded
    :class:`repro.scenarios.ScenarioTrace` or path overriding the
    spec's), ``span_sink`` (receives every completed request's span
    record) and ``obs_on_window`` (the live console hook) reach one
    in-process kernel, so a sliced spec refuses them.

    A run is a list of slice outcomes — one :func:`simulate` call, or
    :func:`repro.serve.slices.run_slices` for ``spec.slices > 1`` — and
    :func:`build_artifact` writes their superposition
    (:func:`repro.serve.slices.merge_outcomes`).
    """
    if not isinstance(spec, BenchSpec):
        raise SpecError(f"run_bench takes a BenchSpec, got {type(spec).__name__}")
    contracts = None
    if spec.contracts is not None:  # refused before anything is built
        # Local import: repro.slo consumes serve artifacts; importing it
        # eagerly here would make the dependency circular.
        from repro.slo import load_contracts

        contracts = load_contracts(spec.contracts)
    from repro.serve.slices import merge_outcomes, run_slices

    plumbing = dict(trace=trace, span_sink=span_sink, obs_on_window=obs_on_window)
    if spec.slices == 1:
        outcomes = [
            simulate(spec, machine=machine, telemetry=telemetry, audit=audit, **plumbing)
        ]
    else:
        refused = [name for name, value in plumbing.items() if value is not None]
        if refused:
            raise SpecError(
                f"slices={spec.slices} runs each slice in its own process; "
                f"drop {', '.join(refused)} (or run one slice)"
            )
        outcomes = run_slices(spec, machine=machine, audit=audit, jobs=jobs)
    return build_artifact(merge_outcomes(outcomes), spec=spec, contracts=contracts)


def simulate(
    spec: BenchSpec,
    *,
    machine: MachineSpec | None = None,
    telemetry: bool = True,
    audit: bool = False,
    trace: Any = None,
    span_sink: list | None = None,
    obs_on_window: Any = None,
    shard_ids: tuple[int, ...] | None = None,
    admit: Any = None,
) -> dict[str, Any]:
    """Simulate one slice of ``spec``; returns its outcome as plain data.

    The outcome is raw material, picklable so it can leave a slice
    process: counters, latency samples in cycles, per-shard rows, fleet
    sums, the sampler's raw windows, the autoscaler's report and — with
    ``audit`` — the invariant auditors' verdicts.
    :func:`repro.serve.slices.merge_outcomes` superposes several;
    :func:`build_artifact` formats one.

    ``shard_ids``/``admit`` make the run a slice: only the named global
    shard indices are built, and open-loop arrivals pass through the
    ``admit`` predicate.  ``audit`` runs the slice with
    ``telemetry=True`` inside a fresh telemetry session with the
    auditors attached.  The fault plan is the cluster's
    (:func:`build_cluster`).  The other keywords are :func:`run_bench`'s;
    a ``trace`` replaces the spec's load, so the spec must leave that
    load at its defaults (:meth:`BenchSpec.refuse_replay_conflicts`).
    """
    if trace is not None:
        spec.refuse_replay_conflicts()
    if audit:
        from repro.regress import attach_auditor

        auditors: list[Any] = []
        with TelemetrySession(
            on_attach=lambda capture: auditors.append(attach_auditor(capture))
        ):
            outcome = simulate(
                spec, machine=machine, telemetry=True,
                trace=trace, span_sink=span_sink, obs_on_window=obs_on_window,
                shard_ids=shard_ids, admit=admit,
            )
        for auditor in auditors:
            auditor.finish()
        outcome["audit"] = [
            {
                "cell": auditor.cell,
                "ok": auditor.ok,
                "violations": [str(v) for v in auditor.violations],
            }
            for auditor in auditors
        ]
        return outcome

    serve = spec.serve
    if trace is None and spec.replays_trace():
        from repro.scenarios.catalog import trace_path

        trace = spec.trace if spec.scenario is None else trace_path(spec.scenario)

    app_mix = serve.apps
    seconds = spec.seconds
    overrides: dict[str, Any] = {}
    if trace is not None:
        from repro.scenarios.trace import ScenarioTrace, load_trace

        if not isinstance(trace, ScenarioTrace):
            trace = load_trace(trace)
        if trace.tenants and serve.tenants is None:
            # Trace-declared tenant weights switch the router to
            # weighted-fair shedding, exactly as spec-declared ones do.
            overrides["tenants"] = tuple(trace.tenants.items())
        if app_mix is None:
            installed_apps: tuple[str, ...] | None = trace.apps
        else:
            installed_apps = tuple(name for name, _ in app_mix)
            missing = [a for a in trace.apps if a not in installed_apps]
            if missing:
                raise SpecError(
                    f"trace {trace.name!r} addresses apps {missing} not in "
                    f"the installed app set {list(installed_apps)}"
                )
        # The trace owns the timeline: arrivals stop at its declared
        # duration, and the obs window grid spans exactly that.
        seconds = trace.duration_s
    else:
        installed_apps = serve.app_names()

    if serve.apps is None and installed_apps is not None:
        # A trace's app set installs on every shard without becoming a
        # synthetic load mix.
        overrides["apps"] = tuple((name, 1.0) for name in installed_apps)
    build_spec = (
        dataclasses.replace(serve, **overrides) if overrides else serve
    )
    cluster = build_cluster(
        build_spec,
        machine=machine,
        telemetry=telemetry,
        shard_ids=shard_ids,
    )
    kernel = cluster.kernel
    if span_sink is not None:
        cluster.router.span_subscribers.append(span_sink.append)
    generator = LoadGenerator(kernel, cluster.router, spec, trace=trace, admit=admit)
    start = kernel.now
    sampler = None
    detector = None
    controller = None
    autoscale = serve.autoscale
    if spec.obs or autoscale is not None:
        from repro.obs import AnomalyDetector, MetricSampler
        from repro.obs.sampler import DEFAULT_WINDOWS

        duration_cycles = kernel.cycles(seconds)
        interval = (
            float(spec.obs_interval)
            if spec.obs_interval is not None
            else duration_cycles / DEFAULT_WINDOWS
        )
        # Round-up grid: the last window may extend past the load
        # deadline (arrivals stop strictly before it either way).
        n_windows = max(1, math.ceil(duration_cycles / interval - 1e-9))
        detector = AnomalyDetector()
        sampler = MetricSampler(
            kernel,
            interval,
            n_windows,
            shards=cluster.shards,
            detector=detector,
            on_window=obs_on_window,
        ).install()
    if autoscale is not None:
        from repro.autoscale.controller import AutoscaleController

        controller = AutoscaleController(cluster, autoscale, sampler)
        controller.install()
    generator.run()
    end_of_load = kernel.now
    if sampler is not None:
        # Drive the kernel to the exact window horizon: every tick fires
        # on its grid boundary and the per-shard schedulers observe the
        # same stretch of simulated time in sliced and unsliced runs.
        # A parked sleeper (rather than ``run(until_time=...)``) keeps
        # the timer queue and CPU accounting on their normal path.
        if kernel.now < sampler.horizon:

            def _hold_until_horizon() -> Any:
                yield Sleep(sampler.horizon - kernel.now)

            kernel.join(kernel.spawn(_hold_until_horizon(), name="obs-horizon"))
        sampler.detach()
    router = cluster.router
    params: dict[str, Any] = {
        "shards": serve.shards,
        "backend": serve.backend,
        "seconds": seconds,
        "rate": spec.rate,
        "clients": spec.clients,
        "policy": serve.policy,
        "admission": serve.admission,
        "queue_capacity": serve.queue_capacity,
        "servers_per_shard": serve.servers_per_shard,
        "budget": serve.budget,
        "keydist": spec.keydist,
        "keyspace": spec.keyspace,
        "set_fraction": spec.set_fraction,
        "seed": spec.seed,
        "plan": cluster.plan.name if cluster.plan is not None else None,
        "tenants": dict(build_spec.tenants) if build_spec.tenants else None,
        "apps": (
            [list(pair) for pair in app_mix]
            if app_mix is not None
            else ([[name, 1.0] for name in installed_apps]
                  if installed_apps is not None else None)
        ),
    }
    if trace is not None:
        params["rate"] = None  # the trace owns the arrival times
        params["scenario"] = trace.name
        params["trace_digest"] = trace.digest
        params["trace_events"] = len(trace.events)
    obs = None
    if sampler is not None and spec.obs:
        params["obs_interval"] = sampler.interval
        obs = {
            "interval_cycles": sampler.interval,
            "windows": sampler.n_windows,
            # The shards present at install own a lane; ones the
            # autoscaler spawns later do not.
            "shards": [shard.index for shard in sampler.shards],
            "raw_windows": sampler.raw_windows,
            "spilled": sampler.spilled,
        }
    outcome: dict[str, Any] = {
        "freq_hz": kernel.spec.freq_hz,
        "params": params,
        "shard_ids": list(shard_ids if shard_ids is not None else range(serve.shards)),
        "skipped": generator.skipped,
        "totals": {
            **router.stats(),
            "issued": generator.issued,
            "elapsed_s": kernel.seconds(end_of_load - start),
            "recoveries": [
                {
                    "shard": episode["shard"],
                    "outcome": episode["outcome"],
                    "seconds": kernel.seconds(episode["cycles"]),
                }
                for episode in router.recoveries
            ],
            "latency_cycles": list(router.latency.samples_cycles),
        },
        "per_tenant": _counts_and_samples(router.tenants),
        "per_app": _counts_and_samples(router.apps),
        # Nothing caps the span stream; ``dropped`` stays (always 0)
        # because the benchmark harness reads it.
        "spans": {"recorded": router.spans_recorded, "dropped": 0},
        "per_shard": [
            {
                "shard": shard.index,
                "completed": shard.completed,
                "failed": shard.failed,
                "switchless_ocalls": shard.enclave.stats.total_switchless,
                "regular_ocalls": shard.enclave.stats.total_regular,
                "fallback_ocalls": shard.enclave.stats.total_fallback,
                "mutations": (
                    shard.server.mutations if shard.server is not None else 0
                ),
                "apps": shard.app_stats(),
            }
            for shard in sorted(cluster.shards, key=lambda s: s.index)
        ],
        "budget": (
            {
                "cap": cluster.arbiter.cap,
                "clipped": cluster.arbiter.clipped,
                "in_use": cluster.arbiter.in_use,
            }
            if cluster.arbiter is not None
            else None
        ),
        "fleet": _fleet_sums(cluster, kernel.now),
        "events_processed": kernel.events_processed,
        "obs": obs,
        "autoscale": controller.report() if controller is not None else None,
        "audit": None,
    }
    if cluster.capture is not None:
        _export_serve_metrics(cluster.capture.registry, cluster.capture.label,
                              router, cluster.shards, kernel.now)
    cluster.close()
    return outcome


def _counts_and_samples(table: dict[str, Any]) -> dict[str, dict[str, Any]]:
    """Per-tenant or per-app counters plus raw latency samples (cycles)."""
    return {
        name: {**stats.counts(), "latency_cycles": list(stats.latency.samples_cycles)}
        for name, stats in sorted(table.items())
    }


def _fleet_sums(cluster: ServeCluster, end_cycles: float) -> dict[str, Any]:
    """Provisioned-fleet sums over the cluster's lifecycle ledger.

    ``provisioned_cycles`` is everything the run *provisioned*:
    server-thread cycles, the integrated worker-budget cap, and the
    modeled enclave create/teardown cost of dynamic scaling.  Per
    completed request it is the fleet-level wasted-cycle objective the
    autoscaler optimizes (``fleet.cycles_per_request``).
    """
    server_cycles = 0.0
    creation = 0.0
    destruction = 0.0
    spawned = 0
    retired = 0
    for entry in cluster.lifecycle:
        until = entry["retired_at"] if entry["retired_at"] is not None else end_cycles
        server_cycles += entry["servers"] * max(0.0, min(until, end_cycles) - entry["spawned_at"])
        creation += entry["creation_cycles"]
        destruction += entry["destruction_cycles"]
        if entry["creation_cycles"] > 0 or entry["spawned_at"] > 0:
            spawned += 1
        if entry["retired_at"] is not None:
            retired += 1
    budget_cycles = (
        cluster.arbiter.cap_integral(end_cycles)
        if cluster.arbiter is not None
        else 0.0
    )
    return {
        "shards_initial": len(cluster.lifecycle) - spawned,
        "shards_spawned": spawned,
        "shards_retired": retired,
        "server_cycles": server_cycles,
        "worker_budget_cycles": budget_cycles,
        "creation_cycles": creation,
        "destruction_cycles": destruction,
        # Summed within the slice first: a merge adds slice totals, so
        # the float order does not depend on the slicing layout.
        "provisioned_cycles": server_cycles + budget_cycles + creation + destruction,
    }


def build_artifact(
    outcome: dict[str, Any],
    *,
    spec: BenchSpec,
    contracts: list | None = None,
) -> dict[str, Any]:
    """Format a (possibly merged) outcome as the ``serve-bench`` artifact.

    The one writer of the artifact: sliced, unsliced and audited runs
    differ only in the outcome they hand in.  Percentiles come from the
    pooled samples, converted to µs at the outcome's clock; the ``obs``
    records come from the raw windows through the sampler's own
    formatter, and the anomaly detector replays over them (it is
    deterministic over the record stream, so this equals running it
    live).  ``spec`` is recorded as the run's config; ``contracts`` are
    evaluated over the finished artifact into its ``slo`` section.
    """
    freq_hz = outcome["freq_hz"]
    totals = outcome["totals"]
    elapsed_s = totals["elapsed_s"]

    def per_second(count: int) -> float:
        return count / elapsed_s if elapsed_s > 0 else 0.0

    def latency(samples: list[float]) -> tuple[dict[str, float], list[str]]:
        recorder = LatencyRecorder()
        recorder.record_many(samples)
        summary = {
            name: value / freq_hz * 1e6 if name != "count" else value
            for name, value in recorder.summary().items()
        }
        return summary, recorder.diagnostics()

    def breakdown(record: dict[str, Any]) -> dict[str, Any]:
        latency_us, notes = latency(record["latency_cycles"])
        submitted = record["submitted"]
        return {
            "submitted": submitted,
            "completed": record["completed"],
            "shed": record["shed"],
            "failed": record["failed"],
            "throughput_rps": per_second(record["completed"]),
            "shed_rate": record["shed"] / submitted if submitted else 0.0,
            "latency_us": latency_us,
            "latency_notes": notes,
        }

    completed = totals["completed"]
    fleet = outcome["fleet"]
    result: dict[str, Any] = {
        "meta": stamp("serve-bench"),
        "spec": spec.to_json(),
        "params": outcome["params"],
        "totals": {
            **{
                name: value
                for name, value in totals.items()
                if name not in ("elapsed_s", "recoveries", "latency_cycles")
            },
            "elapsed_s": elapsed_s,
            "throughput_rps": per_second(completed),
            "latency_us": latency(totals["latency_cycles"])[0],
            "recoveries": totals["recoveries"],
        },
        **{
            section: {
                name: breakdown(record)
                for name, record in sorted(outcome[section].items())
            }
            for section in ("per_tenant", "per_app")
        },
        "spans": outcome["spans"],
        "per_shard": outcome["per_shard"],
        "budget": outcome["budget"],
        "fleet": {
            **fleet,
            "cycles_per_request": (
                fleet["provisioned_cycles"] / completed if completed else None
            ),
        },
        # Host-side counter (not part of the simulated outcome): the obs
        # overhead bench divides it by wall time per arm.
        "host": {"events_processed": outcome["events_processed"]},
    }
    obs = outcome["obs"]
    if obs is not None:
        from repro.obs import AnomalyDetector
        from repro.obs.sampler import TOTAL_LANE, build_window_records, shard_lane

        shard_lanes = [shard_lane(index) for index in obs["shards"]]
        records = [
            record
            for raw in obs["raw_windows"]
            for record in build_window_records(
                raw,
                interval_cycles=obs["interval_cycles"],
                freq_hz=freq_hz,
                shard_lanes=shard_lanes,
            )
        ]
        tenant_lanes = sorted(
            {record["lane"] for record in records if record["lane"].startswith("tenant:")}
        )
        result["obs"] = {
            "interval_cycles": obs["interval_cycles"],
            "windows": obs["windows"],
            "freq_hz": freq_hz,
            "lanes": [TOTAL_LANE, *shard_lanes, *tenant_lanes],
            "records": records,
            "spilled": {
                lane: dict(sorted(counters.items()))
                for lane, counters in sorted(obs["spilled"].items())
            },
            "anomalies": AnomalyDetector().observe_all(records),
        }
    if outcome["autoscale"] is not None:
        result["autoscale"] = outcome["autoscale"]
    cells = outcome["audit"]
    if cells is not None:
        result["audit"] = {
            "ok": all(cell["ok"] for cell in cells),
            "cells": cells,
            "violations": sum(len(cell["violations"]) for cell in cells),
        }
    if "slices" in outcome:
        result["slices"] = outcome["slices"]
    if contracts:
        from repro.slo.contract import evaluate_contracts, verdicts_summary

        result["slo"] = verdicts_summary(evaluate_contracts(result, contracts))
    return result


def _export_serve_metrics(
    registry: Any,
    cell: str,
    router: Router,
    shards: list[EnclaveShard],
    now_cycles: float,
) -> None:
    """Register the serve layer's metrics on the session registry.

    The Prometheus exporter (:func:`repro.telemetry.exporters
    .render_prometheus`) then renders them alongside the ledger metrics
    with its usual name sanitization and ``repro_build_info`` header.
    """
    for outcome in ("submitted", "completed", "shed", "failed"):
        registry.counter(
            "repro_serve_requests_total", cell=cell, outcome=outcome
        ).inc(getattr(router, outcome))
    for tenant, stats in sorted(router.tenants.items()):
        label = tenant or "anonymous"
        for outcome, value in stats.counts().items():
            registry.counter(
                "repro_serve_tenant_requests_total",
                cell=cell,
                tenant=label,
                outcome=outcome,
            ).inc(value)
        registry.histogram(
            "repro_serve_tenant_latency_cycles", cell=cell, tenant=label
        ).observe_many(list(stats.latency.samples_cycles))
    for shard in shards:
        label = str(shard.index)
        registry.gauge(
            "repro_serve_shard_queue_depth", cell=cell, shard=label
        ).set(float(len(shard.queue)), t_cycles=now_cycles)
        backend = getattr(shard.enclave, "backend", None)
        workers = getattr(backend, "workers", None)
        if backend is None or not hasattr(backend, "active_worker_target"):
            continue
        if not workers:
            continue
        active = int(backend.active_worker_target)
        registry.gauge(
            "repro_serve_shard_workers_active", cell=cell, shard=label
        ).set(float(active), t_cycles=now_cycles)
        registry.gauge(
            "repro_serve_shard_occupancy", cell=cell, shard=label
        ).set(active / len(workers), t_cycles=now_cycles)
