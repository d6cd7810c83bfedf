"""Slice-parallel serving simulation: shards partitioned over processes.

``repro serve bench --slices N`` splits an S-shard cluster into N
*slices*, each simulating its subset of shards in its own forked process,
and merges the per-slice artifacts into one ``serve-bench`` result.  This
is how the simulator scales past one host core: the serve layer's shards
share nothing but the router, so the simulation itself is shard-parallel.

**Why the merge is exact.**  Placement is rendezvous hashing over the
*global* shard index (:func:`repro.serve.router._rendezvous_score`), so
every key has one owner shard, computable without running anything.  Each
slice draws the *identical* seeded open-loop arrival schedule — same
Poisson gaps, ops, keys and tenants — and admits exactly the arrivals
whose owner shard it hosts (the :class:`~repro.serve.loadgen.LoadGenerator`
``admit`` hook skips the rest without disturbing the RNG stream).  The
result is a conservative time-sync parallel simulation with *infinite
lookahead* at the router boundary: no event in one slice can ever affect
another slice, so no slice ever needs to wait, and merging is the plain
superposition of the per-slice timelines — counters sum, latency samples
pool, and the merged clock is the maximum of the slice clocks.  The
merge order is fixed (slice 0, 1, …, N-1) regardless of process
completion order, so the merged artifact is byte-deterministic.

**What slicing models.**  Each slice builds its own
:class:`~repro.sim.Kernel` and full simulated machine, so ``--slices N``
models the shards spread over N hosts rather than contending for one
host's cores.  With light per-shard load (no CPU contention between
shards) a sliced run reproduces the unsliced per-shard outcomes exactly —
``tests/serve/test_slices.py`` locks that in.  Restrictions: open loop
only, ``policy="hash"`` only (round-robin placement depends on global
arrival interleaving), and a worker ``budget`` is split across slices
proportionally to their shard counts.

Execution reuses :class:`repro.parallel.runner.CellRunner` — the same
fork pool, spec-order result collection and cross-process telemetry
absorption every experiment grid uses; slices are just one more
registered cell kind (``serve-slice``).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable

from repro.analysis.metrics import LatencyRecorder
from repro.api import BenchSpec, SpecError
from repro.parallel.cells import CellSpec, cell
from repro.parallel.runner import CellRunner
from repro.serve.router import _rendezvous_score
from repro.sim.machine import MachineSpec, server_machine
from repro.telemetry.schema import stamp


def slice_shard_ids(shards: int, slices: int) -> list[tuple[int, ...]]:
    """Partition global shard indices round-robin across slices.

    Shard ``j`` goes to slice ``j % slices`` — balanced to within one
    shard, and stable under growing the shard count.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    if not 1 <= slices <= shards:
        raise ValueError(f"slices must be in [1, {shards}] for {shards} shards")
    return [tuple(range(start, shards, slices)) for start in range(slices)]


def owner_shard(key: bytes, shards: int) -> int:
    """The global rendezvous winner for ``key`` over ``shards`` shards.

    Must match :meth:`repro.serve.router.Router._pick` with every shard
    healthy: ``max`` over ascending shard index of the keyed digest.
    """
    return max(range(shards), key=lambda index: _rendezvous_score(key, index))


def make_admit(shard_ids: tuple[int, ...], shards: int) -> Callable[[bytes], bool]:
    """Admit predicate: does this slice own the key's rendezvous winner?"""
    owned = frozenset(shard_ids)
    return lambda key: owner_shard(key, shards) in owned


def split_budget(budget: int | None, partitions: list[tuple[int, ...]], shards: int) -> list[int | None]:
    """Split a fleet-wide worker budget across slices by shard share.

    Largest-remainder apportionment with ties to the lower slice index;
    every slice gets at least 1.  ``None`` stays ``None`` everywhere.
    """
    if budget is None:
        return [None] * len(partitions)
    shares = [budget * len(ids) / shards for ids in partitions]
    floors = [max(1, int(share)) for share in shares]
    leftover = budget - sum(floors)
    remainders = sorted(
        range(len(partitions)),
        key=lambda i: (-(shares[i] - int(shares[i])), i),
    )
    for i in remainders:
        if leftover <= 0:
            break
        floors[i] += 1
        leftover -= 1
    return floors


# ----------------------------------------------------------------------
# Cell execution (runs in the pool worker)
# ----------------------------------------------------------------------
def run_cell(spec: CellSpec) -> dict[str, Any]:
    """Execute one slice; returns the slice row (registry: ``serve-slice``).

    The cell carries its whole configuration as one serialized
    :class:`repro.api.BenchSpec` (``spec_json``) plus the slice plumbing
    (global shard count, owned shard ids, repo root, audit flag).  The
    row carries the full per-slice serve artifact plus the raw latency
    samples the parent needs for the percentile merge, and — with
    ``audit=True`` — the live invariant auditor's verdicts for this
    slice's kernel.
    """
    kw = spec.kwargs
    from repro.serve.bench import run_bench

    bench_spec = BenchSpec.from_json(kw["spec_json"])
    shard_ids = tuple(kw["shard_ids"])
    shards = kw["shards"]
    raw: dict[str, Any] = {}
    plumbing = dict(
        shard_ids=shard_ids,
        admit=make_admit(shard_ids, shards),
        raw_sink=raw,
        root=kw.get("root", "."),
    )
    audit_cells: list[dict[str, Any]] = []
    if kw["audit"]:
        from repro.regress import attach_auditor
        from repro.telemetry.session import TelemetrySession

        auditors: list[Any] = []
        with TelemetrySession(
            on_attach=lambda capture: auditors.append(attach_auditor(capture))
        ) as session:
            result = run_bench(bench_spec, telemetry=session, **plumbing)
        for auditor in auditors:
            auditor.finish()
            audit_cells.append(
                {
                    "cell": f"slice-{kw['slice_index']}:{auditor.cell}",
                    "ok": auditor.ok,
                    "violations": [str(v) for v in auditor.violations],
                }
            )
    else:
        result = run_bench(bench_spec, telemetry=False, **plumbing)
    return {
        "slice": kw["slice_index"],
        "shard_ids": list(shard_ids),
        "result": result,
        "raw": raw,
        "audit": audit_cells,
    }


# ----------------------------------------------------------------------
# Orchestration (parent process)
# ----------------------------------------------------------------------
def slice_cells(
    spec: BenchSpec,
    *,
    root: str = ".",
    audit: bool = False,
) -> list[CellSpec]:
    """The sliced run as cell specs — one ``serve-slice`` cell per slice.

    Each cell receives a complete per-slice :class:`repro.api.BenchSpec`
    (``slices=1``, worker budget apportioned by shard share, the fault
    plan only in the slice owning the faulted shard) serialized through
    :meth:`~repro.api.BenchSpec.to_json`, so the cell boundary speaks
    exactly the declarative schema evidence packs record.  A scenario or
    trace on the spec switches every slice from synthetic load to
    replaying the identical committed trace, admitting only the arrivals
    whose rendezvous owner it hosts — exactly like the loadgen's
    identical-schedule guarantee.
    """
    serve = spec.serve
    if serve.policy != "hash":
        raise SpecError("slice-parallel serving requires policy='hash'")
    partitions = slice_shard_ids(serve.shards, spec.slices)
    budgets = split_budget(serve.budget, partitions, serve.shards)
    specs = []
    for index, shard_ids in enumerate(partitions):
        slice_serve = dataclasses.replace(
            serve,
            budget=budgets[index],
            # The fault plan attaches only in the slice owning the
            # faulted shard; other slices run healthy.
            plan=(
                serve.plan
                if serve.plan is not None and serve.fault_shard in shard_ids
                else None
            ),
        )
        slice_spec = dataclasses.replace(
            spec,
            serve=slice_serve,
            slices=1,
            # Contracts evaluate over the merged artifact in the parent,
            # never over a single slice's partial view.
            contracts=None,
        )
        specs.append(
            cell(
                "serve-slice",
                index,
                slice_index=index,
                shards=serve.shards,
                shard_ids=shard_ids,
                spec_json=slice_spec.to_json(),
                root=root,
                audit=audit,
            )
        )
    return specs


def run_slice_bench(
    spec: BenchSpec,
    *,
    machine: MachineSpec | None = None,
    root: str = ".",
    audit: bool = False,
    jobs: int | str | None = None,
) -> dict[str, Any]:
    """Run the serve bench slice-parallel; returns one merged artifact.

    Takes a :class:`repro.api.BenchSpec` with ``slices > 1`` (this is
    what :func:`repro.serve.bench.run_bench` dispatches to).  The merged
    artifact has the regular ``serve-bench`` stamp and shape (so
    :func:`repro.serve.bench.compare_to_baseline` gates it as usual)
    plus a ``slices`` section with per-slice provenance and — with
    ``audit=True`` — an ``audit`` section aggregating every slice's live
    invariant verdicts.
    """
    contracts = None
    if spec.contracts is not None:  # refused before any slice runs
        from repro.slo import load_contracts

        contracts = load_contracts(spec.contracts)
    specs = slice_cells(spec, root=root, audit=audit)
    runner = CellRunner(jobs="auto" if jobs is None else jobs)
    rows = [outcome.row for outcome in runner.run(specs)]
    spec_machine = machine if machine is not None else server_machine()
    return merge_slice_results(rows, spec_machine, contracts=contracts, spec=spec)


def merge_slice_results(
    rows: list[dict[str, Any]],
    machine: MachineSpec,
    contracts: list | None = None,
    spec: BenchSpec | None = None,
) -> dict[str, Any]:
    """Merge per-slice rows into one ``serve-bench`` artifact.

    Deterministic superposition in slice order: counters sum, latency
    samples pool (then percentiles recompute over the pooled set), the
    merged clock is the max of the slice clocks, and throughput is the
    pooled completion count over that merged clock.  ``spec`` (the
    parent's :class:`BenchSpec`, with the original ``slices`` count)
    stamps the merged artifact's ``spec`` section.
    """
    rows = sorted(rows, key=lambda row: row["slice"])
    if not rows:
        raise ValueError("nothing to merge")
    results = [row["result"] for row in rows]
    base_params = dict(results[0]["params"])

    counters = ("submitted", "completed", "shed", "failed", "rerouted",
                "preempted", "quarantines", "readmissions",
                "forecast_shed", "shards_added", "shards_retired")
    totals: dict[str, Any] = {name: 0 for name in counters}
    quarantined: list[int] = []
    dead: list[int] = []
    retired: list[int] = []
    recoveries: list[dict[str, Any]] = []
    elapsed_s = 0.0
    pooled = LatencyRecorder()
    for row in rows:
        slice_totals = row["result"]["totals"]
        for name in counters:
            totals[name] += slice_totals.get(name, 0)
        quarantined.extend(slice_totals.get("quarantined", []))
        dead.extend(slice_totals.get("dead", []))
        retired.extend(slice_totals.get("retired", []))
        recoveries.extend(slice_totals.get("recoveries", []))
        elapsed_s = max(elapsed_s, slice_totals.get("elapsed_s", 0.0))
        pooled.record_many(row["raw"].get("latency_cycles", []))

    def _us(summary: dict[str, float]) -> dict[str, float]:
        return {
            name: machine.seconds(value) * 1e6 if name != "count" else value
            for name, value in summary.items()
        }

    totals.update(
        issued=results[0]["totals"].get("issued", 0),
        elapsed_s=elapsed_s,
        throughput_rps=totals["completed"] / elapsed_s if elapsed_s > 0 else 0.0,
        latency_us=_us(pooled.summary()),
        quarantined=sorted(quarantined),
        dead=sorted(dead),
        retired=sorted(retired),
        recoveries=recoveries,
    )

    per_tenant: dict[str, Any] = {}
    tenant_samples: dict[str, LatencyRecorder] = {}
    for row in rows:
        for tenant, record in row["result"].get("per_tenant", {}).items():
            merged = per_tenant.setdefault(
                tenant,
                {"submitted": 0, "completed": 0, "shed": 0, "failed": 0},
            )
            for name in ("submitted", "completed", "shed", "failed"):
                merged[name] += record[name]
            tenant_samples.setdefault(tenant, LatencyRecorder()).record_many(
                row["raw"].get("tenant_latency_cycles", {}).get(tenant, [])
            )
    for tenant, merged in sorted(per_tenant.items()):
        recorder = tenant_samples[tenant]
        merged["throughput_rps"] = (
            merged["completed"] / elapsed_s if elapsed_s > 0 else 0.0
        )
        merged["shed_rate"] = (
            merged["shed"] / merged["submitted"] if merged["submitted"] else 0.0
        )
        merged["latency_us"] = _us(recorder.summary())
        merged["latency_notes"] = recorder.diagnostics()

    per_app: dict[str, Any] = {}
    app_samples: dict[str, LatencyRecorder] = {}
    for row in rows:
        for app, record in row["result"].get("per_app", {}).items():
            merged_app = per_app.setdefault(
                app,
                {"submitted": 0, "completed": 0, "shed": 0, "failed": 0},
            )
            for name in ("submitted", "completed", "shed", "failed"):
                merged_app[name] += record[name]
            app_samples.setdefault(app, LatencyRecorder()).record_many(
                row["raw"].get("app_latency_cycles", {}).get(app, [])
            )
    for app, merged_app in sorted(per_app.items()):
        recorder = app_samples[app]
        merged_app["throughput_rps"] = (
            merged_app["completed"] / elapsed_s if elapsed_s > 0 else 0.0
        )
        merged_app["shed_rate"] = (
            merged_app["shed"] / merged_app["submitted"]
            if merged_app["submitted"]
            else 0.0
        )
        merged_app["latency_us"] = _us(recorder.summary())
        merged_app["latency_notes"] = recorder.diagnostics()

    per_shard = sorted(
        (entry for row in rows for entry in row["result"]["per_shard"]),
        key=lambda entry: entry["shard"],
    )

    budgets = [row["result"]["budget"] for row in rows if row["result"]["budget"]]
    budget_section = (
        {
            "cap": sum(b["cap"] for b in budgets),
            "clipped": sum(b["clipped"] for b in budgets),
            "in_use": sum(b["in_use"] for b in budgets),
        }
        if budgets
        else None
    )

    spans = {
        "recorded": sum(row["result"]["spans"]["recorded"] for row in rows),
        "dropped": sum(row["result"]["spans"]["dropped"] for row in rows),
    }

    base_params.pop("shard_ids", None)
    base_params.update(
        slices=len(rows),
        slice_shards=[row["shard_ids"] for row in rows],
        budget=sum(b for b in (r["params"]["budget"] for r in results) if b)
        or base_params.get("budget"),
        plan=next(
            (r["params"]["plan"] for r in results if r["params"]["plan"]), None
        ),
    )

    fleet_rows = [row["result"].get("fleet") for row in rows]
    fleet_section: dict[str, Any] | None = None
    if all(entry is not None for entry in fleet_rows):
        fleet_section = {
            name: sum(entry[name] for entry in fleet_rows)
            for name in (
                "shards_initial",
                "shards_spawned",
                "shards_retired",
                "server_cycles",
                "worker_budget_cycles",
                "creation_cycles",
                "destruction_cycles",
                "provisioned_cycles",
            )
        }
        fleet_section["cycles_per_request"] = (
            fleet_section["provisioned_cycles"] / totals["completed"]
            if totals["completed"]
            else None
        )

    merged: dict[str, Any] = {
        "meta": stamp("serve-bench"),
        "params": base_params,
        "totals": totals,
        "per_tenant": per_tenant,
        "per_app": per_app,
        "spans": spans,
        "per_shard": per_shard,
        "budget": budget_section,
        "fleet": fleet_section,
        "slices": [
            {
                "slice": row["slice"],
                "shard_ids": row["shard_ids"],
                "elapsed_s": row["result"]["totals"]["elapsed_s"],
                "completed": row["result"]["totals"]["completed"],
                "skipped_arrivals": row["result"]["totals"].get("skipped", 0),
            }
            for row in rows
        ],
    }
    if spec is not None:
        merged["spec"] = spec.to_json()
    obs_raws = [row["raw"].get("obs") for row in rows]
    if all(raw is not None for raw in obs_raws):
        merged["obs"] = _merge_obs(obs_raws, per_shard, machine)
        merged["params"]["obs_interval"] = merged["obs"]["interval_cycles"]
    audit_cells = [entry for row in rows for entry in row.get("audit", [])]
    if audit_cells:
        merged["audit"] = {
            "ok": all(entry["ok"] for entry in audit_cells),
            "cells": audit_cells,
            "violations": sum(len(entry["violations"]) for entry in audit_cells),
        }
    if contracts:
        from repro.slo.contract import evaluate_contracts, verdicts_summary

        merged["slo"] = verdicts_summary(evaluate_contracts(merged, contracts))
    return merged


def _merge_obs(
    obs_raws: list[dict[str, Any]],
    per_shard: list[dict[str, Any]],
    machine: MachineSpec,
) -> dict[str, Any]:
    """Merge per-slice raw window streams into one ``obs`` section.

    Slice order is already fixed by the caller's row sort.  Raw windows
    superpose (integer counters sum, latency samples pool, shard lanes
    copy from their owning slice), then the *same* formatter the live
    sampler uses rebuilds the records — which is what makes the merged
    stream byte-identical to an unsliced run's (see
    :mod:`repro.obs.sampler`).  The anomaly detector replays over the
    merged records; it is deterministic over the stream, so this matches
    running it live on an unsliced kernel.
    """
    from repro.obs import AnomalyDetector
    from repro.obs.sampler import (
        build_window_records,
        merge_raw_windows,
        merge_spilled,
        shard_lane,
    )

    first = obs_raws[0]
    interval = first["interval_cycles"]
    if any(raw["interval_cycles"] != interval for raw in obs_raws):
        raise ValueError("slices disagree on the obs interval")
    merged_raw = merge_raw_windows([raw["raw_windows"] for raw in obs_raws])
    shard_lanes = [shard_lane(entry["shard"]) for entry in per_shard]
    records: list[dict[str, Any]] = []
    for raw_window in merged_raw:
        records.extend(
            build_window_records(
                raw_window,
                interval_cycles=interval,
                freq_hz=machine.freq_hz,
                shard_lanes=shard_lanes,
            )
        )
    detector = AnomalyDetector()
    anomalies = detector.observe_all(records)
    tenant_lanes = sorted(
        {
            record["lane"]
            for record in records
            if record["lane"].startswith("tenant:")
        }
    )
    return {
        "interval_cycles": interval,
        "windows": first["windows"],
        "freq_hz": machine.freq_hz,
        "lanes": ["total", *shard_lanes, *tenant_lanes],
        "records": records,
        "dropped_records": 0,
        "spilled": dict(
            sorted(merge_spilled([raw["spilled"] for raw in obs_raws]).items())
        ),
        "anomalies": anomalies,
    }
