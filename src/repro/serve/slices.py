"""Slice-parallel serving simulation: shards partitioned over processes.

``repro serve bench --slices N`` splits an S-shard cluster into N
*slices*, each simulating its subset of shards in its own forked process
(:func:`repro.serve.bench.simulate`), and superposes the slice outcomes
with :func:`merge_outcomes`; :func:`repro.serve.bench.build_artifact`
then writes the ``serve-bench`` artifact exactly as it writes an
unsliced run's, which is the one-outcome case.  This is how the
simulator scales past one host core: the serve layer's shards share
nothing but the router, so the simulation itself is shard-parallel.

**Why the merge is exact.**  Placement is rendezvous hashing over the
*global* shard index (:func:`repro.serve.router._rendezvous_score`), so
every key has one owner shard, computable without running anything.  Each
slice walks the *identical* open-loop arrival stream — the same seeded
Poisson gaps, ops, keys and tenants, or the same trace events — and
admits exactly the arrivals whose owner shard it hosts (the
:class:`~repro.serve.loadgen.LoadGenerator` ``admit`` hook skips the
rest without disturbing the stream).  The
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
``tests/serve/test_slices.py`` locks that in.  Restrictions (enforced by
:class:`repro.api.BenchSpec`): open loop only, ``policy="hash"`` only
(round-robin placement depends on global arrival interleaving), no
autoscaling, and a worker ``budget`` is split across slices
proportionally to their shard counts.

Execution reuses :class:`repro.parallel.runner.CellRunner` — the same
fork pool and spec-order result collection every experiment grid uses;
slices are just one more registered cell kind (``serve-slice``).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable

from repro.api import BenchSpec
from repro.parallel.cells import CellSpec, cell
from repro.parallel.runner import CellRunner
from repro.serve.router import _rendezvous_score
from repro.sim.machine import MachineSpec


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
    """Simulate one slice; returns its outcome (registry: ``serve-slice``).

    The cell carries its whole configuration as one serialized
    :class:`repro.api.BenchSpec` (``spec_json``) plus the slice plumbing:
    global shard count, owned shard ids, simulated machine and the audit
    switch.
    """
    from repro.serve.bench import simulate

    kw = spec.kwargs
    shard_ids = tuple(kw["shard_ids"])
    return simulate(
        BenchSpec.from_json(kw["spec_json"]),
        machine=kw["machine"],
        telemetry=False,
        audit=kw["audit"],
        shard_ids=shard_ids,
        admit=make_admit(shard_ids, kw["shards"]),
    )


# ----------------------------------------------------------------------
# Orchestration (parent process)
# ----------------------------------------------------------------------
def slice_cells(
    spec: BenchSpec,
    *,
    machine: MachineSpec | None = None,
    audit: bool = False,
) -> list[CellSpec]:
    """The sliced run as cell specs — one ``serve-slice`` cell per slice.

    Each cell receives a complete per-slice :class:`repro.api.BenchSpec`
    (``slices=1``, worker budget apportioned by shard share, the fault
    plan only in the slice owning the faulted shard) serialized through
    :meth:`~repro.api.BenchSpec.to_json`, so the cell boundary speaks
    exactly the declarative schema evidence packs record.  A scenario or
    trace on the spec switches every slice's open loop from seeded draws
    to the identical committed trace's events; either way a slice admits
    only the arrivals whose rendezvous owner it hosts.
    """
    serve = spec.serve
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
                shards=serve.shards,
                shard_ids=shard_ids,
                spec_json=slice_spec.to_json(),
                machine=machine,
                audit=audit,
            )
        )
    return specs


def run_slices(
    spec: BenchSpec,
    *,
    machine: MachineSpec | None = None,
    audit: bool = False,
    jobs: int | str | None = None,
) -> list[dict[str, Any]]:
    """Run every slice of ``spec``; returns their outcomes in slice order.

    The cells go through :class:`repro.parallel.runner.CellRunner`
    (``jobs`` workers, ``"auto"`` by default); a single pending cell
    runs inline.
    """
    runner = CellRunner(jobs="auto" if jobs is None else jobs)
    cells = slice_cells(spec, machine=machine, audit=audit)
    return [done.row for done in runner.run(cells)]


def merge_outcomes(outcomes: list[dict[str, Any]]) -> dict[str, Any]:
    """Superpose slice outcomes, given in slice order, into one outcome.

    One outcome is returned as is: an unsliced run is the one-slice
    case.  Otherwise integer counters sum, ``quarantined``/``dead``/
    ``retired`` concatenate sorted, latency samples pool in slice order,
    per-shard rows and obs shard lanes order by global index, raw
    windows merge window by window, the merged clock is the maximum of
    the slice clocks, and fleet sums add field by field.  The params gain the
    slicing layout, the summed worker budget and the one slice's fault
    plan; audit cells gain a ``slice-<i>:`` prefix; ``slices`` records
    each slice's provenance.
    """
    if not outcomes:
        raise ValueError("nothing to merge")
    if len(outcomes) == 1:
        return outcomes[0]
    first = outcomes[0]
    totals: dict[str, Any] = {}
    for name, value in first["totals"].items():
        values = [outcome["totals"][name] for outcome in outcomes]
        if name == "issued":
            totals[name] = value  # every slice walks the whole schedule
        elif name == "elapsed_s":
            totals[name] = max(values)
        elif isinstance(value, list):
            pooled = [item for items in values for item in items]
            totals[name] = (
                sorted(pooled) if name in ("quarantined", "dead", "retired") else pooled
            )
        else:
            totals[name] = sum(values)
    params = dict(first["params"])
    params.update(
        slices=len(outcomes),
        slice_shards=[outcome["shard_ids"] for outcome in outcomes],
        budget=sum(outcome["params"]["budget"] or 0 for outcome in outcomes)
        or params["budget"],
        plan=next(
            (outcome["params"]["plan"] for outcome in outcomes if outcome["params"]["plan"]),
            None,
        ),
    )
    budgets = [outcome["budget"] for outcome in outcomes if outcome["budget"] is not None]
    obs = None
    if first["obs"] is not None:
        from repro.obs.sampler import merge_raw_windows, merge_spilled

        slices_obs = [outcome["obs"] for outcome in outcomes]
        obs = {
            "interval_cycles": first["obs"]["interval_cycles"],
            "windows": first["obs"]["windows"],
            "shards": sorted(index for raw in slices_obs for index in raw["shards"]),
            "raw_windows": merge_raw_windows([raw["raw_windows"] for raw in slices_obs]),
            "spilled": merge_spilled([raw["spilled"] for raw in slices_obs]),
        }
    return {
        "freq_hz": first["freq_hz"],
        "params": params,
        "totals": totals,
        "per_tenant": _pool_by_name([outcome["per_tenant"] for outcome in outcomes]),
        "per_app": _pool_by_name([outcome["per_app"] for outcome in outcomes]),
        "spans": _sum_fields([outcome["spans"] for outcome in outcomes]),
        "per_shard": sorted(
            (row for outcome in outcomes for row in outcome["per_shard"]),
            key=lambda row: row["shard"],
        ),
        "budget": _sum_fields(budgets) if budgets else None,
        "fleet": _sum_fields([outcome["fleet"] for outcome in outcomes]),
        "events_processed": sum(outcome["events_processed"] for outcome in outcomes),
        "obs": obs,
        "autoscale": None,  # BenchSpec refuses autoscaling with slices > 1
        "audit": (
            None
            if first["audit"] is None
            else [
                {**entry, "cell": f"slice-{index}:{entry['cell']}"}
                for index, outcome in enumerate(outcomes)
                for entry in outcome["audit"]
            ]
        ),
        "slices": [
            {
                "slice": index,
                "shard_ids": outcome["shard_ids"],
                "elapsed_s": outcome["totals"]["elapsed_s"],
                "completed": outcome["totals"]["completed"],
                "skipped_arrivals": outcome["skipped"],
            }
            for index, outcome in enumerate(outcomes)
        ],
    }


def _sum_fields(rows: list[dict[str, Any]]) -> dict[str, Any]:
    """Field-by-field sums of same-shaped rows, in row order."""
    return {name: sum(row[name] for row in rows) for name in rows[0]}


def _pool_by_name(tables: list[dict[str, dict[str, Any]]]) -> dict[str, dict[str, Any]]:
    """Per-tenant or per-app records: counters sum, sample lists pool."""
    pooled: dict[str, dict[str, Any]] = {}
    for table in tables:
        for name, record in table.items():
            target = pooled.setdefault(
                name,
                {key: [] if isinstance(value, list) else 0 for key, value in record.items()},
            )
            for key, value in record.items():
                target[key] += value
    return pooled
