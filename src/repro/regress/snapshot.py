"""Run snapshots: everything ``repro diff`` needs, as one JSON file.

``capture_run`` executes a set of experiments with telemetry attached
(each through :func:`repro.experiments.suite.run_experiment` under its
own session, so every cell actually runs) and collects, per repeat:

- per-cell cycle-ledger categories (wall and work cycles) and simulated
  end time, from each cell's :class:`~repro.telemetry.ledger.LedgerSnapshot`;
- the experiment's metrics registry (counters, gauges, histogram
  quantiles), flattened to ``name{label=value,...}`` keys;
- the experiment's shape-check verdicts (the paper-shape violations).

Repeats are the bootstrap resampling unit: the simulator is
deterministic per parameter set, so repeated identical runs give
zero-width confidence intervals, while perturbed runs (different seeds /
parameters) widen them honestly.  Snapshots are stamped with the
artifact schema version, written by
:func:`~repro.telemetry.schema.write_artifact` and read back by
:func:`load_snapshot`, which refuses mismatched inputs.
"""

from __future__ import annotations

import contextlib
import time
from typing import Any, Mapping, Sequence

from repro.experiments import EXPERIMENTS
from repro.experiments.suite import run_experiment
from repro.faults import FaultPlan, activate_plan
from repro.telemetry.ledger import CATEGORIES
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.schema import read_artifact, stamp
from repro.telemetry.session import TelemetrySession

#: Artifact kind recorded in every snapshot's stamp.
SNAPSHOT_ARTIFACT = "run-snapshot"


def _labels_key(name: str, labels: Sequence[tuple[str, str]], suffix: str = "") -> str:
    body = ",".join(f"{key}={value}" for key, value in labels)
    return f"{name}{suffix}{{{body}}}"


def _registry_values(registry: MetricsRegistry) -> dict[str, float]:
    """Flatten a metrics registry to scalar samples.

    Counters and gauges contribute their value; histograms contribute
    their p50/p95/p99 and count — the quantities the exporters publish,
    and therefore the ones worth guarding.
    """
    values: dict[str, float] = {}
    for counter in registry.counters:
        values[_labels_key(counter.name, counter.labels)] = counter.value
    for gauge in registry.gauges:
        values[_labels_key(gauge.name, gauge.labels)] = gauge.value
    for histogram in registry.histograms:
        summary = histogram.summary()
        for key in ("p50", "p95", "p99", "count"):
            values[_labels_key(histogram.name, histogram.labels, f".{key}")] = summary[key]
    return values


def _merge_samples(into: dict[str, list[float]], values: Mapping[str, float]) -> None:
    for key, value in values.items():
        into.setdefault(key, []).append(round(float(value), 3))


def capture_run(
    experiment_ids: Sequence[str] | None = None,
    overrides: Mapping[str, Mapping[str, Any]] | None = None,
    quick: bool = True,
    jobs: int | str = 1,
    repeats: int = 1,
    name: str = "run",
    fault_plan: FaultPlan | None = None,
) -> dict[str, Any]:
    """Execute the experiments and build a snapshot document.

    ``overrides`` maps experiment id to ``cells()`` parameters (the CLI
    passes its quick presets).  Each repeat runs every experiment once,
    each under its own session, even where two experiments share cells;
    samples accumulate per (cell, category) and per metric so the diff
    can bootstrap over them.

    ``fault_plan`` runs every cell under that fault plan (see
    :mod:`repro.faults`): ``build_stack`` attaches one injector per
    cell, the snapshot records the plan, and ``diff_snapshots`` refuses
    to compare snapshots whose plans differ.  Under a plan the runner
    keeps every cell in-process — the active-plan stack is process
    state, and serial cells keep the injected schedule deterministic.
    """
    ids = list(experiment_ids) if experiment_ids is not None else list(EXPERIMENTS)
    overrides = overrides or {}
    experiments: dict[str, Any] = {}
    for exp_id in ids:
        if exp_id not in EXPERIMENTS:
            raise KeyError(f"unknown experiment {exp_id!r}")
        experiments[exp_id] = {"violations": [], "cells": {}, "metrics": {}}

    for _ in range(repeats):
        for exp_id in ids:
            kwargs = dict(overrides.get(exp_id, {}))
            record = experiments[exp_id]
            plan_scope = (
                activate_plan(fault_plan)
                if fault_plan is not None
                else contextlib.nullcontext()
            )
            with TelemetrySession() as session, plan_scope:
                outcome = run_experiment(exp_id, jobs=jobs, **kwargs)
            record["violations"].append(outcome.violations)
            for capture in session.captures:
                snapshot = capture.snapshot
                if snapshot is None:
                    continue
                cell = record["cells"].setdefault(
                    capture.label,
                    {
                        "n_cpus": snapshot.n_cpus,
                        "backend": capture.backend_stats.get("backend", "regular"),
                        "now_cycles": [],
                        "wall_by_category": {cat: [] for cat in CATEGORIES},
                        "work_by_category": {},
                    },
                )
                cell["now_cycles"].append(round(snapshot.now_cycles, 3))
                for category in CATEGORIES:
                    cell["wall_by_category"][category].append(
                        round(snapshot.wall_by_category.get(category, 0.0), 3)
                    )
                for category, cycles in snapshot.work_by_category.items():
                    cell["work_by_category"].setdefault(category, []).append(
                        round(cycles, 3)
                    )
            _merge_samples(record["metrics"], _registry_values(session.registry))

    return {
        **stamp(SNAPSHOT_ARTIFACT),
        "name": name,
        "created_unix": int(time.time()),
        "quick": quick,
        "repeats": repeats,
        "experiment_ids": ids,
        "experiments": experiments,
        "fault_plan": fault_plan.to_dict() if fault_plan is not None else None,
    }


def load_snapshot(path: str) -> dict[str, Any]:
    """Read a snapshot, refusing unstamped or mismatched files."""
    return read_artifact(path, (SNAPSHOT_ARTIFACT,))
