"""One protocol for the serve-family regression baselines.

Four committed baseline kinds gate the serving stack, one table entry
each, keyed by the artifact stamp:

| stamp | snapshot of a run | re-run from |
|---|---|---|
| ``serve-bench`` | the bench artifact itself | its embedded ``BenchSpec`` |
| ``obs-windows`` | the run's window stream | its embedded ``BenchSpec`` |
| ``scenario-bench`` | a trace replay's outcome | its embedded ``BenchSpec`` |
| ``autoscale-sweep`` | every sweep arm's outcome | the sweep over its scenario |

Baselines are written by :func:`repro.telemetry.schema.write_artifact`
and read by :func:`repro.telemetry.schema.read_artifact`.  :func:`gate`
is the one comparison every entry point uses: ``repro diff`` (after
``rerun``) and the ``--baseline`` flags of ``serve bench``,
``scenarios replay``, ``autoscale sweep`` and ``evidence build``.  A new
baseline kind is one :data:`BASELINES` entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.api import BenchSpec
from repro.autoscale.bench import (
    AUTOSCALE_ARTIFACT,
    compare_sweep_baseline,
    run_autoscale_sweep,
    sweep_snapshot,
)
from repro.obs import OBS_ARTIFACT, compare_obs_baseline, obs_snapshot
from repro.scenarios import (
    SCENARIO_ARTIFACT,
    compare_scenario_baseline,
    scenario_snapshot,
)
from repro.serve.bench import compare_to_baseline, run_bench
from repro.telemetry.schema import SchemaMismatch, artifact_of, read_artifact

#: Artifact stamp of a serve bench run (and of a scenario replay).
SERVE_ARTIFACT = "serve-bench"


@dataclass(frozen=True)
class BaselineKind:
    """How one baseline kind is recorded, re-run and compared."""

    #: Short name for gate output (``obs baseline gate: OK``).
    label: str
    #: Artifact stamp of the runs this kind snapshots.
    source: str
    #: Run artifact → committable baseline document.
    snapshot: Callable[[dict[str, Any]], dict[str, Any]]
    #: Baseline document → a fresh run of what it recorded.
    rerun: Callable[[dict[str, Any]], dict[str, Any]]
    #: (fresh snapshot, baseline, threshold) → violation messages.
    compare: Callable[[dict[str, Any], dict[str, Any], float], list[str]]


def _rerun_spec(baseline: dict[str, Any]) -> dict[str, Any]:
    spec = baseline.get("spec")
    if spec is None:
        raise SchemaMismatch(
            "the baseline embeds no spec to re-run; regenerate it"
        )
    return run_bench(BenchSpec.from_json(spec), telemetry=False)


BASELINES: dict[str, BaselineKind] = {
    SERVE_ARTIFACT: BaselineKind(
        "serve", SERVE_ARTIFACT, lambda result: result, _rerun_spec,
        compare_to_baseline,
    ),
    OBS_ARTIFACT: BaselineKind(
        "obs", SERVE_ARTIFACT, obs_snapshot, _rerun_spec, compare_obs_baseline
    ),
    SCENARIO_ARTIFACT: BaselineKind(
        "scenario", SERVE_ARTIFACT, scenario_snapshot, _rerun_spec,
        compare_scenario_baseline,
    ),
    AUTOSCALE_ARTIFACT: BaselineKind(
        "autoscale",
        AUTOSCALE_ARTIFACT,
        sweep_snapshot,
        lambda baseline: run_autoscale_sweep(baseline["scenario"]),
        compare_sweep_baseline,
    ),
}


def gate(result: dict[str, Any], path: str, threshold: float) -> list[str]:
    """Gate a fresh run against the baseline at ``path``; returns violations.

    The baseline's stamp picks its kind; the run must be one that kind
    snapshots.  Unreadable, malformed or mismatched baselines raise
    :class:`SchemaMismatch` instead of gating.
    """
    baseline = read_artifact(path, BASELINES)
    kind = BASELINES[artifact_of(baseline)]
    found = artifact_of(result)
    if found != kind.source:
        raise SchemaMismatch(
            f"{path}: {artifact_of(baseline)!r} baselines gate "
            f"{kind.source!r} runs, not {found!r}"
        )
    return kind.compare(kind.snapshot(result), baseline, threshold)
