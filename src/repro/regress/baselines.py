"""One protocol for the serve-family regression baselines.

A committed baseline is the artifact its run writes with ``--out``,
nothing distilled from it.  Two artifact kinds gate the serving stack,
one table entry each, keyed by the stamp:

| stamp | written by | re-run from | compare |
|---|---|---|---|
| ``serve-bench`` | ``serve bench`` (``--scenario`` for a replay) | its embedded ``BenchSpec`` | :func:`compare_serve` |
| ``autoscale-sweep`` | ``autoscale sweep`` | the sweep over its scenario | :func:`compare_sweep` |

Baselines are written by :func:`repro.telemetry.schema.write_artifact`
and read by :func:`repro.telemetry.schema.read_artifact`, which refuses
any other stamp (a retired ``scenario-bench`` or ``obs-windows``
document included) in one line naming the stamps accepted.  :func:`gate`
is the one comparison every entry point uses: ``repro diff`` (after
``rerun``) and the ``--baseline`` flags of ``serve bench`` (its
``--evidence`` pack included) and ``autoscale sweep``.  A new baseline
kind is one :data:`BASELINES` entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.api import BenchSpec
from repro.autoscale.bench import AUTOSCALE_ARTIFACT, run_autoscale_sweep
from repro.serve.bench import run_bench
from repro.telemetry.schema import SchemaMismatch, artifact_of

#: Artifact stamp of a serve bench run (and of a scenario replay).
SERVE_ARTIFACT = "serve-bench"


@dataclass(frozen=True)
class BaselineKind:
    """How one baseline kind is re-run and compared."""

    #: Short name for gate output (``serve baseline gate: OK``).
    label: str
    #: Baseline artifact → a fresh run of what it recorded.
    rerun: Callable[[dict[str, Any]], dict[str, Any]]
    #: (fresh artifact, baseline artifact, threshold) → violation messages.
    compare: Callable[[dict[str, Any], dict[str, Any], float], list[str]]


def _rerun_spec(baseline: dict[str, Any]) -> dict[str, Any]:
    spec = baseline.get("spec")
    if spec is None:
        raise SchemaMismatch(
            "the baseline embeds no spec to re-run; regenerate it"
        )
    return run_bench(BenchSpec.from_json(spec), telemetry=False)


def _spec_drift(new: Any, old: Any, name: str = "") -> Iterator[str]:
    """``<dotted field> <new> vs baseline <old>`` for every field two spec
    documents differ in; the ``meta`` stamps are provenance and skipped."""
    if isinstance(new, dict) and isinstance(old, dict):
        for key in sorted((new.keys() | old.keys()) - {"meta"}):
            yield from _spec_drift(new.get(key), old.get(key), f"{name}.{key}" if name else key)
    elif new != old:
        yield f"{name} {new!r} vs baseline {old!r}"


def _anomaly_keys(obs: dict[str, Any]) -> list[tuple[Any, ...]]:
    return [
        (anomaly["window"], anomaly["lane"], anomaly["metric"], anomaly["kind"])
        for anomaly in obs["anomalies"]
    ]


def _windowed_completions(obs: dict[str, Any]) -> int:
    return sum(
        record["completed"] for record in obs["records"] if record["lane"] == "total"
    )


def _compare_windows(
    new: dict[str, Any], old: dict[str, Any], threshold: float
) -> list[str]:
    """The ``obs`` section: the window grid, lanes and anomaly verdicts
    exactly, the total lane's completions within ``threshold``."""
    violations = [
        f"{label} changed: {new[name]} vs baseline {old[name]}"
        for name, label in (
            ("windows", "window count"),
            ("interval_cycles", "window interval"),
            ("lanes", "lane coverage"),
        )
        if new[name] != old[name]
    ]
    if len(new["records"]) != len(old["records"]):
        violations.append(
            f"record count changed: {len(new['records'])} vs baseline "
            f"{len(old['records'])}"
        )
    new_keys, old_keys = _anomaly_keys(new), _anomaly_keys(old)
    if new_keys != old_keys:
        gone = [key for key in old_keys if key not in new_keys]
        fresh = [key for key in new_keys if key not in old_keys]
        violations.append(
            "anomaly verdicts changed: "
            f"missing {gone or 'none'}, new {fresh or 'none'}"
        )
    new_completed, old_completed = _windowed_completions(new), _windowed_completions(old)
    if abs(new_completed - old_completed) > threshold * old_completed:
        violations.append(
            f"windowed completions moved: {new_completed} vs baseline "
            f"{old_completed} (> {threshold:.0%})"
        )
    return violations


def compare_serve(
    fresh: dict[str, Any], baseline: dict[str, Any], threshold: float = 0.1
) -> list[str]:
    """Gate a ``serve-bench`` run against a ``serve-bench`` baseline.

    A run of another spec is not comparable: every spec field but
    ``slices`` must match (``scenario`` included), and so must the trace
    digest and the issued arrivals.  Outcomes get the relative
    ``threshold``: completions and throughput may not drop beyond it,
    p50/p99 may not rise beyond it, shed may not exceed
    ``max(old·(1+t), old+5)`` and hard SLO breaches may not grow.  A
    baseline with an ``obs`` section also gates the windows
    (:func:`_compare_windows`).
    """
    violations: list[str] = []
    # ``slices`` only spreads one run over processes, so a sliced run
    # gates against its unsliced baseline.
    drift = list(
        _spec_drift(
            {**(fresh.get("spec") or {}), "slices": None},
            {**(baseline.get("spec") or {}), "slices": None},
        )
    )
    if drift:
        violations.append(
            "spec mismatch (a run of another spec is not comparable): "
            + ", ".join(drift)
        )
    new_digest = fresh["params"].get("trace_digest")
    old_digest = baseline["params"].get("trace_digest")
    if new_digest != old_digest:
        violations.append(
            f"trace_digest mismatch: run has {new_digest!r}, baseline has {old_digest!r}"
        )
    new, old = fresh["totals"], baseline["totals"]
    if new["issued"] != old["issued"]:
        violations.append(
            f"issued arrivals changed: {new['issued']} vs baseline {old['issued']}"
        )
    for name, label in (("completed", "completed requests"), ("throughput_rps", "throughput")):
        if new[name] < old[name] * (1 - threshold):
            violations.append(
                f"{label} regressed: {new[name]:,.0f} vs baseline "
                f"{old[name]:,.0f} (> {threshold:.0%} drop)"
            )
    for pct in ("p50", "p99"):
        new_us, old_us = new["latency_us"][pct], old["latency_us"][pct]
        if old_us > 0 and new_us > old_us * (1 + threshold):
            violations.append(
                f"{pct} latency inflated: {new_us:.1f} us vs baseline "
                f"{old_us:.1f} us (> {threshold:.0%} rise)"
            )
    if new["shed"] > max(old["shed"] * (1 + threshold), old["shed"] + 5):
        violations.append(f"shed count grew: {new['shed']} vs baseline {old['shed']}")
    new_hard = (fresh.get("slo") or {}).get("hard_breaches", 0)
    old_hard = (baseline.get("slo") or {}).get("hard_breaches", 0)
    if new_hard > old_hard:
        violations.append(
            f"hard SLO breaches grew: {new_hard} vs baseline {old_hard} "
            "(see the artifact's slo.verdicts for the tenants involved)"
        )
    if baseline.get("obs") is not None:
        if fresh.get("obs") is None:
            violations.append("the run has no obs section to gate the baseline's windows")
        else:
            violations += _compare_windows(fresh["obs"], baseline["obs"], threshold)
    return violations


def compare_sweep(
    result: dict[str, Any], baseline: dict[str, Any], threshold: float = 0.1
) -> list[str]:
    """Gate an ``autoscale-sweep`` run against its baseline.

    Identity first (scenario, trace digest, arm set), then the live gate
    itself must pass, then each arm's outcome numbers must sit within
    the relative ``threshold`` of the committed values — drift in either
    direction is a model change someone must re-baseline deliberately.
    """
    violations: list[str] = []
    for field in ("scenario", "trace_digest"):
        if result.get(field) != baseline.get(field):
            violations.append(
                f"{field} mismatch: run has {result.get(field)!r}, "
                f"baseline has {baseline.get(field)!r}"
            )
    gate = result.get("gate") or {}
    if not gate.get("ok"):
        for message in gate.get("violations", ["gate failed"]):
            violations.append(f"acceptance gate: {message}")
    new_arms = result.get("arms") or {}
    old_arms = baseline.get("arms") or {}
    if sorted(new_arms) != sorted(old_arms):
        violations.append(
            f"arm set changed: {sorted(new_arms)} vs baseline "
            f"{sorted(old_arms)}"
        )
    for name in sorted(set(new_arms) & set(old_arms)):
        new, old = new_arms[name], old_arms[name]
        if new.get("completed") != old.get("completed"):
            violations.append(
                f"{name}: completed changed: {new.get('completed')} vs "
                f"baseline {old.get('completed')}"
            )
        for metric in ("cycles_per_request", "p99_us"):
            old_value = old.get(metric)
            new_value = new.get(metric)
            if not old_value or new_value is None:
                continue
            drift = abs(new_value - old_value) / old_value
            if drift > threshold:
                violations.append(
                    f"{name}: {metric} drifted {drift:.0%}: {new_value:,.1f} "
                    f"vs baseline {old_value:,.1f} (> {threshold:.0%})"
                )
    return violations


BASELINES: dict[str, BaselineKind] = {
    SERVE_ARTIFACT: BaselineKind("serve", _rerun_spec, compare_serve),
    AUTOSCALE_ARTIFACT: BaselineKind(
        "autoscale",
        lambda baseline: run_autoscale_sweep(baseline["scenario"]),
        compare_sweep,
    ),
}


def gate(result: dict[str, Any], baseline: dict[str, Any], threshold: float) -> list[str]:
    """Gate a fresh run against a baseline document.

    The baseline's stamp picks its kind, and the run must carry the
    same stamp; a mismatch raises :class:`SchemaMismatch` instead of
    gating.  Returns the violation messages.
    """
    kind = artifact_of(baseline)
    found = artifact_of(result)
    if found != kind:
        raise SchemaMismatch(f"{kind!r} baselines gate {kind!r} runs, not {found!r}")
    return BASELINES[kind].compare(result, baseline, threshold)
