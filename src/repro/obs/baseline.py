"""Committed window-stream baselines: the ``obs-windows`` snapshot and gate.

``baselines/obs-quick.json`` snapshots the quick serve scenario's whole
window stream together with the ``BenchSpec`` that produced it.  ``repro
diff`` re-runs that spec (simulated runs are deterministic, so any drift
is a real behavior change) and :func:`compare_obs_baseline` gates window
counts, lane coverage, anomaly verdicts and the completion totals; see
:mod:`repro.regress.baselines`.
"""

from __future__ import annotations

from typing import Any

from repro.obs.export import OBS_ARTIFACT
from repro.telemetry.schema import stamp


def obs_snapshot(result: dict[str, Any]) -> dict[str, Any]:
    """Build a committable snapshot from a serve-bench result with obs."""
    obs = result.get("obs")
    if obs is None:
        raise ValueError("result has no obs section (run with obs=True)")
    total_completed = sum(
        record["completed"]
        for record in obs["records"]
        if record["lane"] == "total"
    )
    return {
        "meta": stamp(OBS_ARTIFACT),
        "spec": result["spec"],
        "windows": obs["windows"],
        "interval_cycles": obs["interval_cycles"],
        "freq_hz": obs["freq_hz"],
        "lanes": list(obs["lanes"]),
        "summary": {
            "records": len(obs["records"]),
            "completed": total_completed,
            "anomalies": len(obs["anomalies"]),
        },
        "records": list(obs["records"]),
        "anomalies": list(obs["anomalies"]),
    }


def _anomaly_key(anomaly: dict[str, Any]) -> tuple[Any, ...]:
    return (
        anomaly["window"],
        anomaly["lane"],
        anomaly["metric"],
        anomaly["kind"],
    )


def compare_obs_baseline(
    snapshot: dict[str, Any],
    baseline: dict[str, Any],
    threshold: float = 0.05,
) -> list[str]:
    """Gate a fresh snapshot against a committed one; returns violations.

    Exact gates (window grid, lane coverage, record count, anomaly
    verdicts) catch structural drift; the completion total gets a
    relative ``threshold`` band to absorb intentional model changes.
    """
    violations: list[str] = []
    if snapshot["windows"] != baseline["windows"]:
        violations.append(
            f"window count changed: {snapshot['windows']} vs baseline "
            f"{baseline['windows']}"
        )
    if snapshot["interval_cycles"] != baseline["interval_cycles"]:
        violations.append(
            f"window interval changed: {snapshot['interval_cycles']} vs "
            f"baseline {baseline['interval_cycles']}"
        )
    if list(snapshot["lanes"]) != list(baseline["lanes"]):
        violations.append(
            f"lane coverage changed: {snapshot['lanes']} vs baseline "
            f"{baseline['lanes']}"
        )
    new_summary = snapshot["summary"]
    old_summary = baseline["summary"]
    if new_summary["records"] != old_summary["records"]:
        violations.append(
            f"record count changed: {new_summary['records']} vs baseline "
            f"{old_summary['records']}"
        )
    new_keys = [_anomaly_key(a) for a in snapshot["anomalies"]]
    old_keys = [_anomaly_key(a) for a in baseline["anomalies"]]
    if new_keys != old_keys:
        gone = [key for key in old_keys if key not in new_keys]
        fresh = [key for key in new_keys if key not in old_keys]
        violations.append(
            "anomaly verdicts changed: "
            f"missing {gone or 'none'}, new {fresh or 'none'}"
        )
    old_completed = old_summary["completed"]
    new_completed = new_summary["completed"]
    if old_completed and abs(new_completed - old_completed) > (
        threshold * old_completed
    ):
        violations.append(
            f"windowed completions moved: {new_completed} vs baseline "
            f"{old_completed} (> {threshold:.0%})"
        )
    return violations
