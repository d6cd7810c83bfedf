"""The diurnal acceptance sweep: autoscale vs the static grid.

The claim under test (and under CI gate): on the committed
``diurnal-kv`` trace, the elastic control plane achieves a *lower
fleet-level cycles-per-request* than every static (shards ×
worker-budget) configuration in the sweep grid, at equal-or-better p99.
Cycles-per-request here is the artifact's ``fleet`` section — server
threads and the integrated worker-budget cap for the whole run, plus
the modeled enclave create/teardown cost of any scaling — divided by
completed requests.  A static fleet pays for its peak-sized
provisioning through the diurnal trough; the autoscaler pays the
enclave-lifecycle price to track the curve instead.

Every arm replays the identical committed trace bytes with the same
dispatch model, so the comparison is pure provisioning policy.  The
sweep artifact (``autoscale-sweep``) embeds its own gate verdict;
``baselines/autoscale-diurnal.json`` is one such artifact, and
:func:`repro.regress.baselines.compare_sweep` gates a fresh sweep
against it.
"""

from __future__ import annotations

from typing import Any

from repro.api import AutoscaleSpec, BenchSpec, ServeSpec
from repro.telemetry.schema import stamp

#: Artifact kind of a sweep result / committed sweep baseline.
AUTOSCALE_ARTIFACT = "autoscale-sweep"

#: The scenario the acceptance gate runs on.
DEFAULT_SCENARIO = "diurnal-kv"

#: Relative slack on the "equal-or-better p99" half of the gate: the
#: percentile estimator quantizes on sample boundaries, so bit-exact
#: equality is the expectation and anything beyond ~2% is a real tail
#: regression.
P99_TOLERANCE = 0.02

#: The static (shards × worker-budget) grid the autoscaler must beat.
STATIC_GRID: tuple[tuple[int, int], ...] = ((2, 8), (4, 16), (6, 24))


def sweep_specs(
    scenario: str = DEFAULT_SCENARIO,
    *,
    static_grid: tuple[tuple[int, int], ...] = STATIC_GRID,
) -> list[tuple[str, BenchSpec]]:
    """The sweep's arms: one autoscaled spec plus the static grid.

    Every arm shares the scenario trace, queue shape and dispatch model;
    only the provisioning policy differs.  Names are stable (they key
    the artifact's ``arms`` map and the baseline compare).
    """
    arms: list[tuple[str, BenchSpec]] = [
        (
            "autoscale",
            BenchSpec(
                serve=ServeSpec(
                    shards=2,
                    autoscale=AutoscaleSpec(
                        min_shards=1,
                        max_shards=6,
                        worker_options=(1, 2, 4),
                        batch_options=(1, 2, 4),
                    ),
                ),
                scenario=scenario,
            ),
        )
    ]
    for shards, budget in static_grid:
        arms.append(
            (
                f"static-{shards}x{budget}",
                BenchSpec(serve=ServeSpec(shards=shards, budget=budget), scenario=scenario),
            )
        )
    return arms


def _arm_summary(result: dict[str, Any]) -> dict[str, Any]:
    totals = result["totals"]
    fleet = result.get("fleet") or {}
    summary = {
        "issued": totals.get("issued"),
        "completed": totals.get("completed"),
        "shed": totals.get("shed"),
        "p50_us": (totals.get("latency_us") or {}).get("p50"),
        "p99_us": (totals.get("latency_us") or {}).get("p99"),
        "provisioned_cycles": fleet.get("provisioned_cycles"),
        "cycles_per_request": fleet.get("cycles_per_request"),
        "shards_spawned": fleet.get("shards_spawned"),
        "shards_retired": fleet.get("shards_retired"),
    }
    autoscale = result.get("autoscale")
    if autoscale is not None:
        summary["autoscale"] = {
            "windows": autoscale["windows"],
            "spawns": autoscale["spawns"],
            "retires": autoscale["retires"],
            "suppressed_spawns": autoscale["suppressed_spawns"],
            "forecast_shed": autoscale["forecast_shed"],
            "final_shards": autoscale["final_shards"],
            "final_cap": autoscale["final_cap"],
        }
    return summary


def evaluate_sweep(arms: dict[str, dict[str, Any]]) -> list[str]:
    """The acceptance predicate; returns violation messages (empty = ok).

    The ``autoscale`` arm must undercut *every* static arm on
    cycles-per-request while holding p99 within :data:`P99_TOLERANCE`
    of each.
    """
    violations: list[str] = []
    elastic = arms.get("autoscale")
    if elastic is None:
        return ["sweep has no 'autoscale' arm"]
    auto_cpr = elastic.get("cycles_per_request")
    auto_p99 = elastic.get("p99_us")
    if auto_cpr is None or auto_p99 is None:
        return ["autoscale arm completed no requests — nothing to gate"]
    for name, arm in sorted(arms.items()):
        if name == "autoscale":
            continue
        static_cpr = arm.get("cycles_per_request")
        static_p99 = arm.get("p99_us")
        if static_cpr is not None and auto_cpr >= static_cpr:
            violations.append(
                f"cycles/request not better than {name}: autoscale "
                f"{auto_cpr:,.0f} vs static {static_cpr:,.0f}"
            )
        if static_p99 is not None and auto_p99 > static_p99 * (
            1 + P99_TOLERANCE
        ):
            violations.append(
                f"p99 worse than {name}: autoscale {auto_p99:.1f} us vs "
                f"static {static_p99:.1f} us (> {P99_TOLERANCE:.0%} slack)"
            )
    return violations


def run_autoscale_sweep(
    scenario: str = DEFAULT_SCENARIO,
    *,
    static_grid: tuple[tuple[int, int], ...] = STATIC_GRID,
) -> dict[str, Any]:
    """Run every arm and return the stamped ``autoscale-sweep`` artifact.

    The artifact embeds each arm's spec (declarative, re-runnable), its
    outcome summary, and the gate verdict of :func:`evaluate_sweep`.
    """
    from repro.serve.bench import run_bench

    arms_out: dict[str, dict[str, Any]] = {}
    specs: dict[str, dict[str, Any]] = {}
    trace_digest: str | None = None
    for name, spec in sweep_specs(scenario, static_grid=static_grid):
        result = run_bench(spec)
        arms_out[name] = _arm_summary(result)
        specs[name] = spec.to_json()
        trace_digest = result["params"].get("trace_digest", trace_digest)
    violations = evaluate_sweep(arms_out)
    return {
        "meta": stamp(AUTOSCALE_ARTIFACT),
        "scenario": scenario,
        "trace_digest": trace_digest,
        "specs": specs,
        "arms": arms_out,
        "gate": {"ok": not violations, "violations": violations},
    }
