"""Obs-bench: host cost of the windowed metric sampler.

The sampler subscribes to the kernel event bus and buckets every serve
event into the current window — straight-line dict work on the hot
path.  This bench proves the tentpole's overhead claim: a sampler-
attached serve bench must stay within 10% of the detached run's host
events/s (same scenario, same seed, obs on vs off).

The guards at the bottom are plain tests (no ``benchmark`` fixture) so
they run under a bare ``pytest`` invocation: attaching the sampler must
not perturb the simulated outcome, and the gate helper's violation
paths stay covered.

Run as a script (``python benchmarks/bench_obs_overhead.py``) it emits
``BENCH_obs.json`` — events/s for both arms plus the overhead ratio —
which CI uploads as an artifact.  ``--baseline baselines/meta.json
--min-speedup 0`` additionally re-checks the committed meta baseline's
single-loop band on the same runner (the single-core escape hatch the
meta bench documents), so one job gates both host-side budgets.
"""

import argparse
import gc
import json
import time

from repro.api import BenchSpec, ServeSpec
from repro.serve.bench import run_bench

#: One scenario for both arms: small enough for min-of-N interleaving,
#: busy enough (zc backend, faults off, open loop) that the sampler's
#: per-event work would show.
SCENARIO = BenchSpec(
    serve=ServeSpec(shards=2, backend="zc", budget=8),
    seconds=0.03,
    rate=3_000.0,
    seed=0,
)

MAX_OVERHEAD = 0.10


def _run(obs: bool) -> dict:
    return run_bench(SCENARIO.replace(obs=obs), telemetry=False)


def measure_arms(repeats: int = 5) -> dict:
    """Min-of-N events/s for the detached and sampler-attached arms.

    Host noise is one-sided (contention only ever adds wall time), so
    the minimum over interleaved rounds approximates each arm's
    uncontended cost; interleaving keeps slow host drift from landing
    on one arm only.  The cyclic GC is frozen while timing —
    collections land on whichever arm crosses the allocation threshold,
    adding variance but no signal.
    """
    plain = _run(False)
    attached = _run(True)  # warm-up both paths
    plain_s = attached_s = float("inf")
    gc.collect()
    gc.disable()
    try:
        for _ in range(repeats):
            t0 = time.process_time()
            result = _run(False)
            plain_s = min(plain_s, time.process_time() - t0)
            plain_events = result["host"]["events_processed"]
            t0 = time.process_time()
            result = _run(True)
            attached_s = min(attached_s, time.process_time() - t0)
            attached_events = result["host"]["events_processed"]
    finally:
        gc.enable()
    plain_eps = plain_events / plain_s
    attached_eps = attached_events / attached_s
    return {
        "plain": {
            "wall_seconds": plain_s,
            "events_processed": plain_events,
            "events_per_s": plain_eps,
        },
        "obs": {
            "wall_seconds": attached_s,
            "events_processed": attached_events,
            "events_per_s": attached_eps,
            "windows": attached["obs"]["windows"],
            "records": len(attached["obs"]["records"]),
        },
        # The quantity the gate tests: the share of plain events/s the
        # obs arm gives up.
        "overhead": 1.0 - attached_eps / plain_eps,
    }


def check_overhead(payload: dict, max_overhead: float) -> list[str]:
    """Gate: sampler-attached events/s within ``max_overhead`` of plain."""
    plain = payload["plain"]["events_per_s"]
    attached = payload["obs"]["events_per_s"]
    floor = plain * (1.0 - max_overhead)
    if attached < floor:
        return [
            f"obs arm {attached:,.0f} events/s below the overhead floor "
            f"{floor:,.0f} (plain {plain:,.0f}, budget {max_overhead:.0%})"
        ]
    return []


# ----------------------------------------------------------------------
# Plain-test guards (run under bare pytest)
# ----------------------------------------------------------------------
def test_sampler_preserves_simulated_outcome():
    plain = _run(False)
    attached = _run(True)
    # Observation must not perturb the simulation: identical totals.
    assert attached["totals"]["completed"] == plain["totals"]["completed"]
    assert attached["totals"]["shed"] == plain["totals"]["shed"]
    assert attached["totals"]["latency_us"] == plain["totals"]["latency_us"]
    assert attached["per_shard"] == plain["per_shard"]


def test_check_overhead_violation_paths():
    good = {
        "plain": {"events_per_s": 1_000.0},
        "obs": {"events_per_s": 950.0},
    }
    assert check_overhead(good, 0.10) == []
    slow = {
        "plain": {"events_per_s": 1_000.0},
        "obs": {"events_per_s": 850.0},
    }
    (violation,) = check_overhead(slow, 0.10)
    assert "overhead floor" in violation


def test_sampler_host_overhead_within_budget():
    # Same accumulate-minima escape the meta bench uses: one noisy round
    # rarely gives both arms a clean run, extra rounds only shrink the
    # minima, so only fail when they stop helping.
    payload = measure_arms(repeats=5)
    for _ in range(2):
        if not check_overhead(payload, MAX_OVERHEAD):
            break
        payload = measure_arms(repeats=5)
    assert check_overhead(payload, MAX_OVERHEAD) == [], payload


# ----------------------------------------------------------------------
# Script mode: emit BENCH_obs.json for the CI artifact
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    """Measure sampler overhead and write the JSON artifact."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", default="BENCH_obs.json", help="output file")
    parser.add_argument("--repeats", type=int, default=5, help="min-of-N rounds")
    parser.add_argument(
        "--max-overhead",
        type=float,
        default=MAX_OVERHEAD,
        help="relative events/s budget for the obs arm (default 0.10)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="also re-check baselines/meta.json's single-loop band "
        "(reuses the meta bench gate)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.5,
        help="relative throughput band for --baseline (default 0.5)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=0.0,
        help="aggregate speedup --baseline requires (default 0 = skip, "
        "the meta bench's single-core escape)",
    )
    args = parser.parse_args(argv)

    payload = measure_arms(repeats=args.repeats)
    from repro.telemetry.schema import stamp, write_artifact

    payload = {**stamp("bench-obs"), "scenario": SCENARIO.to_json(), **payload}
    write_artifact(payload, args.json)
    print(json.dumps(payload, indent=2))

    violations = check_overhead(payload, args.max_overhead)
    if args.baseline is not None:
        # Re-prove the committed meta.json single-loop band in the same
        # CI job (aggregate arm skipped; --min-speedup 0 is the meta
        # bench's single-core escape).
        from bench_meta_simulator import main as meta_main

        code = meta_main(
            [
                "--json",
                "BENCH_obs_meta.json",
                "--workers",
                "0",
                "--baseline",
                args.baseline,
                "--tolerance",
                str(args.tolerance),
                "--min-speedup",
                str(args.min_speedup),
            ]
        )
        if code:
            violations.append(f"meta baseline gate failed (exit {code})")
    if violations:
        print(f"obs overhead gate: {len(violations)} violation(s)")
        for violation in violations:
            print(f"  - {violation}")
        return 1
    print(
        f"obs overhead gate: OK ({payload['overhead']:+.1%} of plain "
        f"events/s given up vs a {args.max_overhead:.0%} budget)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
