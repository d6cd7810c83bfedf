"""One benchmark repetition, run in a fresh single-threaded process.

    PYTHONPATH=src python -m benchmarks.e2e.child --workload NAME \\
        --seed N [--scale F] [--profile]

Set-up (the program's imports plus building the inputs from the seed)
is timed as ``setup_s``.  A warm-up at 1/20 of the size follows, then
the timed run — under cProfile with ``--profile`` — and the workload's
correctness checks.  The last line of output is one JSON record.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import pstats
import resource
import time
from typing import Any

WARMUP_FRACTION = 1 / 20


def run_repetition(name: str, seed: int, scale: float, profile: bool) -> dict[str, Any]:
    """Set up, warm up, time and check one repetition of ``name``."""
    started = time.perf_counter()
    import repro
    from benchmarks.e2e.layers import fold
    from benchmarks.e2e.workloads import WORKLOADS

    workload = WORKLOADS[name]
    inputs = workload.prepare(seed, scale)
    warmup = workload.prepare(seed, scale * WARMUP_FRACTION)
    setup_s = time.perf_counter() - started

    workload.run(warmup)
    del warmup
    gc.collect()
    profiler = cProfile.Profile() if profile else None
    started = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    raw = workload.run(inputs)
    if profiler is not None:
        profiler.disable()
    wall_s = time.perf_counter() - started

    record = workload.summarize(inputs, raw)
    record.update(
        workload=name,
        op=workload.op,
        seed=seed,
        scale=scale,
        profiled=profile,
        setup_s=setup_s,
        wall_s=wall_s,
        # Linux reports ru_maxrss in KiB.
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if profiler is not None:
        record["layers"] = fold(
            pstats.Stats(profiler), os.path.dirname(repro.__file__)
        )
    return record


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--profile", action="store_true")
    args = parser.parse_args()
    record = run_repetition(args.workload, args.seed, args.scale, args.profile)
    print(json.dumps(record, sort_keys=True))


if __name__ == "__main__":
    main()
