"""Run the benchmark: workloads, repetitions, checks and reporting.

    PYTHONPATH=src python -m benchmarks.e2e [--workloads a,b] [--seed N]
        [--seconds S] [--trace [0|1]] [--quick] [--out BENCH_e2e.json]
    PYTHONPATH=src python -m benchmarks.e2e compare A*.json -- B*.json

Each repetition runs in a fresh child process (``benchmarks.e2e.child``),
one at a time.  A workload runs at least three repetitions and keeps
starting new ones until ``--seconds`` have passed (``--quick``: one, at
1/20 of the size); :data:`benchmarks.e2e.metrics.HOST` says how each
host metric is read from them.  ``--trace`` adds one cProfile-wrapped repetition per workload for the
per-layer numbers.  The last line of output is a JSON summary with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from benchmarks.e2e import metrics as catalogue
from benchmarks.e2e.compare import compare, render
from benchmarks.e2e.layers import LAYERS, METRIC_SUFFIXES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
PINS_PATH = HERE / "pins.json"
WORKLOAD_NAMES = (
    "lmbench-dynamic",
    "serve-zc-mixed",
    "serve-intel-writes",
    "elastic-diurnal",
    "aes-file",
)
DEFAULT_SEED = 1
MIN_REPETITIONS = 3
QUICK_SCALE = 1 / 20
#: A repetition that runs longer than this is killed and counted failed.
CHILD_TIMEOUT_S = 150


class BenchmarkError(Exception):
    """The benchmark cannot run here (missing program or config)."""


def load_json(path: Path) -> Any:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchmarkError(f"cannot read {path}: {exc}") from None


# ----------------------------------------------------------------------
# Repetitions
# ----------------------------------------------------------------------
def run_child(name: str, seed: int, scale: float, profile: bool) -> dict[str, Any]:
    """Run one repetition in a fresh process and return its record."""
    command = [
        sys.executable, "-m", "benchmarks.e2e.child",
        "--workload", name, "--seed", str(seed), "--scale", repr(scale),
    ]
    if profile:
        command.append("--profile")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"workload": name, "failures": [f"repetition exceeded {CHILD_TIMEOUT_S} s"]}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = done.stderr.strip().splitlines()[-1:] or ["no output"]
        return {
            "workload": name,
            "failures": [f"repetition exited with code {done.returncode}: {tail[0]}"],
        }
    return json.loads(lines[-1])


def run_workload(
    name: str, seed: int, scale: float, min_reps: int, seconds: float, trace: bool,
    pins: dict[str, Any],
) -> dict[str, Any]:
    """Run ``name``'s repetitions (and the traced one) and aggregate them."""
    records = []
    started = time.perf_counter()
    while len(records) < min_reps or time.perf_counter() - started < seconds:
        records.append(run_child(name, seed, scale, profile=False))
    traced = run_child(name, seed, scale, profile=True) if trace else None
    return aggregate(name, records, traced, seed=seed, scale=scale, pins=pins)


# ----------------------------------------------------------------------
# Checks and aggregation
# ----------------------------------------------------------------------
def check_record(record: dict[str, Any], pins: dict[str, Any], seed: int) -> list[str]:
    """The correctness checks one repetition's record fails."""
    failures = list(record.get("failures", []))
    counters = record.get("counters", {})
    if "serve.router.issued" in counters:
        accounted = sum(
            counters[f"serve.router.{key}"] for key in ("completed", "shed", "failed")
        )
        if counters["serve.router.issued"] != accounted:
            failures.append("serve requests issued != completed + shed + failed")
    if "ciphertext_sha256" in record and record.get("scale") == 1.0:
        pinned = pins["aes_ciphertext_sha256"].get(str(seed))
        if pinned is not None and record["ciphertext_sha256"] != pinned:
            failures.append(f"ciphertext SHA-256 differs from the pin for seed {seed}")
    return failures


def _spread(metric: str, values: list[float]) -> dict[str, Any]:
    _unit, better, statistic = catalogue.HOST[metric]
    median = statistics.median(values)
    best = min(values) if better == "lower" else max(values)
    return {
        "value": best if statistic == "best" else median,
        "statistic": statistic,
        "median": median,
        "min": min(values),
        "max": max(values),
        "values": values,
    }


def host_metrics(record: dict[str, Any]) -> dict[str, float]:
    """The host end-to-end metrics of one measured repetition."""
    values = {
        "setup_s": record["setup_s"],
        "wall_s": record["wall_s"],
        "ops_per_host_s": record["ops"] / record["wall_s"],
        "peak_rss_mb": record["peak_rss_mb"],
    }
    if record["events"] is not None:
        values["events_per_host_s"] = record["events"] / record["wall_s"]
    return values


def aggregate(
    name: str,
    records: list[dict[str, Any]],
    traced: dict[str, Any] | None,
    *,
    seed: int,
    scale: float,
    pins: dict[str, Any],
) -> dict[str, Any]:
    """Fold one workload's repetition records into its result.

    A repetition fails if its own checks fail, or if the simulated
    digests of the invocation's repetitions (traced one included)
    disagree — then every repetition fails, as none can be trusted.
    """
    everything = records + ([traced] if traced is not None else [])
    failures = [check_record(record, pins, seed) for record in everything]
    digests = {record["digest"] for record in everything if "digest" in record}
    if len(digests) > 1:
        for found in failures:
            found.append("simulated digest differs between repetitions")
    measured = [record for record in records if "wall_s" in record]
    result: dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "attempted": len(everything),
        "failed": sum(1 for found in failures if found),
        "failures": sorted({message for found in failures for message in found}),
        "host": {},
        "sim": {},
        "per_layer": {},
    }
    result["error_rate"] = result["failed"] / result["attempted"]
    if not measured:
        return result
    first = measured[0]
    per_rep = [host_metrics(record) for record in measured]
    result["op"] = first["op"]
    result["host"] = {
        metric: _spread(metric, [values[metric] for values in per_rep])
        for metric in per_rep[0]
    }
    result["sim"] = first["sim"]
    result["per_layer"] = dict(first["counters"])
    result["sim_digest"] = first["digest"]
    pinned = pins["sim_digest"].get(name) if seed == pins["seed"] and scale == 1.0 else None
    result["sim_digest_match"] = None if pinned is None else first["digest"] == pinned
    if traced is not None and "layers" in traced:
        result["per_layer"].update(traced["layers"])
        result["per_layer"]["trace_overhead"] = (
            traced["wall_s"] / result["host"]["wall_s"]["median"] - 1
        )
    return result


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report(result: dict[str, Any]) -> str:
    """Human-readable block for one workload: every metric with its unit."""
    lines = [
        f"== {result['workload']} (seed {result['seed']}, scale {_fmt(result['scale'])}, "
        f"op = {result.get('op', '?')}) =="
    ]
    for metric, spread in result["host"].items():
        lines.append(
            f"  {metric:<34} {_fmt(spread['value']):>14} {catalogue.unit_of(metric):<10}"
            f" {spread['statistic']:<6} (median {_fmt(spread['median'])},"
            f" {_fmt(spread['min'])} .. {_fmt(spread['max'])} over {len(spread['values'])})"
        )
    samples = result["sim"].get("sim_latency_samples")
    for metric, value in result["sim"].items():
        note = f" ({_fmt(samples)} samples)" if metric in ("sim_p50_us", "sim_p99_us") else ""
        lines.append(f"  {metric:<34} {_fmt(value):>14} {catalogue.unit_of(metric)}{note}")
    lines.append(
        f"  {'error_rate':<34} {_fmt(result['error_rate']):>14} fraction"
        f" ({result['failed']}/{result['attempted']} repetitions failed)"
    )
    for message in result["failures"]:
        lines.append(f"    FAILED: {message}")
    if "sim_digest" in result:
        match = {None: "n/a (not the pinned seed/size)", True: "yes", False: "NO"}
        lines.append(
            f"  sim_digest {result['sim_digest'][:16]}  "
            f"sim_digest_match {match[result['sim_digest_match']]}"
        )
    per_layer = result["per_layer"]
    if "trace_overhead" in per_layer:
        lines.append(
            f"  {'layer (traced run)':<20} {'.self_s':>12} s {'.self_share':>12}"
            f" fraction {'.calls_in':>12} count"
        )
        for layer in LAYERS:
            values = [per_layer[f"{layer}.{suffix}"] for suffix in METRIC_SUFFIXES]
            lines.append(
                f"  {layer:<20} {_fmt(values[0]):>12}   {_fmt(values[1]):>12}"
                f"          {values[2]:>12}"
            )
    for metric, value in per_layer.items():
        if not metric.endswith(METRIC_SUFFIXES):
            lines.append(f"  {metric:<34} {_fmt(value):>14} {catalogue.unit_of(metric)}")
    return "\n".join(lines)


def summary_line(
    results: dict[str, dict[str, Any]], benchmark: dict[str, Any], trace: bool
) -> dict[str, Any]:
    """The last-line JSON summary: the gated metrics of every workload.

    Without tracing they are ``BENCHMARK.json``'s end-to-end metrics,
    with it its per-layer ones.  With several workloads each name is
    prefixed by ``<workload>.``.
    """
    declared = benchmark["per_layer" if trace else "end_to_end"]
    out: dict[str, Any] = {}
    for result in results.values():
        prefix = "" if len(results) == 1 else f"{result['workload']}."
        for entry in declared:
            metric = entry["name"]
            if trace:
                value = result["per_layer"].get(metric)
            else:
                value = result["host"].get(metric, {}).get("value")
            if value is not None:
                out[prefix + metric] = {"value": value, "unit": entry["unit"]}
    return {
        "correct": all(result["failed"] == 0 for result in results.values()),
        "attempted": sum(result["attempted"] for result in results.values()),
        "failed": sum(result["failed"] for result in results.values()),
        "metrics": out,
    }


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def _trace_flag(text: str) -> bool:
    if text not in ("0", "1"):
        raise argparse.ArgumentTypeError("--trace takes 0 or 1")
    return text == "1"


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--workloads", "--workload", default=",".join(WORKLOAD_NAMES),
        help="comma-separated workload names (default: all five)",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float,
        help="keep starting repetitions until this many seconds have passed "
        "(default: BENCHMARK.json's run_seconds; 0 with --quick)",
    )
    parser.add_argument(
        "--trace", nargs="?", type=_trace_flag, const=True, default=False,
        help="add one cProfile-wrapped repetition per workload",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="1/20 of each workload's size, one repetition (smoke test)",
    )
    parser.add_argument("--out", help="write the full results as JSON here")
    args = parser.parse_args(argv)
    args.workloads = [name for name in args.workloads.split(",") if name]
    unknown = sorted(set(args.workloads) - set(WORKLOAD_NAMES))
    if unknown or not args.workloads:
        parser.error(f"unknown workloads {unknown}; choose from {', '.join(WORKLOAD_NAMES)}")
    return args


def run(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing")
    benchmark = load_json(ROOT / "BENCHMARK.json")
    pins = load_json(PINS_PATH)
    scale = QUICK_SCALE if args.quick else 1.0
    min_reps = 1 if args.quick else MIN_REPETITIONS
    seconds = args.seconds
    if seconds is None:
        seconds = 0.0 if args.quick else benchmark["run_seconds"]
    results = {}
    for name in args.workloads:
        results[name] = run_workload(
            name, args.seed, scale, min_reps, seconds, args.trace, pins
        )
        print(report(results[name]), flush=True)
    if args.out:
        document = {
            "benchmark": "benchmarks/e2e",
            "seed": args.seed,
            "scale": scale,
            "trace": args.trace,
            "workloads": results,
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=2, sort_keys=True)
            fh.write("\n")
    line = summary_line(results, benchmark, args.trace)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def compare_files(argv: list[str]) -> int:
    """``compare A.json... -- B.json...``: see :mod:`benchmarks.e2e.compare`."""
    if "--" not in argv:
        raise BenchmarkError("usage: python -m benchmarks.e2e compare A.json... -- B.json...")
    split = argv.index("--")
    sides = [
        [load_json(Path(path)) for path in paths]
        for paths in (argv[:split], argv[split + 1:])
    ]
    if not all(sides):
        raise BenchmarkError("compare needs at least one file on each side of --")
    try:
        rows = compare(sides[0], sides[1], load_json(ROOT / "BENCHMARK.json"))
    except (KeyError, TypeError) as exc:
        raise BenchmarkError(f"not a benchmark --out document (missing {exc})") from None
    print(render(rows))
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        if argv[:1] == ["compare"]:
            return compare_files(argv[1:])
        return run(parse_args(argv))
    except BenchmarkError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
