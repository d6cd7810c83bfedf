"""Extension experiment: shard-count scaling of the serving layer.

The paper evaluates one enclave at a time; this experiment asks the
deployment question: with N enclave shards behind a router on one
machine — each running its own configless worker pool, all clipped by a
global worker budget — how does sustained request throughput scale, and
what happens to the latency tail?

Expected shape: near-linear throughput scaling while cores last (the
shards share nothing but the machine), with a bounded p99 inflation
from router queueing — the arbiter is what keeps N argmin loops from
collectively starving the server threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.analysis.report import format_table
from repro.api import BenchSpec, ServeSpec
from repro.parallel import CellSpec, cell
from repro.serve.bench import run_bench

SHARD_COUNTS = (1, 2, 4)


@dataclass
class ServeResult:
    """Structured result of this experiment."""

    rows: list[dict[str, Any]]
    seconds: float
    rate: float

    def row(self, shards: int) -> dict[str, Any]:
        """The result row for one shard count."""
        for entry in self.rows:
            if entry["shards"] == shards:
                return entry
        raise KeyError(f"no row for {shards} shards")


def cells(
    shard_counts: tuple[int, ...] = SHARD_COUNTS,
    seconds: float = 0.5,
    rate: float = 2_000.0,
    budget: int = 8,
) -> list[CellSpec]:
    """The grid as data: one serving run per shard count."""
    return [
        cell(
            "serve",
            index,
            shards=shards,
            seconds=seconds,
            rate=rate,
            budget=budget,
        )
        for index, shards in enumerate(shard_counts)
    ]


def run_cell(spec: CellSpec) -> dict[str, Any]:
    """Execute one cell of the grid; returns the flattened row."""
    kw = spec.kwargs
    result = run_bench(
        BenchSpec(
            serve=ServeSpec(shards=kw["shards"], budget=kw["budget"]),
            seconds=kw["seconds"],
            rate=kw["rate"],
        )
    )
    totals = result["totals"]
    return {
        "shards": kw["shards"],
        "throughput_rps": totals["throughput_rps"],
        "p50_us": totals["latency_us"]["p50"],
        "p99_us": totals["latency_us"]["p99"],
        "submitted": totals["submitted"],
        "completed": totals["completed"],
        "shed": totals["shed"],
        "failed": totals["failed"],
    }


def assemble(
    rows: list[dict[str, Any]],
    shard_counts: tuple[int, ...] = SHARD_COUNTS,
    seconds: float = 0.5,
    rate: float = 2_000.0,
    budget: int = 8,
) -> ServeResult:
    """Build the structured result from rows in ``cells()`` order."""
    return ServeResult(rows=rows, seconds=seconds, rate=rate)


def table(result: ServeResult) -> tuple[list[str], list[list]]:
    """(headers, rows) of the experiment's data, for reports and CSV."""
    rows = [
        [
            entry["shards"],
            entry["throughput_rps"],
            entry["p50_us"],
            entry["p99_us"],
            entry["completed"],
            entry["shed"],
        ]
        for entry in result.rows
    ]
    return ["shards", "rps", "p50_us", "p99_us", "completed", "shed"], rows


def report(result: ServeResult) -> str:
    """Render the experiment's series as an aligned text table."""
    headers, rows = table(result)
    return format_table(
        headers,
        rows,
        title=(
            "Extension: sharded serving throughput vs shard count "
            f"(open loop @ {result.rate:.0f} rps offered per run)"
        ),
    )


def check_shape(result: ServeResult) -> list[str]:
    """Return the violated shape expectations (empty = as expected)."""
    violations = []
    for entry in result.rows:
        accounted = entry["completed"] + entry["shed"] + entry["failed"]
        if entry["submitted"] != accounted:
            violations.append(
                f"{entry['shards']} shards: request conservation broken "
                f"({entry['submitted']} submitted vs {accounted} accounted)"
            )
        if entry["completed"] == 0:
            violations.append(f"{entry['shards']} shards: nothing completed")
    # At a fixed offered rate the cluster must keep up regardless of
    # shard count (the open loop is not a saturation test); more shards
    # must never complete *less*.
    completions = [entry["completed"] for entry in result.rows]
    if any(b < a * 0.9 for a, b in zip(completions, completions[1:])):
        violations.append("completions fell with added shards")
    return violations
