"""Fig. 2: synthetic-benchmark runtime vs. Intel worker count, C1–C5.

The paper plots runtime for 75,000 switchless-candidate ocalls to ``f``
and 25,000 to ``g`` as the number of Intel switchless workers varies from
1 to 5, one line per configuration C1–C5.

Shape requirements encoded in :func:`check_shape`:

- C1 (only f switchless) is the best configuration overall, and — as the
  paper notes for its best case — "the fewer the workers, the better";
- C5 (no switchless) is flat in the worker count and beats C2 at low
  worker counts;
- the g-switchless configurations (C2, C4) are strongly sensitive to the
  worker count (the long calls are worker-bound), unlike C5.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import format_table
from repro.parallel import CellSpec, cell
from repro.workloads.synthetic import SyntheticResult, SyntheticSpec, run_synthetic

CONFIGS = ("C1", "C2", "C3", "C4", "C5")
WORKER_COUNTS = (1, 2, 3, 4, 5)


@dataclass
class Fig2Result:
    """Structured result of this experiment."""
    rows: list[SyntheticResult]
    spec: SyntheticSpec

    def runtime(self, config: str, workers: int) -> float:
        """Elapsed seconds for the given configuration cell."""
        for row in self.rows:
            if row.config == config and row.workers == workers:
                return row.elapsed_seconds
        raise KeyError((config, workers))

    def series(self, config: str) -> list[tuple[int, float]]:
        """The (x, y) series for one configuration line."""
        return [
            (row.workers, row.elapsed_seconds)
            for row in self.rows
            if row.config == config
        ]


def cells(
    total_calls: int = 10_000,
    workers: tuple[int, ...] = WORKER_COUNTS,
    configs: tuple[str, ...] = CONFIGS,
    g_pauses: int = 500,
) -> list[CellSpec]:
    """The experiment's grid as data: one cell per (config, workers)."""
    return [
        cell(
            "fig2",
            index,
            config=config,
            workers=w,
            total_calls=total_calls,
            g_pauses=g_pauses,
        )
        for index, (config, w) in enumerate(
            (config, w) for config in configs for w in workers
        )
    ]


def run_cell(spec: CellSpec) -> SyntheticResult:
    """Execute one cell of the grid."""
    kw = spec.kwargs
    synthetic = SyntheticSpec(total_calls=kw["total_calls"], g_pauses=kw["g_pauses"])
    return run_synthetic(kw["config"], kw["workers"], synthetic)


def assemble(
    rows: list[SyntheticResult],
    total_calls: int = 10_000,
    workers: tuple[int, ...] = WORKER_COUNTS,
    configs: tuple[str, ...] = CONFIGS,
    g_pauses: int = 500,
) -> Fig2Result:
    """Build the structured result from rows in ``cells()`` order."""
    return Fig2Result(
        rows=list(rows),
        spec=SyntheticSpec(total_calls=total_calls, g_pauses=g_pauses),
    )


def table(result: Fig2Result) -> tuple[list[str], list[list]]:
    """(headers, rows) of the figure's data, for reports and CSV export."""
    workers = sorted({row.workers for row in result.rows})
    configs = [c for c in CONFIGS if any(r.config == c for r in result.rows)]
    rows = [
        [config] + [result.runtime(config, w) for w in workers] for config in configs
    ]
    return ["config"] + [f"{w}w (s)" for w in workers], rows


def report(result: Fig2Result) -> str:
    """Render the figure's series as an aligned text table."""
    headers, rows = table(result)
    return format_table(
        headers,
        rows,
        title=(
            f"Fig. 2: runtime of {result.spec.total_calls} ocalls "
            f"(75% f / 25% g@{result.spec.g_pauses} pauses) vs worker count"
        ),
    )


def check_shape(result: Fig2Result) -> list[str]:
    """Return the violated paper-shape expectations (empty = reproduced)."""
    violations = []
    workers = sorted({row.workers for row in result.rows})
    low_w = workers[0]
    high_w = workers[-1]
    best_c1 = min(t for _, t in result.series("C1"))
    for config in ("C2", "C3", "C4", "C5"):
        best_other = min(t for _, t in result.series(config))
        if best_c1 > best_other * 1.05:
            violations.append(
                f"expected C1 to be the best config, but {config} beats it "
                f"({best_c1:.3f} vs {best_other:.3f})"
            )
    if not result.runtime("C5", low_w) < result.runtime("C2", low_w):
        violations.append("expected C5 < C2 at low worker counts")
    # C5 never uses workers: flat in the worker count.
    c5 = [t for _, t in result.series("C5")]
    if max(c5) > min(c5) * 1.10:
        violations.append(f"expected C5 flat across workers, got {c5}")
    # C1: the fewer the workers, the better (paper's observation).
    if not result.runtime("C1", low_w) <= result.runtime("C1", high_w) * 1.05:
        violations.append("expected C1 best at the lowest worker count")
    # The g-switchless configs are worker-bound: strongly worker-sensitive.
    for config in ("C2", "C4"):
        series = [t for _, t in result.series(config)]
        if max(series) < 1.15 * min(series):
            violations.append(
                f"expected {config} to be sensitive to the worker count, got {series}"
            )
    return violations
