"""Fig. 3: runtime vs. duration of ``g``, for worker counts 1–5.

The paper runs 100,000 ocalls from 8 in-enclave threads while sweeping the
duration of ``g`` from 0 to 500 pause instructions, for configurations
C1, C2, C4 and C5 (C3 omitted, as in the paper).

Shape requirements:

- for very short ``g`` (0 pauses), running everything switchlessly (C4)
  beats running everything regularly (C5) — Take-away 2;
- for long ``g`` (>= ~200 pauses), C1 (f switchless, g regular) is best;
- C5 beats C2 and C4 for long g at low worker counts (the crossover the
  figure shows): long calls are not worth executing switchlessly when
  workers are scarce.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import format_table
from repro.parallel import CellSpec, cell
from repro.workloads.synthetic import SyntheticResult, SyntheticSpec, run_synthetic

CONFIGS = ("C1", "C2", "C4", "C5")
WORKER_COUNTS = (1, 2, 3, 4, 5)
G_PAUSES = (0, 100, 200, 300, 400, 500)


@dataclass
class Fig3Result:
    """Structured result of this experiment."""
    rows: list[SyntheticResult]
    g_sweep: tuple[int, ...]
    total_calls: int
    #: g duration is carried per row via the spec used for it.
    g_of_row: dict[int, int] = None  # type: ignore[assignment]

    def runtime(self, config: str, workers: int, g_pauses: int) -> float:
        """Elapsed seconds for the given configuration cell."""
        for i, row in enumerate(self.rows):
            if (
                row.config == config
                and row.workers == workers
                and self.g_of_row[i] == g_pauses
            ):
                return row.elapsed_seconds
        raise KeyError((config, workers, g_pauses))


def cells(
    total_calls: int = 6_000,
    workers: tuple[int, ...] = (1, 3, 5),
    configs: tuple[str, ...] = CONFIGS,
    g_sweep: tuple[int, ...] = G_PAUSES,
) -> list[CellSpec]:
    """The experiment's grid as data: one cell per (g, config, workers)."""
    return [
        cell(
            "fig3",
            index,
            config=config,
            workers=w,
            total_calls=total_calls,
            g_pauses=g_pauses,
        )
        for index, (g_pauses, config, w) in enumerate(
            (g, c, w) for g in g_sweep for c in configs for w in workers
        )
    ]


def run_cell(spec: CellSpec) -> SyntheticResult:
    """Execute one cell of the grid."""
    kw = spec.kwargs
    synthetic = SyntheticSpec(total_calls=kw["total_calls"], g_pauses=kw["g_pauses"])
    return run_synthetic(kw["config"], kw["workers"], synthetic)


def assemble(
    rows: list[SyntheticResult],
    total_calls: int = 6_000,
    workers: tuple[int, ...] = (1, 3, 5),
    configs: tuple[str, ...] = CONFIGS,
    g_sweep: tuple[int, ...] = G_PAUSES,
) -> Fig3Result:
    """Build the structured result from rows in ``cells()`` order."""
    g_of_row: dict[int, int] = {}
    index = 0
    for g_pauses in g_sweep:
        for _config in configs:
            for _w in workers:
                g_of_row[index] = g_pauses
                index += 1
    return Fig3Result(
        rows=list(rows), g_sweep=g_sweep, total_calls=total_calls, g_of_row=g_of_row
    )


def table(result: Fig3Result) -> tuple[list[str], list[list]]:
    """(headers, rows): one flat row per (config, workers) combination."""
    workers = sorted({row.workers for row in result.rows})
    configs = [c for c in CONFIGS if any(r.config == c for r in result.rows)]
    rows = [
        [config, w] + [result.runtime(config, w, g) for g in result.g_sweep]
        for w in workers
        for config in configs
    ]
    headers = ["config", "workers"] + [f"g={g}p (s)" for g in result.g_sweep]
    return headers, rows


def report(result: Fig3Result) -> str:
    """Render the figure's series as an aligned text table."""
    workers = sorted({row.workers for row in result.rows})
    configs = [c for c in CONFIGS if any(r.config == c for r in result.rows)]
    lines = []
    for w in workers:
        per_worker_rows = [
            [config]
            + [result.runtime(config, w, g) for g in result.g_sweep]
            for config in configs
        ]
        lines.append(
            format_table(
                ["config"] + [f"g={g}p (s)" for g in result.g_sweep],
                per_worker_rows,
                title=f"Fig. 3: runtime of {result.total_calls} ocalls, {w} worker(s)",
            )
        )
    return "\n\n".join(lines)


def check_shape(result: Fig3Result) -> list[str]:
    """Return the violated paper-shape expectations (empty = reproduced)."""
    violations = []
    workers = sorted({row.workers for row in result.rows})
    low_w = workers[0]
    g_short = result.g_sweep[0]
    g_long = result.g_sweep[-1]
    # Take-away 2: short calls favour switchless (C4 <= C5 at g=0).
    for w in workers:
        c4 = result.runtime("C4", w, g_short)
        c5 = result.runtime("C5", w, g_short)
        if not c4 < c5 * 1.05:
            violations.append(
                f"expected C4 <= C5 for short g at {w} workers "
                f"({c4:.3f} vs {c5:.3f})"
            )
    # Long g: C1 is best at scarce workers; at every worker count C1
    # beats the configurations that run g switchlessly (C2, C4), since a
    # long g call wastes a spinning caller+worker pair.
    c1_low = result.runtime("C1", low_w, g_long)
    for config in ("C2", "C4", "C5"):
        other = result.runtime(config, low_w, g_long)
        if not c1_low < other * 1.05:
            violations.append(
                f"expected C1 best for long g at {low_w} worker(s), "
                f"but {config} = {other:.3f} < C1 = {c1_low:.3f}"
            )
    for w in workers:
        c1 = result.runtime("C1", w, g_long)
        for config in ("C2", "C4"):
            other = result.runtime(config, w, g_long)
            if not c1 < other * 1.05:
                violations.append(
                    f"expected C1 < {config} for long g at {w} workers "
                    f"({c1:.3f} vs {other:.3f})"
                )
    # Long g at scarce workers: regular beats switchless-g configs.
    c5 = result.runtime("C5", low_w, g_long)
    for config in ("C2", "C4"):
        other = result.runtime(config, low_w, g_long)
        if not c5 < other * 1.05:
            violations.append(
                f"expected C5 < {config} for long g at {low_w} worker(s) "
                f"({c5:.3f} vs {other:.3f})"
            )
    return violations
