"""§III-A inline numbers: runtime of configurations C1–C5.

The paper reports, for 100,000 ocalls (75k to the empty ``f``, 25k to the
pause-loop ``g``): C1 fastest at 0.9 s; C2 worst at 1.6 s (≈1.8x C1);
C3 and C4 at 1.3 s; C5 at 1.0 s.

Shape requirements: C1 < C5 < C3 ≈ C4 < C2, with C2/C1 ≈ 1.8x.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import format_table
from repro.parallel import CellSpec, cell
from repro.workloads.synthetic import SyntheticResult, SyntheticSpec, run_synthetic

#: The paper's reported runtimes (seconds), for reference in reports.
PAPER_RUNTIMES = {"C1": 0.9, "C2": 1.6, "C3": 1.3, "C4": 1.3, "C5": 1.0}

CONFIGS = ("C1", "C2", "C3", "C4", "C5")


@dataclass
class Sec3aResult:
    """Structured result of this experiment."""
    rows: list[SyntheticResult]
    spec: SyntheticSpec

    def runtime(self, config: str) -> float:
        """Elapsed seconds for the given configuration cell."""
        for row in self.rows:
            if row.config == config:
                return row.elapsed_seconds
        raise KeyError(config)


def cells(
    total_calls: int = 20_000,
    workers: int = 2,
    g_pauses: int = 500,
) -> list[CellSpec]:
    """The experiment's grid as data: one cell per configuration."""
    return [
        cell(
            "sec3a",
            index,
            config=config,
            workers=workers,
            total_calls=total_calls,
            g_pauses=g_pauses,
        )
        for index, config in enumerate(CONFIGS)
    ]


def run_cell(spec: CellSpec) -> SyntheticResult:
    """Execute one cell of the grid."""
    kw = spec.kwargs
    synthetic = SyntheticSpec(total_calls=kw["total_calls"], g_pauses=kw["g_pauses"])
    return run_synthetic(kw["config"], kw["workers"], synthetic)


def assemble(
    rows: list[SyntheticResult],
    total_calls: int = 20_000,
    workers: int = 2,
    g_pauses: int = 500,
) -> Sec3aResult:
    """Build the structured result from rows in ``cells()`` order."""
    return Sec3aResult(
        rows=list(rows),
        spec=SyntheticSpec(total_calls=total_calls, g_pauses=g_pauses),
    )


def table(result: Sec3aResult) -> tuple[list[str], list[list]]:
    """(headers, rows) of the figure's data, for reports and CSV export."""
    scale = result.spec.total_calls / 100_000
    rows = [
        [
            row.config,
            row.elapsed_seconds,
            PAPER_RUNTIMES[row.config] * scale,
            row.switchless_calls,
            row.fallback_calls,
            row.regular_calls,
        ]
        for row in result.rows
    ]
    headers = ["config", "measured_s", "paper_scaled_s", "switchless", "fallback", "regular"]
    return headers, rows


def report(result: Sec3aResult) -> str:
    """Render the figure's series as an aligned text table."""
    headers, rows = table(result)
    return format_table(
        headers,
        rows,
        title=(
            f"§III-A synthetic benchmark: {result.spec.total_calls} ocalls "
            f"(75% f, 25% g of {result.spec.g_pauses} pauses), "
            f"{result.rows[0].workers} workers"
        ),
    )


def check_shape(result: Sec3aResult) -> list[str]:
    """The paper's qualitative ordering: C1 < C5 < C3,C4 < C2."""
    violations = []
    c = {config: result.runtime(config) for config in CONFIGS}
    if not c["C1"] < c["C5"]:
        violations.append(f"expected C1 < C5, got {c['C1']:.3f} vs {c['C5']:.3f}")
    if not c["C5"] < c["C2"]:
        violations.append(f"expected C5 < C2, got {c['C5']:.3f} vs {c['C2']:.3f}")
    if not c["C1"] < c["C3"]:
        violations.append(f"expected C1 < C3, got {c['C1']:.3f} vs {c['C3']:.3f}")
    if not c["C1"] < c["C4"]:
        violations.append(f"expected C1 < C4, got {c['C1']:.3f} vs {c['C4']:.3f}")
    ratio = c["C2"] / c["C1"]
    if not 1.3 < ratio < 2.6:
        violations.append(f"expected C2/C1 near 1.8x, got {ratio:.2f}x")
    return violations
