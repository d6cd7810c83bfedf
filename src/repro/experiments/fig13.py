"""Fig. 13: improved memcpy — vanilla vs zc write-ocall throughput.

Same benchmark as Fig. 7, run in both modes: the SDK's tlibc memcpy
(``vanilla-memcpy``) and the paper's ``rep movsb`` implementation
(``zc-memcpy``).  The paper reports large-buffer speedups of up to 3.6x
for aligned and 15.1x for unaligned buffers.

Shape requirements:

- zc >= vanilla everywhere;
- 32 kB aligned speedup in the ~3-4.5x band;
- 32 kB unaligned speedup in the ~12-18x band;
- speedups grow with buffer size.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.analysis.report import format_table
from repro.experiments import fig7 as _fig7
from repro.experiments.fig7 import SIZES, Fig7Result, ThroughputPoint
from repro.parallel import CellSpec
from repro.sgx.memcpy import VanillaMemcpy, ZcMemcpy

#: The paper's headline large-buffer speedups.
PAPER_ALIGNED_SPEEDUP = 3.6
PAPER_UNALIGNED_SPEEDUP = 15.1


@dataclass
class Fig13Result:
    """Structured result of this experiment."""
    vanilla: Fig7Result
    zc: Fig7Result

    def speedup(self, size: int, aligned: bool) -> float:
        """Speedup of the improved variant over the baseline."""
        return self.zc.gbps(size, aligned) / self.vanilla.gbps(size, aligned)

    @property
    def sizes(self) -> list[int]:
        """The swept buffer sizes, ascending."""
        return sorted({p.size_bytes for p in self.vanilla.points})


def cells(sizes: tuple[int, ...] = SIZES, ops: int = 300) -> list[CellSpec]:
    """Fig. 7's grid, twice: vanilla cells first, then the zc variant.

    The specs carry ``exp_id="fig7"``, so the runner dispatches to
    Fig. 7's ``run_cell`` and the vanilla half shares its cache entries
    with a plain Fig. 7 run.
    """
    specs = _fig7.cells(sizes, ops, VanillaMemcpy()) + _fig7.cells(
        sizes, ops, ZcMemcpy()
    )
    return [replace(spec, index=index) for index, spec in enumerate(specs)]


def assemble(
    points: list[ThroughputPoint],
    sizes: tuple[int, ...] = SIZES,
    ops: int = 300,
) -> Fig13Result:
    """Build the structured result from rows in ``cells()`` order."""
    half = len(points) // 2
    return Fig13Result(
        vanilla=_fig7.assemble(points[:half], ops=ops),
        zc=_fig7.assemble(points[half:], ops=ops),
    )


def table(result: Fig13Result) -> tuple[list[str], list[list]]:
    """(headers, rows) of the figure's data, for reports and CSV export."""
    rows = []
    for size in result.sizes:
        rows.append(
            [
                size,
                result.vanilla.gbps(size, True),
                result.zc.gbps(size, True),
                result.speedup(size, True),
                result.vanilla.gbps(size, False),
                result.zc.gbps(size, False),
                result.speedup(size, False),
            ]
        )
    headers = [
        "size_B",
        "vanilla_al",
        "zc_al",
        "speedup_al",
        "vanilla_un",
        "zc_un",
        "speedup_un",
    ]
    return headers, rows


def report(result: Fig13Result) -> str:
    """Render the figure's series as an aligned text table."""
    headers, rows = table(result)
    return format_table(
        headers,
        rows,
        title=(
            "Fig. 13: write-ocall throughput (GB/s), vanilla vs zc memcpy "
            f"(paper: {PAPER_ALIGNED_SPEEDUP}x aligned / "
            f"{PAPER_UNALIGNED_SPEEDUP}x unaligned at 32 kB)"
        ),
    )


def check_shape(result: Fig13Result) -> list[str]:
    """Return the violated paper-shape expectations (empty = reproduced)."""
    violations = []
    for size in result.sizes:
        for aligned in (True, False):
            if result.speedup(size, aligned) < 0.99:
                violations.append(
                    f"expected zc >= vanilla at {size} B aligned={aligned}"
                )
    top = result.sizes[-1]
    aligned_speedup = result.speedup(top, True)
    if not 3.0 < aligned_speedup < 4.5:
        violations.append(
            f"expected ~3.6x aligned speedup at {top} B, got {aligned_speedup:.2f}x"
        )
    unaligned_speedup = result.speedup(top, False)
    if not 12.0 < unaligned_speedup < 18.0:
        violations.append(
            f"expected ~15.1x unaligned speedup at {top} B, got {unaligned_speedup:.2f}x"
        )
    for aligned in (True, False):
        speedups = [result.speedup(size, aligned) for size in result.sizes]
        if not all(a <= b * 1.02 for a, b in zip(speedups, speedups[1:])):
            violations.append(
                f"expected speedup to grow with size (aligned={aligned})"
            )
    return violations
