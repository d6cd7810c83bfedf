"""Run an experiment, and render a combined markdown report.

:func:`run_experiment` is the one way to run a paper experiment.  Every
experiment exposes its grid as data (``cells()`` / ``run_cell()`` /
``assemble()``, see ``docs/extending.md``) and is executed through
:class:`repro.parallel.CellRunner`, which adds ``jobs=N``
process-level parallelism and content-addressed result caching while
keeping rows bit-identical to a serial run.

``python -m repro run all --quick --report report.md`` regenerates an
EXPERIMENTS.md-style document from live runs through
:func:`render_markdown`: one section per experiment with its data table
(as markdown) and its shape-check verdict.  Useful for verifying a
changed cost model or scheduler against every figure at once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Sequence

from repro.experiments import EXPERIMENTS
from repro.parallel import CellOutcome, CellRunner, ResultCache


@dataclass(frozen=True)
class ExperimentOutcome:
    """One experiment's run: its result, table and verdict."""

    exp_id: str
    headers: list[str]
    rows: list[list[Any]]
    violations: list[str]
    wall_seconds: float
    #: The module's structured result (what ``report``/``table`` read).
    result: Any = None
    #: The executed (or cache-served) cells, in cell order; empty when
    #: the rows came from an earlier experiment's cells.
    cells: tuple[CellOutcome, ...] = ()
    jobs: int = 1
    #: The earlier experiment whose cells this one reused, if any.
    shared_with: str | None = None

    @property
    def ok(self) -> bool:
        """Whether the shape check passed."""
        return not self.violations

    @property
    def cell_seconds(self) -> tuple[float, ...]:
        """Wall seconds per cell, in cell order (0.0 for cache hits)."""
        return tuple(cell.wall_seconds for cell in self.cells)

    @property
    def cache_hits(self) -> int:
        """Cells served from the result cache."""
        return sum(1 for cell in self.cells if cell.cached)

    @property
    def cache_misses(self) -> int:
        """Cells executed."""
        return len(self.cells) - self.cache_hits


def run_experiment(
    exp_id: str,
    *,
    jobs: int | str = 1,
    cache: ResultCache | None = None,
    earlier: Sequence[ExperimentOutcome] = (),
    **params: Any,
) -> ExperimentOutcome:
    """Run one experiment: its cells, then ``assemble``, ``table`` and
    ``check_shape``.

    ``params`` are the module's ``cells()`` parameters (the CLI's quick
    presets, a test's scaled-down grid), which its ``assemble`` accepts
    too.  ``jobs`` fans the cells over a process pool (``"auto"`` = host
    CPU count) and ``cache`` serves already-computed cells; both leave
    the rows bit-identical to a serial, uncached run.  What an observed
    run needs is the runner's decision, not the caller's: under an
    active telemetry session or fault plan no cell is served from the
    cache, and hooks that live in this process (a session's
    ``on_attach``, the active fault plan) keep every cell in-process.

    ``earlier`` holds outcomes of the same invocation: when one of them
    ran exactly this experiment's cells (Fig. 9 plots Fig. 8's runs), its
    rows are reused and nothing is executed.
    """
    module = EXPERIMENTS[exp_id]
    started = time.monotonic()
    specs = module.cells(**params)
    source = next(
        (o for o in earlier if o.cells and [c.spec for c in o.cells] == specs), None
    )
    runner = CellRunner(jobs, cache)
    cells = tuple(runner.run(specs)) if source is None else ()
    rows = [cell.row for cell in (cells if source is None else source.cells)]
    result = module.assemble(rows, **params)
    headers, table_rows = module.table(result)
    return ExperimentOutcome(
        exp_id=exp_id,
        headers=headers,
        rows=table_rows,
        violations=module.check_shape(result),
        wall_seconds=time.monotonic() - started,
        result=result,
        cells=cells,
        jobs=runner.jobs,
        shared_with=None if source is None else source.exp_id,
    )


def _markdown_table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    def cell(value: Any) -> str:
        if isinstance(value, float):
            return f"{value:.4g}"
        return str(value)

    lines = ["| " + " | ".join(headers) + " |"]
    lines.append("|" + "---|" * len(headers))
    for row in rows:
        lines.append("| " + " | ".join(cell(c) for c in row) + " |")
    return "\n".join(lines)


def render_markdown(outcomes: list[ExperimentOutcome]) -> str:
    """Render a combined markdown report."""
    passed = sum(1 for outcome in outcomes if outcome.ok)
    lines = [
        "# Reproduction report",
        "",
        f"{passed}/{len(outcomes)} experiments match the paper's shape.",
        "",
    ]
    for outcome in outcomes:
        module = EXPERIMENTS[outcome.exp_id]
        first_doc_line = (module.__doc__ or "").strip().splitlines()[0]
        verdict = "OK" if outcome.ok else f"{len(outcome.violations)} violation(s)"
        lines.append(f"## {outcome.exp_id} — {first_doc_line}")
        lines.append("")
        lines.append(f"Shape check: **{verdict}** ({outcome.wall_seconds:.1f}s wall)")
        if outcome.shared_with is not None:
            lines.append(f"Cells: shared with {outcome.shared_with}")
        elif outcome.cell_seconds:
            executed = [s for s in outcome.cell_seconds if s > 0.0]
            slowest = max(outcome.cell_seconds)
            lines.append(
                f"Cells: {len(outcome.cell_seconds)} "
                f"({outcome.cache_hits} cached, {outcome.cache_misses} run) · "
                f"jobs {outcome.jobs} · "
                f"cell wall {sum(executed):.2f}s total, {slowest:.2f}s max"
            )
        lines.append("")
        lines.append(_markdown_table(outcome.headers, outcome.rows))
        lines.append("")
        for violation in outcome.violations:
            lines.append(f"- VIOLATION: {violation}")
        if outcome.violations:
            lines.append("")
    return "\n".join(lines)
