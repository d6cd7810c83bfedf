"""Run experiment suites and render a combined markdown report.

``python -m repro report --quick --out report.md`` regenerates an
EXPERIMENTS.md-style document from live runs: one section per experiment
with its data table (as markdown) and its shape-check verdict.  Useful
for verifying a changed cost model or scheduler against every figure at
once.

Every experiment exposes its grid as data (``cells()`` / ``run_cell()``
/ ``assemble()``, see ``docs/extending.md``) and is executed through
:class:`repro.parallel.CellRunner`, which adds ``jobs=N``
process-level parallelism and content-addressed result caching while
keeping rows bit-identical to a serial run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Sequence

from repro.experiments import EXPERIMENTS
from repro.parallel import CellRunner, ResultCache, resolve_jobs


@dataclass(frozen=True)
class ExperimentOutcome:
    """One experiment's run, table and verdict."""

    exp_id: str
    headers: list[str]
    rows: list[list[Any]]
    violations: list[str]
    wall_seconds: float
    #: Wall seconds per cell, in cell order (0.0 for cache hits).
    cell_seconds: tuple[float, ...] = ()
    cache_hits: int = 0
    cache_misses: int = 0
    jobs: int = 1

    @property
    def ok(self) -> bool:
        """Whether the shape check passed."""
        return not self.violations


def run_suite(
    experiment_ids: Sequence[str] | None = None,
    overrides: dict[str, dict[str, Any]] | None = None,
    jobs: int | str = 1,
    cache: ResultCache | None = None,
) -> list[ExperimentOutcome]:
    """Run the given experiments (all by default) and collect outcomes.

    ``overrides`` maps experiment id to run() kwargs (e.g. the CLI's
    quick presets).  ``jobs`` fans each experiment's cells over a process
    pool (``"auto"`` = host CPU count); ``cache`` serves already-computed
    cells.  Both leave the rows bit-identical to the serial, uncached
    run.
    """
    ids = list(experiment_ids) if experiment_ids is not None else list(EXPERIMENTS)
    overrides = overrides or {}
    resolved_jobs = resolve_jobs(jobs)
    outcomes = []
    for exp_id in ids:
        module = EXPERIMENTS[exp_id]
        kwargs = overrides.get(exp_id, {})
        started = time.monotonic()
        runner = CellRunner(jobs=resolved_jobs, cache=cache)
        cell_outcomes = runner.run(module.cells(**kwargs))
        result = module.assemble([o.row for o in cell_outcomes], **kwargs)
        cache_hits = sum(1 for o in cell_outcomes if o.cached)
        wall = time.monotonic() - started
        headers, rows = module.table(result)
        outcomes.append(
            ExperimentOutcome(
                exp_id=exp_id,
                headers=headers,
                rows=rows,
                violations=module.check_shape(result),
                wall_seconds=wall,
                cell_seconds=tuple(o.wall_seconds for o in cell_outcomes),
                cache_hits=cache_hits,
                cache_misses=len(cell_outcomes) - cache_hits,
                jobs=resolved_jobs,
            )
        )
    return outcomes


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
        if outcome.cell_seconds:
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
