"""One module per paper figure/table.

Every module exposes its grid as data — ``cells(**params)``,
``run_cell(spec)`` (on the module each cell's ``exp_id`` names) and
``assemble(rows, **params)``, which
:func:`repro.experiments.suite.run_experiment` drives (accepting
scaled-down parameters for quick runs) — and:

- ``table(result)`` — the figure's (headers, rows), for reports and CSV;
- ``report(result) -> str`` — the rows/series the paper's figure plots,
  as an aligned text table;
- ``check_shape(result) -> list[str]`` — the qualitative expectations the
  paper's figure encodes (who wins, by roughly what factor, where the
  crossovers fall); returns the list of violated expectations, empty when
  the reproduction matches the paper's shape.

See DESIGN.md §4 for the experiment index and EXPERIMENTS.md for measured
paper-vs-reproduction numbers.
"""

from repro.experiments import (
    fig2,
    fig3,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11,
    fig12,
    fig13,
    sec3a,
    sec5d,
    serve,
)
from repro.serve import slices as serve_slice

#: Registry of experiment id -> module, used by the benchmark harness.
EXPERIMENTS = {
    "sec3a": sec3a,
    "fig2": fig2,
    "fig3": fig3,
    "fig7": fig7,
    "fig8": fig8,
    "fig9": fig9,
    "fig10": fig10,
    "fig11": fig11,
    "fig12": fig12,
    "fig13": fig13,
    "sec5d": sec5d,
    "serve": serve,
}

#: Cell providers are fork-pool targets without the full experiment
#: surface (no figure, no table, no quick kwargs).  The cell runner
#: resolves these when an id is not a registered experiment.
CELL_PROVIDERS = {
    # One slice of a slice-parallel serve bench (repro serve bench
    # --slices N); see repro.serve.slices.
    "serve-slice": serve_slice,
}

__all__ = ["CELL_PROVIDERS", "EXPERIMENTS"]
