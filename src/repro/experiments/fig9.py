"""Fig. 9: kissdb — average %CPU during the SET workload.

Same runs as Fig. 8, reporting the ``/proc/stat``-style CPU utilisation.
The paper observes: no_sl lowest; Intel-2 configs ~55%; zc ~60%
(between); Intel-4 configs ~80% — i.e. Intel burns CPU in proportion to
its static worker count while zc scales workers with the workload
(Take-away 6).

Shape requirements:

- no_sl has the lowest CPU usage;
- every Intel-4 config uses more CPU than its Intel-2 counterpart;
- zc sits between no_sl and the Intel-4 configs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import format_table
from repro.experiments import fig8 as _fig8
from repro.experiments.fig8 import Fig8Result, Fig8Row
from repro.parallel import CellSpec


@dataclass
class Fig9Result:
    """Structured result of this experiment."""
    base: Fig8Result


def cells(
    n_keys_sweep: tuple[int, ...] = _fig8.DEFAULT_N_KEYS,
    worker_counts: tuple[int, ...] = (2, 4),
    n_threads: int = _fig8.DEFAULT_THREADS,
) -> list[CellSpec]:
    """Fig. 8's cells verbatim: the same runs feed both figures.

    The specs carry ``exp_id="fig8"``, so the runner dispatches to
    Fig. 8's ``run_cell``, the cache shares one entry per cell across
    both figures, and one ``repro run`` invocation executes them once.
    """
    return _fig8.cells(n_keys_sweep, worker_counts, n_threads)


def assemble(
    rows: list[Fig8Row],
    n_keys_sweep: tuple[int, ...] = _fig8.DEFAULT_N_KEYS,
    worker_counts: tuple[int, ...] = (2, 4),
    n_threads: int = _fig8.DEFAULT_THREADS,
) -> Fig9Result:
    """Build the structured result from rows in ``cells()`` order."""
    return Fig9Result(base=_fig8.assemble(rows, n_threads=n_threads))


def table(result: Fig9Result) -> tuple[list[str], list[list]]:
    """(headers, rows) of the figure's data, for reports and CSV export."""
    base = result.base
    rows = [[label, base.mean_cpu(label)] for label in base.labels]
    return ["config", "mean_cpu_pct"], rows


def report(result: Fig9Result) -> str:
    """Render the figure's series as an aligned text table."""
    base = result.base
    headers, rows = table(result)
    return format_table(
        headers,
        rows,
        title=f"Fig. 9: kissdb mean CPU usage, {base.n_threads} client threads",
        precision=1,
    )


def check_shape(result: Fig9Result) -> list[str]:
    """Return the violated paper-shape expectations (empty = reproduced)."""
    base = result.base
    violations = []
    no_sl_cpu = base.mean_cpu("no_sl")
    zc_cpu = base.mean_cpu("zc")
    for label in base.labels:
        if label == "no_sl":
            continue
        if not no_sl_cpu < base.mean_cpu(label):
            violations.append(
                f"expected no_sl to use the least CPU, but {label} uses "
                f"{base.mean_cpu(label):.1f}% vs {no_sl_cpu:.1f}%"
            )
    for tag in _fig8.KISSDB_OCALL_SETS:
        two = f"i-{tag}-2"
        four = f"i-{tag}-4"
        if two in base.labels and four in base.labels:
            if not base.mean_cpu(four) > base.mean_cpu(two):
                violations.append(
                    f"expected {four} to use more CPU than {two} "
                    f"({base.mean_cpu(four):.1f}% vs {base.mean_cpu(two):.1f}%)"
                )
    max_intel4 = max(
        (base.mean_cpu(lbl) for lbl in base.labels if lbl.endswith("-4")),
        default=None,
    )
    if max_intel4 is not None and not zc_cpu < max_intel4:
        violations.append(
            f"expected zc CPU below the Intel-4 configs "
            f"({zc_cpu:.1f}% vs {max_intel4:.1f}%)"
        )
    return violations
