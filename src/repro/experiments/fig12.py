"""Fig. 12: lmbench dynamic benchmark — CPU usage over time.

Same runs as Fig. 11, reporting the ``/proc/stat`` CPU series.  The paper
observes that CPU usage ramps with the load and plateaus; misconfigured
Intel-4 runs burn as much CPU as zc for far less throughput, while i-all-4
burns ~1.3x more CPU than zc (Take-away 8).

Shape requirements:

- i-all-4 uses more CPU than zc;
- zc's CPU usage tracks the load: the ramp-up phase average is below the
  peak phase average, and the ramp-down average drops again;
- misconfigured Intel-4 configs waste CPU: they use at least as much CPU
  as their Intel-2 counterparts while delivering (per Fig. 11) less
  throughput than zc.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import format_table
from repro.experiments import fig11 as _fig11
from repro.experiments.fig11 import Fig11Result, LmbenchRun
from repro.parallel import CellSpec
from repro.workloads.dynamic import DynamicSpec


@dataclass
class Fig12Result:
    """Structured result of this experiment."""
    base: Fig11Result


def cells(
    worker_counts: tuple[int, ...] = (2, 4),
    spec: DynamicSpec = _fig11.DEFAULT_SPEC,
) -> list[CellSpec]:
    """Fig. 11's cells verbatim: the same runs feed both figures.

    The specs carry ``exp_id="fig11"``, so the runner dispatches to
    Fig. 11's ``run_cell``, the cache shares one entry per cell across
    both figures, and one ``repro run`` invocation executes them once.
    """
    return _fig11.cells(worker_counts, spec)


def assemble(
    runs: list[LmbenchRun],
    worker_counts: tuple[int, ...] = (2, 4),
    spec: DynamicSpec = _fig11.DEFAULT_SPEC,
) -> Fig12Result:
    """Build the structured result from rows in ``cells()`` order."""
    return Fig12Result(base=_fig11.assemble(runs, spec=spec))


def _phase_means(run_, spec: DynamicSpec) -> tuple[float, float, float]:
    """Mean CPU% over the (ramp-up, peak, ramp-down) phases."""
    series = [pct for _, pct in run_.cpu_series]
    n = spec.periods_per_phase
    if len(series) < 3 * n:
        # Pad with the last value if the monitor missed trailing windows.
        series = series + [series[-1]] * (3 * n - len(series)) if series else [0.0] * 3 * n
    up = sum(series[:n]) / n
    peak = sum(series[n : 2 * n]) / n
    down = sum(series[2 * n : 3 * n]) / n
    return up, peak, down


def table(result: Fig12Result) -> tuple[list[str], list[list]]:
    """(headers, rows) of the figure's data, for reports and CSV export."""
    spec = result.base.spec
    rows = []
    for run_ in result.base.runs:
        up, peak, down = _phase_means(run_, spec)
        rows.append([run_.label, up, peak, down, run_.mean_cpu()])
    return ["config", "ramp_up_cpu", "peak_cpu", "ramp_down_cpu", "mean_cpu"], rows


def report(result: Fig12Result) -> str:
    """Render the figure's series as an aligned text table."""
    headers, rows = table(result)
    return format_table(
        headers,
        rows,
        title="Fig. 12: lmbench dynamic benchmark — CPU usage by phase (%)",
        precision=1,
    )


def check_shape(result: Fig12Result) -> list[str]:
    """Return the violated paper-shape expectations (empty = reproduced)."""
    base = result.base
    spec = base.spec
    violations = []
    zc = base.get("zc")
    zc_cpu = zc.mean_cpu()
    labels = base.labels
    if "i-all-4" in labels and not base.get("i-all-4").mean_cpu() > zc_cpu:
        violations.append(
            f"expected i-all-4 CPU above zc "
            f"({base.get('i-all-4').mean_cpu():.1f}% vs {zc_cpu:.1f}%)"
        )
    up, peak, down = _phase_means(zc, spec)
    if not up < peak:
        violations.append(f"expected zc CPU to ramp with load ({up:.1f} -> {peak:.1f})")
    if not down < peak:
        violations.append(
            f"expected zc CPU to drop after the peak ({peak:.1f} -> {down:.1f})"
        )
    for tag in ("read", "write"):
        if f"i-{tag}-4" not in labels or f"i-{tag}-2" not in labels:
            continue
        two = base.get(f"i-{tag}-2").mean_cpu()
        four = base.get(f"i-{tag}-4").mean_cpu()
        if not four >= two * 0.95:
            violations.append(
                f"expected i-{tag}-4 to burn at least as much CPU as i-{tag}-2"
            )
    return violations
