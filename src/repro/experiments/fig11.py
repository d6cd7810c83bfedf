"""Fig. 11: lmbench dynamic benchmark — read/write throughput over time.

A reader thread (one-word reads of ``/dev/zero``) and a writer thread
(one-word writes to ``/dev/null``) issue paced batches every τ across
three phases (increasing / constant / decreasing load).  Intel switchless
runs the paper's six configurations (``i-read``, ``i-write``, ``i-all``
x {2, 4} workers) against ``no_sl`` and ``zc``.

Shape requirements (peak-phase throughput):

- zc beats the *cross-misconfigured* configs by ~2x: the reader under
  i-write (reads never switchless) and the writer under i-read;
- a fully-configured Intel (i-all) matches or beats zc (paper: zc is
  1.1-1.6x slower);
- every config tracks the offered load during the ramp-up phase until it
  saturates.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.metrics import PeriodResult
from repro.analysis.report import format_table
from repro.apps import LmbenchSyscalls
from repro.experiments.common import (
    BackendSpec,
    build_stack,
    intel_spec,
    no_sl_spec,
    zc_spec,
)
from repro.parallel import CellSpec, cell
from repro.workloads.dynamic import DynamicSpec, build_schedule, paced_thread

LMBENCH_OCALL_SETS: dict[str, frozenset[str]] = {
    "read": frozenset({"read"}),
    "write": frozenset({"write"}),
    "all": frozenset({"read", "write"}),
}

#: Scaled-down default of the paper's τ=0.5 s / 3x20 s benchmark.  The
#: peak is chosen to saturate every configuration (offered ~1.6M ops/s
#: against a best-case service rate of ~2M ops/s), as the paper's peak
#: phase does — that is what makes the CPU-usage plateaus of Fig. 12
#: comparable across configurations.
DEFAULT_SPEC = DynamicSpec(
    tau_seconds=0.005, periods_per_phase=6, base_ops=512, peak_ops=8192
)


def backend_specs(worker_counts: tuple[int, ...] = (2, 4)) -> list[BackendSpec]:
    """The configurations this experiment sweeps."""
    specs = [no_sl_spec(), zc_spec()]
    for workers in worker_counts:
        for tag, names in LMBENCH_OCALL_SETS.items():
            specs.append(intel_spec(tag, names, workers))
    return specs


@dataclass
class LmbenchRun:
    """One configuration's periods and CPU series."""
    label: str
    reader_periods: list[PeriodResult]
    writer_periods: list[PeriodResult]
    cpu_series: list[tuple[float, float]]
    freq_hz: float

    def _peak_tput(self, periods: list[PeriodResult], spec: DynamicSpec) -> float:
        """Mean sustained throughput over the constant (peak) phase."""
        n = spec.periods_per_phase
        peak_phase = periods[n : 2 * n]
        if not peak_phase:
            return 0.0
        tau_cycles = spec.tau_seconds * self.freq_hz
        return sum(
            p.sustained_ops_per_s(self.freq_hz, tau_cycles) for p in peak_phase
        ) / len(peak_phase)

    def reader_peak(self, spec: DynamicSpec) -> float:
        """Mean sustained reader throughput over the peak phase (ops/s)."""
        return self._peak_tput(self.reader_periods, spec)

    def writer_peak(self, spec: DynamicSpec) -> float:
        """Mean sustained writer throughput over the peak phase (ops/s)."""
        return self._peak_tput(self.writer_periods, spec)

    def mean_cpu(self) -> float:
        """Mean CPU usage across the sweep for one configuration."""
        if not self.cpu_series:
            return 0.0
        return sum(pct for _, pct in self.cpu_series) / len(self.cpu_series)


@dataclass
class Fig11Result:
    """Structured result of this experiment."""
    runs: list[LmbenchRun]
    spec: DynamicSpec

    def get(self, label: str) -> LmbenchRun:
        """Look up one entry by label/key."""
        for run_ in self.runs:
            if run_.label == label:
                return run_
        raise KeyError(label)

    @property
    def labels(self) -> list[str]:
        """Configuration labels, in run order."""
        return [r.label for r in self.runs]


def run_one(backend: BackendSpec, spec: DynamicSpec = DEFAULT_SPEC) -> LmbenchRun:
    """Run one configuration cell of the experiment."""
    stack = build_stack(backend, monitor_interval_s=spec.tau_seconds)
    kernel = stack.kernel
    bench = LmbenchSyscalls(stack.enclave)

    setup_thread = kernel.spawn(bench.setup(), name="setup", kind="app")
    kernel.join(setup_thread)

    schedule = build_schedule(spec)
    tau_cycles = kernel.cycles(spec.tau_seconds)
    reader_periods: list[PeriodResult] = []
    writer_periods: list[PeriodResult] = []
    reader = kernel.spawn(
        paced_thread(kernel, bench.read_op, schedule, tau_cycles, reader_periods),
        name="reader",
        kind="app",
    )
    writer = kernel.spawn(
        paced_thread(kernel, bench.write_op, schedule, tau_cycles, writer_periods),
        name="writer",
        kind="app",
    )
    kernel.join(reader, writer)
    assert stack.monitor is not None
    cpu_series = stack.monitor.series()
    stack.close()
    return LmbenchRun(
        label=backend.label,
        reader_periods=reader_periods,
        writer_periods=writer_periods,
        cpu_series=cpu_series,
        freq_hz=kernel.spec.freq_hz,
    )


def cells(
    worker_counts: tuple[int, ...] = (2, 4),
    spec: DynamicSpec = DEFAULT_SPEC,
) -> list[CellSpec]:
    """The experiment's grid as data: one cell per backend configuration.

    Fig. 12 reuses these cells verbatim — the same runs feed both
    figures, so one cache entry serves both.
    """
    return [
        cell("fig11", index, backend=backend, spec=spec)
        for index, backend in enumerate(backend_specs(worker_counts))
    ]


def run_cell(cell_spec: CellSpec) -> LmbenchRun:
    """Execute one cell of the grid."""
    kw = cell_spec.kwargs
    return run_one(kw["backend"], kw["spec"])


def assemble(
    runs: list[LmbenchRun],
    worker_counts: tuple[int, ...] = (2, 4),
    spec: DynamicSpec = DEFAULT_SPEC,
) -> Fig11Result:
    """Build the structured result from rows in ``cells()`` order."""
    return Fig11Result(runs=list(runs), spec=spec)


def table(result: Fig11Result) -> tuple[list[str], list[list]]:
    """(headers, rows) of the figure's data, for reports and CSV export."""
    rows = []
    for run_ in result.runs:
        rows.append(
            [
                run_.label,
                run_.reader_peak(result.spec) / 1e3,
                run_.writer_peak(result.spec) / 1e3,
                run_.mean_cpu(),
            ]
        )
    return ["config", "reader_peak_kops", "writer_peak_kops", "mean_cpu_pct"], rows


def report(result: Fig11Result) -> str:
    """Render the figure's series as an aligned text table."""
    headers, rows = table(result)
    return format_table(
        headers,
        rows,
        title=(
            "Fig. 11: lmbench dynamic benchmark — peak-phase throughput "
            f"(tau={result.spec.tau_seconds}s, peak={result.spec.peak_ops} ops)"
        ),
        precision=1,
    )


def check_shape(result: Fig11Result) -> list[str]:
    """Return the violated paper-shape expectations (empty = reproduced)."""
    violations = []
    spec = result.spec
    zc = result.get("zc")
    present = {
        w for w in (2, 4) if any(r.label == f"i-all-{w}" for r in result.runs)
    }
    for workers in sorted(present):
        cross_read = result.get(f"i-write-{workers}")  # reads misconfigured
        cross_write = result.get(f"i-read-{workers}")  # writes misconfigured
        if not zc.reader_peak(spec) > 1.3 * cross_read.reader_peak(spec):
            violations.append(
                f"expected zc reader ~2x over i-write-{workers}, got "
                f"{zc.reader_peak(spec):.0f} vs {cross_read.reader_peak(spec):.0f} ops/s"
            )
        if not zc.writer_peak(spec) > 1.3 * cross_write.writer_peak(spec):
            violations.append(
                f"expected zc writer ~2x over i-read-{workers}, got "
                f"{zc.writer_peak(spec):.0f} vs {cross_write.writer_peak(spec):.0f} ops/s"
            )
        well = result.get(f"i-all-{workers}")
        if not well.reader_peak(spec) > 0.85 * zc.reader_peak(spec):
            violations.append(
                f"expected i-all-{workers} to match or beat zc (reader)"
            )
    # Ramp: achieved throughput grows through phase 1 for zc.
    n = spec.periods_per_phase
    ramp = [p.completed_ops for p in zc.reader_periods[:n]]
    if not ramp[-1] > ramp[0]:
        violations.append(f"expected zc reader ramp-up, got {ramp}")
    return violations
