"""Statistical diff between two run snapshots.

``diff_snapshots`` walks every (experiment, cell, ledger category) and
every exported metric of a baseline snapshot, compares it against the
current snapshot, and classifies each change:

- **regression** — a higher-is-worse quantity grew past the threshold
  and its bootstrap confidence interval sits entirely above it: overhead
  cycle categories (transition, marshal, runtime, the two spin
  categories, sched), the simulated completion time, fallback counters,
  latency quantiles — and any *new* paper-shape violation.  Regressions
  drive the non-zero exit code.
- **drift** — a quantity changed past the threshold but does not signal
  "slower": app/host-exec work (the workload itself changed), call
  counts, utilisation.  Reported so a parameter change is never silent,
  but never gates.
- **info** — idle capacity, resolved shape violations and confirmed
  improvements.

Confidence intervals come from a percentile bootstrap over the repeat
samples stored in the snapshot (seeded ``random.Random`` — reruns give
identical reports).  With a single repeat the interval collapses to the
point estimate, which is exact for this deterministic simulator: any
delta is then real, not noise.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.telemetry.ledger import (
    APP,
    HOST_EXEC,
    IDLE,
)
from repro.telemetry.schema import SchemaMismatch

#: Ledger categories where an increase means the run got slower.
#: ``fault`` is the injected-fault overhead (stalls, enclave
#: re-creation, rejoin resets): zero on healthy runs, and on fault-plan
#: baselines the quantity the ``fault_overhead`` gate keeps bounded.
GATED_CATEGORIES: tuple[str, ...] = (
    "transition",
    "marshal",
    "runtime",
    "caller-spin",
    "worker-spin",
    "sched",
    "fault",
)

#: Metric-name prefixes that gate (higher is worse).  Quantile suffixes
#: (``.p50`` etc.) ride on the histogram family name.
GATED_METRIC_PREFIXES: tuple[str, ...] = (
    "repro_sim_time_cycles",
    "repro_zc_fallbacks_total",
    "repro_intel_fallbacks_total",
    "repro_ocall_latency_cycles{",
    "repro_ocall_host_cycles{",
)

#: Metric families excluded from the diff entirely: per-category cycle
#: counters duplicate the ledger walk above (one finding per cause).
SKIPPED_METRIC_PREFIXES: tuple[str, ...] = ("repro_cycles_total",)

#: Histogram sample-count suffix — a count change is workload drift,
#: even on a gated latency family.
_COUNT_SUFFIX = ".count{"


def _mean(samples: Sequence[float]) -> float:
    return sum(samples) / len(samples) if samples else 0.0


def bootstrap_rel_delta(
    base: Sequence[float],
    cur: Sequence[float],
    resamples: int = 2000,
    confidence: float = 0.95,
    seed: int = 20230628,
) -> tuple[float, float, float]:
    """Relative delta ``(mean(cur)-mean(base))/|mean(base)|`` with a CI.

    Returns ``(delta, lo, hi)``.  The interval is a percentile bootstrap
    over with-replacement resamples of both sample lists; identical
    repeats give a zero-width interval at the point estimate.  A zero
    baseline with a non-zero current value reports ``inf`` (something
    appeared from nothing — always judged against the threshold).
    """
    base_mean = _mean(base)
    cur_mean = _mean(cur)

    def rel(b: float, c: float) -> float:
        if b == 0.0:
            return 0.0 if c == 0.0 else float("inf")
        return (c - b) / abs(b)

    point = rel(base_mean, cur_mean)
    if len(base) <= 1 and len(cur) <= 1:
        return point, point, point
    rng = random.Random(seed)
    deltas = []
    for _ in range(resamples):
        b = _mean([rng.choice(base) for _ in base]) if base else 0.0
        c = _mean([rng.choice(cur) for _ in cur]) if cur else 0.0
        deltas.append(rel(b, c))
    deltas.sort()
    tail = (1.0 - confidence) / 2.0
    lo = deltas[int(tail * (len(deltas) - 1))]
    hi = deltas[int((1.0 - tail) * (len(deltas) - 1))]
    # The point estimate belongs inside its own interval even when the
    # resampling distribution is skewed around it.
    return point, min(lo, point), max(hi, point)


@dataclass(frozen=True)
class DiffEntry:
    """One compared quantity: where it lives, how it moved, what it means."""

    experiment: str
    scope: str  # cell label, "shape", or "metrics"
    key: str  # ledger category, metric name, or violation text
    severity: str  # "regression" | "drift" | "info" | "ok"
    base: float
    current: float
    delta: float  # relative; +inf when appearing from a zero baseline
    ci: tuple[float, float]
    message: str = ""

    def __str__(self) -> str:
        delta = "new" if self.delta == float("inf") else f"{self.delta:+.1%}"
        ci = (
            ""
            if self.ci[0] == self.ci[1]
            else f" ci[{self.ci[0]:+.1%},{self.ci[1]:+.1%}]"
        )
        body = self.message or (
            f"{self.base:,.0f} -> {self.current:,.0f} ({delta}{ci})"
        )
        return f"[{self.severity}] {self.experiment}/{self.scope} {self.key}: {body}"


@dataclass
class DiffReport:
    """All findings of one snapshot comparison."""

    base_name: str
    current_name: str
    threshold: float
    entries: list[DiffEntry] = field(default_factory=list)
    compared: int = 0  # quantities examined (incl. unchanged ones)

    @property
    def regressions(self) -> list[DiffEntry]:
        return [entry for entry in self.entries if entry.severity == "regression"]

    @property
    def drifts(self) -> list[DiffEntry]:
        return [entry for entry in self.entries if entry.severity == "drift"]

    @property
    def ok(self) -> bool:
        """True when nothing gates: drift and info never fail a diff."""
        return not self.regressions

    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def render(self) -> str:
        """Markdown report: verdict, then findings grouped by severity."""
        lines = [
            f"# Regression diff: {self.current_name} vs baseline {self.base_name}",
            "",
            f"Compared {self.compared} quantities at threshold "
            f"{self.threshold:.0%}; {len(self.regressions)} regression(s), "
            f"{len(self.drifts)} drift(s).",
            "",
            f"**Verdict: {'PASS' if self.ok else 'FAIL'}**",
        ]
        for severity, title in (
            ("regression", "Regressions (gate)"),
            ("drift", "Drift (informational)"),
            ("info", "Notes"),
        ):
            found = [entry for entry in self.entries if entry.severity == severity]
            if not found:
                continue
            lines += ["", f"## {title}", ""]
            lines += [f"- {entry}" for entry in found]
        return "\n".join(lines) + "\n"


def _classify(
    delta: float, lo: float, hi: float, threshold: float, gated: bool
) -> str:
    """Severity of one measured change.

    A gated quantity regresses only when the whole confidence interval
    clears the threshold — a wide interval straddling it is reported as
    drift (suspicious but unconfirmed), never as a hard failure.
    """
    if gated and delta > threshold and lo > threshold:
        return "regression"
    if gated and delta < -threshold and hi < -threshold:
        return "info"  # confirmed improvement: worth a note, never a gate
    if abs(delta) > threshold:
        return "drift"
    return "ok"


def _diff_sampled(
    report: DiffReport,
    experiment: str,
    scope: str,
    key: str,
    base_samples: Sequence[float],
    cur_samples: Sequence[float],
    threshold: float,
    gated: bool,
    min_magnitude: float,
    resamples: int,
) -> None:
    """Compare one sampled quantity and record it if it moved."""
    report.compared += 1
    base_mean = _mean(base_samples)
    cur_mean = _mean(cur_samples)
    if max(abs(base_mean), abs(cur_mean)) < min_magnitude:
        return  # both sides negligible: relative deltas would be noise
    delta, lo, hi = bootstrap_rel_delta(
        base_samples, cur_samples, resamples=resamples
    )
    severity = _classify(delta, lo, hi, threshold, gated)
    if severity == "ok":
        return
    report.entries.append(
        DiffEntry(experiment, scope, key, severity, base_mean, cur_mean, delta, (lo, hi))
    )


def _flatten_shape(violation_runs: Sequence[Sequence[str]]) -> set[str]:
    return {violation for run in violation_runs for violation in run}


def diff_snapshots(
    base: Mapping[str, Any],
    current: Mapping[str, Any],
    threshold: float = 0.05,
    min_cycles: float = 1_000.0,
    resamples: int = 2000,
) -> DiffReport:
    """Compare two snapshot documents (see :mod:`repro.regress.snapshot`).

    ``threshold`` is the relative delta a gated quantity must exceed —
    with its whole bootstrap CI — to fail the diff.  ``min_cycles``
    suppresses relative comparisons of near-zero cycle categories.
    """
    if base.get("schema_version") != current.get("schema_version"):
        raise SchemaMismatch(
            f"snapshot schema mismatch: baseline v{base.get('schema_version')} "
            f"vs current v{current.get('schema_version')}"
        )
    report = DiffReport(
        base_name=base.get("name", "baseline"),
        current_name=current.get("name", "current"),
        threshold=threshold,
    )

    base_plan = base.get("fault_plan")
    cur_plan = current.get("fault_plan")
    if base_plan != cur_plan:
        # Comparing a faulty run against a healthy baseline (or two
        # different plans) is apples-to-oranges: every downstream delta
        # would be an artifact of the plan, not a regression.
        report.entries.append(
            DiffEntry(
                "snapshot", "fault_plan", "plan", "regression", 0.0, 0.0, 0.0,
                (0.0, 0.0),
                message=(
                    f"fault plans differ: baseline "
                    f"{(base_plan or {}).get('name', 'none')!r} vs current "
                    f"{(cur_plan or {}).get('name', 'none')!r} — re-capture with "
                    "matching --plan"
                ),
            )
        )

    for exp_id, base_record in base.get("experiments", {}).items():
        cur_record = current.get("experiments", {}).get(exp_id)
        if cur_record is None:
            report.entries.append(
                DiffEntry(
                    exp_id, "shape", "missing", "regression", 0.0, 0.0, 0.0,
                    (0.0, 0.0),
                    message="experiment present in baseline but absent from current run",
                )
            )
            continue

        base_shape = _flatten_shape(base_record.get("violations", []))
        cur_shape = _flatten_shape(cur_record.get("violations", []))
        for violation in sorted(cur_shape - base_shape):
            report.entries.append(
                DiffEntry(
                    exp_id, "shape", violation, "regression", 0.0, 1.0,
                    float("inf"), (0.0, 0.0),
                    message="new paper-shape violation",
                )
            )
        for violation in sorted(base_shape - cur_shape):
            report.entries.append(
                DiffEntry(
                    exp_id, "shape", violation, "info", 1.0, 0.0, -1.0,
                    (0.0, 0.0),
                    message="baseline shape violation no longer present",
                )
            )

        for label, base_cell in base_record.get("cells", {}).items():
            cur_cell = cur_record.get("cells", {}).get(label)
            if cur_cell is None:
                report.entries.append(
                    DiffEntry(
                        exp_id, label, "missing", "drift", 0.0, 0.0, 0.0,
                        (0.0, 0.0),
                        message="cell present in baseline but not in current run",
                    )
                )
                continue
            _diff_sampled(
                report, exp_id, label, "now_cycles",
                base_cell.get("now_cycles", []), cur_cell.get("now_cycles", []),
                threshold, gated=True, min_magnitude=min_cycles,
                resamples=resamples,
            )
            base_wall = base_cell.get("wall_by_category", {})
            cur_wall = cur_cell.get("wall_by_category", {})
            for category in sorted(set(base_wall) | set(cur_wall)):
                if category == IDLE:
                    gated = False  # idle is capacity, not cost
                elif category in (APP, HOST_EXEC):
                    gated = False  # useful work: a change means workload drift
                else:
                    gated = category in GATED_CATEGORIES
                _diff_sampled(
                    report, exp_id, label, f"cycles[{category}]",
                    base_wall.get(category, []), cur_wall.get(category, []),
                    threshold, gated=gated, min_magnitude=min_cycles,
                    resamples=resamples,
                )

        base_metrics = base_record.get("metrics", {})
        cur_metrics = cur_record.get("metrics", {})
        for key in sorted(set(base_metrics) | set(cur_metrics)):
            if key.startswith(SKIPPED_METRIC_PREFIXES):
                continue
            gated = key.startswith(GATED_METRIC_PREFIXES) and _COUNT_SUFFIX not in key
            _diff_sampled(
                report, exp_id, "metrics", key,
                base_metrics.get(key, []), cur_metrics.get(key, []),
                threshold, gated=gated, min_magnitude=1e-9,
                resamples=resamples,
            )

    return report
