"""Compare two sets of benchmark runs, metric by metric.

    python -m benchmarks.e2e compare A1.json A2.json ... -- B1.json B2.json ...

Side A is the parent, side B the change; each file is one ``--out``
document.  For every workload and every end-to-end metric that
``BENCHMARK.json`` declares, each side's median and quartiles are taken
over its files' values, and the pair is labelled:

- ``unresolved`` when the parent's interquartile range, as a share of
  its median, exceeds the metric's bound — unless every run of B reads
  better than every run of A, which is ``better``;
- otherwise ``worse`` or ``better`` when B's median moved by more than
  the bound, else ``unchanged``.

Each side's ``error_rate`` is shown beside the metrics.
"""

from __future__ import annotations

import statistics
from typing import Any


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) of ``values``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def label(a: list[float], b: list[float], better: str, bound: float) -> str:
    """Classify B against A for one metric (see the module docstring)."""
    sign = 1.0 if better == "higher" else -1.0
    a_q1, a_median, a_q3 = quartiles(a)
    b_median = statistics.median(b)
    if (a_q3 - a_q1) / abs(a_median) > bound:
        all_better = min(sign * x for x in b) > max(sign * x for x in a)
        return "better" if all_better else "unresolved"
    change = sign * (b_median - a_median) / abs(a_median)
    if change < -bound:
        return "worse"
    if change > bound:
        return "better"
    return "unchanged"


def compare(
    side_a: list[dict[str, Any]], side_b: list[dict[str, Any]], benchmark: dict[str, Any]
) -> list[dict[str, Any]]:
    """One row per (workload, metric) present on both sides."""
    rows = []
    workloads = [w for w in side_a[0]["workloads"] if w in side_b[0]["workloads"]]
    for workload in workloads:
        errors = {
            side: [doc["workloads"][workload]["error_rate"] for doc in docs]
            for side, docs in (("a", side_a), ("b", side_b))
        }
        for entry in benchmark["end_to_end"]:
            metric = entry["name"]
            values = {
                side: [
                    doc["workloads"][workload]["host"][metric]["value"]
                    for doc in docs
                    if metric in doc["workloads"][workload]["host"]
                ]
                for side, docs in (("a", side_a), ("b", side_b))
            }
            if not values["a"] or not values["b"]:
                continue
            rows.append(
                {
                    "workload": workload,
                    "metric": metric,
                    "unit": entry["unit"],
                    "bound": entry["bound"],
                    "a": quartiles(values["a"]),
                    "b": quartiles(values["b"]),
                    "label": label(values["a"], values["b"], entry["better"], entry["bound"]),
                    "error_rate_a": errors["a"],
                    "error_rate_b": errors["b"],
                }
            )
    return rows


def render(rows: list[dict[str, Any]]) -> str:
    """Aligned text table of :func:`compare` rows."""
    lines = [
        f"{'workload':<20} {'metric':<18} {'A q1/median/q3':<34} "
        f"{'B q1/median/q3':<34} {'bound':>6}  label       error_rate A | B"
    ]
    for row in rows:
        a = "/".join(f"{v:.4g}" for v in row["a"])
        b = "/".join(f"{v:.4g}" for v in row["b"])
        errors = (
            ",".join(f"{e:g}" for e in row["error_rate_a"])
            + " | "
            + ",".join(f"{e:g}" for e in row["error_rate_b"])
        )
        lines.append(
            f"{row['workload']:<20} {row['metric']:<18} {a + ' ' + row['unit']:<34} "
            f"{b + ' ' + row['unit']:<34} {row['bound']:>6.0%}  {row['label']:<11} {errors}"
        )
    return "\n".join(lines)

