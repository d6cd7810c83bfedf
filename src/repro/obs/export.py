"""The obs dashboard: a self-contained HTML report of a run's windows.

The report is rendered from the ``obs`` section of the run's
``serve-bench`` artifact (inline SVG sparklines, zero external
dependencies), so the dashboard can never disagree with the artifact.
"""

from __future__ import annotations

import html
import os
from typing import Any

#: Metrics charted per lane in the HTML report, with display labels.
REPORT_METRICS = (
    ("throughput_rps", "throughput (rps)"),
    ("p99_us", "p99 latency (µs)"),
    ("queue_depth", "queue depth"),
    ("shed", "shed"),
    ("occupancy", "worker occupancy"),
    ("u_cycles", "wasted cycles U"),
)


def _sparkline(
    values: list[float | None],
    marks: set[int],
    width: int = 260,
    height: int = 40,
) -> str:
    """One inline-SVG sparkline; ``marks`` are anomalous window indexes."""
    points = [(i, v) for i, v in enumerate(values) if v is not None]
    if not points:
        return "<svg class='spark' width='%d' height='%d'></svg>" % (
            width,
            height,
        )
    lo = min(v for _, v in points)
    hi = max(v for _, v in points)
    span = (hi - lo) or 1.0
    n = max(len(values) - 1, 1)

    def xy(i: int, v: float) -> tuple[float, float]:
        x = 4 + (width - 8) * i / n
        y = height - 6 - (height - 12) * (v - lo) / span
        return x, y

    polyline = " ".join("%.1f,%.1f" % xy(i, v) for i, v in points)
    dots = "".join(
        "<circle cx='%.1f' cy='%.1f' r='3' class='anom'/>" % xy(i, v)
        for i, v in points
        if i in marks
    )
    return (
        "<svg class='spark' width='%d' height='%d'>"
        "<polyline points='%s' fill='none'/>%s</svg>"
        % (width, height, polyline, dots)
    )


def _fmt(value: Any) -> str:
    if value is None:
        return "–"
    if isinstance(value, float):
        return "%.4g" % value
    return str(value)


def render_html_report(
    obs: dict[str, Any], title: str = "serve window stream"
) -> str:
    """Render the sparkline dashboard as one self-contained HTML page."""
    by_lane: dict[str, list[dict[str, Any]]] = {}
    for record in obs["records"]:
        by_lane.setdefault(record["lane"], []).append(record)
    anomalous: dict[tuple[str, str], set[int]] = {}
    for anomaly in obs.get("anomalies", []):
        anomalous.setdefault(
            (anomaly["lane"], anomaly["metric"]), set()
        ).add(anomaly["window"])
    sections = []
    for lane in obs["lanes"]:
        records = sorted(by_lane.get(lane, []), key=lambda r: r["window"])
        cells = []
        for metric, label in REPORT_METRICS:
            values = [record.get(metric) for record in records]
            marks = anomalous.get((lane, metric), set())
            last = next(
                (v for v in reversed(values) if v is not None), None
            )
            cells.append(
                "<td><div class='label'>%s</div>%s"
                "<div class='last'>last %s · %d alarms</div></td>"
                % (
                    html.escape(label),
                    _sparkline(values, marks),
                    _fmt(last),
                    len(marks),
                )
            )
        sections.append(
            "<h2>%s</h2><table><tr>%s</tr></table>"
            % (html.escape(lane), "".join(cells))
        )
    anomaly_rows = "".join(
        "<tr><td>%d</td><td>%s</td><td>%s</td><td>%s</td>"
        "<td>%s</td><td>%s</td></tr>"
        % (
            a["window"],
            html.escape(a["lane"]),
            html.escape(a["metric"]),
            html.escape(a["kind"]),
            _fmt(a["value"]),
            _fmt(a["score"]),
        )
        for a in obs.get("anomalies", [])
    )
    anomaly_table = (
        "<h2>anomalies</h2><table class='anoms'><tr><th>window</th>"
        "<th>lane</th><th>metric</th><th>kind</th><th>value</th>"
        "<th>score</th></tr>%s</table>" % anomaly_rows
        if anomaly_rows
        else "<h2>anomalies</h2><p>none detected</p>"
    )
    return (
        "<!DOCTYPE html><html><head><meta charset='utf-8'>"
        "<title>%(title)s</title><style>"
        "body{font:13px/1.4 system-ui,sans-serif;margin:24px;"
        "color:#1a1a2e}"
        "h1{font-size:18px}h2{font-size:14px;margin:18px 0 4px}"
        "table{border-collapse:collapse}td,th{padding:4px 10px;"
        "vertical-align:top;text-align:left}"
        ".spark polyline{stroke:#2563eb;stroke-width:1.5}"
        ".spark .anom,circle.anom{fill:#dc2626}"
        ".label{font-weight:600}.last{color:#666;font-size:11px}"
        ".anoms td,.anoms th{border-bottom:1px solid #ddd}"
        "</style></head><body><h1>%(title)s</h1>"
        "<p>%(windows)d windows × %(interval).3g cycles "
        "(%(window_ms).3g ms each) · lanes: %(lanes)s · "
        "%(n_anomalies)d anomalies</p>%(sections)s%(anomaly_table)s"
        "</body></html>"
        % {
            "title": html.escape(title),
            "windows": obs["windows"],
            "interval": obs["interval_cycles"],
            "window_ms": obs["interval_cycles"] / obs["freq_hz"] * 1e3,
            "lanes": html.escape(", ".join(obs["lanes"])),
            "n_anomalies": len(obs.get("anomalies", [])),
            "sections": "".join(sections),
            "anomaly_table": anomaly_table,
        }
    )


def write_html_report(
    obs: dict[str, Any], path: str, title: str = "serve window stream"
) -> str:
    """Write the HTML dashboard; returns the path."""
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_html_report(obs, title=title))
    return path
