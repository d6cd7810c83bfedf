"""Windowed time-series observability for the serve layer.

``repro.obs`` turns the end-of-run telemetry stream into *per-interval*
visibility: a :class:`MetricSampler` subscribes to the kernel's event
bus and closes fixed-cadence windows of the simulated clock, producing
``serve.window`` records (throughput, latency percentiles, queue depth,
worker occupancy, shed/preempt rate, faults and wasted cycles ``U``)
with per-shard and per-tenant lanes.  An online
:class:`AnomalyDetector` (EWMA bands + CUSUM changepoints, both
deterministic) watches the stream and flags ``obs.anomaly`` events.

The window records are explicitly the sensor feed a future autoscaling
control plane will consume: every quantity the paper's §IV-A argmin
objective needs (fallback count, worker occupancy, wasted cycles) is on
the record.

Determinism contract: same seed and parameters ⇒ byte-identical window
and anomaly streams, across reruns and across ``--slices N`` vs
unsliced (see :func:`merge_raw_windows` for why).

A run's windows are the ``obs`` section of its ``serve-bench`` artifact,
and nowhere else: a committed obs baseline is that artifact, gated by
:func:`repro.regress.baselines.compare_serve`, and the HTML dashboard
(:func:`write_html_report`) renders from it.
"""

from repro.obs.anomaly import AnomalyDetector
from repro.obs.console import LiveConsole
from repro.obs.export import render_html_report, write_html_report
from repro.obs.sampler import (
    MetricSampler,
    build_window_records,
    merge_raw_windows,
)

__all__ = [
    "AnomalyDetector",
    "LiveConsole",
    "MetricSampler",
    "build_window_records",
    "merge_raw_windows",
    "render_html_report",
    "write_html_report",
]
