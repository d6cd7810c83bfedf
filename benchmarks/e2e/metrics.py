"""Every metric the benchmark emits, with its unit.

``BENCHMARK.json`` at the repo root names the subset that gates a change
(every workload emits it) and each gated end-to-end metric's bound; this
module gives the unit of everything, including the metrics only some
workloads have.
"""

from __future__ import annotations

from benchmarks.e2e.layers import LAYERS, METRIC_SUFFIXES

#: Host-side end-to-end metrics over the untraced repetitions:
#: name -> (unit, which direction is better, headline statistic).
#: Interference from other work on the host only ever adds time, so a
#: speed is read from the fastest repetition ("best"), the one least
#: disturbed; set-up time and memory are read as medians.
HOST: dict[str, tuple[str, str, str]] = {
    "setup_s": ("s", "lower", "median"),
    "wall_s": ("s", "lower", "best"),
    "ops_per_host_s": ("ops/s", "higher", "best"),
    "events_per_host_s": ("events/s", "higher", "best"),
    "peak_rss_mb": ("MiB", "lower", "median"),
}

#: Simulated end-to-end metrics (exact for a given seed and size) and
#: their units.
SIMULATED: dict[str, str] = {
    "sim_p50_us": "sim_us",
    "sim_p99_us": "sim_us",
    "sim_latency_samples": "count",
    "sim_mcycles_per_req": "Mcycles",
    "sim_fail_frac": "fraction",
    "sim_zc_peak_kops": "kops/s",
    "sim_zc_cpu_pct": "%",
}

_LAYER_UNITS = {"self_s": "s", "self_share": "fraction", "calls_in": "count"}

#: Per-layer metrics: the traced run's fold, the tracing overhead, and
#: the exact counters read from the untraced artifacts.
PER_LAYER: dict[str, str] = {
    **{
        f"{layer}.{suffix}": _LAYER_UNITS[suffix]
        for layer in LAYERS
        for suffix in METRIC_SUFFIXES
    },
    "trace_overhead": "ratio",
    "sim.kernel.events": "count",
    "sim.kernel.events_per_op": "events/op",
    "sgx.ocalls_switchless": "count",
    "sgx.ocalls_regular": "count",
    "sgx.ocalls_fallback": "count",
    "sgx.switchless_frac": "fraction",
    "serve.router.issued": "count",
    "serve.router.submitted": "count",
    "serve.router.completed": "count",
    "serve.router.shed": "count",
    "serve.router.failed": "count",
    "serve.router.preempted": "count",
    "serve.router.spans_dropped": "count",
    "serve.router.queue_wait_p99_us": "sim_us",
    "serve.shard.exec_p99_us": "sim_us",
    "apps.kv_mutations": "count",
    "apps.session_evictions": "count",
    "apps.session_misses": "count",
    "apps.crypto_chunks": "count",
    "core.worker_budget_mcycles": "Mcycles",
    "obs.windows": "count",
    "obs.records": "count",
    "obs.dropped_records": "count",
    "obs.anomalies": "count",
    "autoscale.spawns": "count",
    "autoscale.retires": "count",
    "autoscale.windows": "count",
    "crypto.blocks": "count",
}


def unit_of(name: str) -> str:
    """The unit of any metric the benchmark emits."""
    if name in HOST:
        return HOST[name][0]
    return SIMULATED.get(name) or PER_LAYER[name]
