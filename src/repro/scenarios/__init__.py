"""Trace-driven scenario library for the serving layer.

Synthetic load answers "what does this cluster do at rate R?"; the
scenario library answers "what does it do on *this* workload?" — where
the workload is a reviewable artifact, not a seed.  Three pieces:

- :mod:`repro.scenarios.trace` — the schema-stamped JSONL trace format:
  timestamped, tenant- and app-tagged request arrivals with a digest
  that makes every committed trace tamper-evident.
- :mod:`repro.scenarios.generate` — the deterministic generator:
  diurnal curves, flash crowds, hot-key skew shifts, weighted app and
  tenant mixes, all from one seeded stream (same spec → byte-identical
  file).
- :mod:`repro.scenarios.catalog` — the named library whose traces live
  under ``traces/`` and whose baselines ``repro diff`` gates in CI.

A replay is a serve bench whose :class:`repro.api.BenchSpec` names a
``scenario`` or a ``trace``: the open loop of
:class:`repro.serve.loadgen.LoadGenerator` walks the trace's events
instead of seeded draws (so slice-parallel replays merge bit-identical
to unsliced ones), and the run writes the ``serve-bench`` artifact,
which is also the replay's committed baseline.

See ``docs/scenarios.md`` for the trace schema and the gen → replay →
diff workflow.
"""

from repro.scenarios.catalog import (
    CATALOG,
    SCENARIO_NAMES,
    baseline_path,
    get_scenario,
    trace_path,
)
from repro.scenarios.generate import (
    ARRIVAL_CHOICES,
    KEYDIST_CHOICES,
    ScenarioSpec,
    generate_trace,
)
from repro.scenarios.trace import (
    TRACE_ARTIFACT,
    ScenarioTrace,
    TraceEvent,
    load_trace,
    trace_digest,
    write_trace,
)

__all__ = [
    "ARRIVAL_CHOICES",
    "CATALOG",
    "KEYDIST_CHOICES",
    "SCENARIO_NAMES",
    "TRACE_ARTIFACT",
    "ScenarioSpec",
    "ScenarioTrace",
    "TraceEvent",
    "baseline_path",
    "generate_trace",
    "get_scenario",
    "load_trace",
    "trace_digest",
    "trace_path",
    "write_trace",
]
