"""Host-side profiling of the simulator itself (``repro profile meta``).

The figure benches measure *simulated* cycles; this module measures the
*simulator* — which Python functions burn host CPU while the DES kernel
grinds through the meta-bench ocall storm.  It exists because the kernel
overhaul (tuple-entry timers, pre-bound telemetry paths, slotted
accounting) was driven by exactly this profile: the pre-overhaul run
spent its top slot on ``_Timer.__lt__`` — 351,610 calls for a 3,000-ocall
storm — which the tuple-entry timer queue removed outright.

Two products per run:

- a **hot-function table** from :mod:`cProfile` (top functions by
  exclusive host time, with call counts), rendered and embedded in the
  JSON artifact so before/after comparisons are one diff away;
- an optional **Chrome trace** of the same storm's *simulated* schedule
  (:func:`repro.profiler.chrometrace.sched_trace_events`) — open it in
  ``chrome://tracing``/Perfetto to see which simulated threads occupied
  which hyperthreads while the host profile was taken.

The storm mirrors ``benchmarks/bench_meta_simulator.py`` so profile
numbers line up with the committed ``baselines/meta.json`` throughput
gates.
"""

from __future__ import annotations

import cProfile
import io
import pstats
from typing import Any

from repro.telemetry.schema import stamp

#: Default ocall count — matches ``benchmarks/bench_meta_simulator.py``.
DEFAULT_OCALLS = 3_000


def run_storm(
    use_zc: bool = True,
    n_ocalls: int = DEFAULT_OCALLS,
    trace: Any = None,
):
    """The meta-bench ocall storm: two app threads, one enclave.

    Returns the finished kernel (``events_processed``, ``now``,
    ``timer_stats()`` are the interesting bits).
    """
    from repro.api import make_backend
    from repro.core import ZcConfig
    from repro.sgx import Enclave, UntrustedRuntime
    from repro.sim import Compute, Kernel, paper_machine

    kernel = Kernel(paper_machine(), trace=trace)
    urts = UntrustedRuntime()
    enclave = Enclave(kernel, urts)
    if use_zc:
        enclave.set_backend(make_backend("zc", ZcConfig(enable_scheduler=False)))

    def handler():
        yield Compute(500)
        return None

    urts.register("f", handler)

    def app():
        for _ in range(n_ocalls // 2):
            yield from enclave.ocall("f")

    threads = [kernel.spawn(app(), name=f"a{i}") for i in range(2)]
    kernel.join(*threads)
    enclave.stop_backend()
    kernel.run()
    return kernel


def profile_storm(
    use_zc: bool = True,
    n_ocalls: int = DEFAULT_OCALLS,
    top: int = 20,
) -> dict[str, Any]:
    """cProfile one storm; returns the artifact dict (see ``hot`` key).

    ``hot`` rows are sorted by exclusive (``tottime``) host seconds —
    the simulator's own cost, which is what the overhaul targets —
    and carry ``ncalls``/``tottime_s``/``cumtime_s``/``function``.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    kernel = run_storm(use_zc=use_zc, n_ocalls=n_ocalls)
    profiler.disable()

    stats = pstats.Stats(profiler, stream=io.StringIO())
    total_tt = sum(entry[2] for entry in stats.stats.values())
    rows = []
    for (filename, lineno, name), entry in stats.stats.items():
        cc, nc, tt, ct, _callers = entry
        rows.append(
            {
                "function": f"{_short(filename)}:{lineno}({name})",
                "ncalls": nc,
                "tottime_s": tt,
                "cumtime_s": ct,
            }
        )
    rows.sort(key=lambda row: row["tottime_s"], reverse=True)
    return {
        **stamp("meta-profile"),
        "backend": "zc" if use_zc else "regular",
        "n_ocalls": n_ocalls,
        "events_processed": kernel.events_processed,
        "simulated_s": kernel.seconds(kernel.now),
        "host_seconds": total_tt,
        "timer_stats": kernel.timer_stats(),
        "hot": rows[:top],
    }


def export_sched_trace(
    path: str,
    use_zc: bool = True,
    n_ocalls: int = DEFAULT_OCALLS,
    max_entries: int = 200_000,
) -> int:
    """Re-run the storm with a SchedTrace and write a Chrome trace JSON.

    Returns the number of trace events written.  The run is separate from
    the profiled one so tracing overhead never pollutes the hot table.
    """
    from repro.profiler.chrometrace import sched_trace_events
    from repro.sim.kernel import SchedTrace
    from repro.telemetry.exporters import write_chrome_trace

    trace = SchedTrace(max_entries=max_entries)
    kernel = run_storm(use_zc=use_zc, n_ocalls=n_ocalls, trace=trace)
    return write_chrome_trace(
        path, sched_trace_events(trace, freq_hz=kernel.spec.freq_hz)
    )


def render_profile(artifact: dict[str, Any]) -> str:
    """The hot-function table as an aligned text block."""
    lines = [
        f"meta profile: backend {artifact['backend']}, {artifact['n_ocalls']} ocalls",
        f"  {artifact['events_processed']} kernel events, "
        f"{artifact['host_seconds'] * 1e3:.1f} ms host, "
        f"{artifact['simulated_s'] * 1e3:.3f} ms simulated",
        f"  timer queue: {artifact['timer_stats']}",
        "",
        f"{'ncalls':>10}  {'tottime':>9}  {'cumtime':>9}  function",
    ]
    for row in artifact["hot"]:
        lines.append(
            f"{row['ncalls']:>10}  {row['tottime_s'] * 1e3:>7.1f}ms  "
            f"{row['cumtime_s'] * 1e3:>7.1f}ms  {row['function']}"
        )
    return "\n".join(lines)


def _short(filename: str) -> str:
    """Trim a profile filename down to the package-relative part."""
    for marker in ("/repro/", "/benchmarks/"):
        index = filename.rfind(marker)
        if index != -1:
            return filename[index + 1 :]
    return filename.rsplit("/", 1)[-1]
