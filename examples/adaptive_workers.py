#!/usr/bin/env python
"""Watch the ZC scheduler adapt the worker pool to a changing load.

Drives a square-wave workload (bursts of hot ocalls separated by idle
gaps) and prints the scheduler's worker-count decisions and the fraction
of the program's lifetime spent at each count — the §V-B analysis the
paper reports as "0,1,2,3,4 workers for x% of the lifetime".

Run:  python examples/adaptive_workers.py
"""

from repro.api import Runtime
from repro.profiler import CallTracer
from repro.profiler.timeline import bucket_events, render_timeline
from repro.sim import Compute, Sleep
from repro.telemetry import EventBus

BURST_S = 0.03
GAP_S = 0.03
BURSTS = 3


def main():
    with Runtime.create("zc") as rt:
        kernel, enclave, backend = rt.kernel, rt.enclave, rt.backend
        # The scheduler records each decision as a zc.sched.decision event.
        kernel.bus = EventBus(clock=lambda: kernel.now)
        tracer = CallTracer().install(enclave)

        def caller():
            fd = yield from enclave.ocall("open", "/dev/null", "w")
            for _ in range(BURSTS):
                burst_end = kernel.now + kernel.cycles(BURST_S)
                while kernel.now < burst_end:
                    yield Compute(1_000, tag="app-work")
                    yield from enclave.ocall("write", fd, bytes(8), in_bytes=8)
                yield Sleep(kernel.cycles(GAP_S))
            yield from enclave.ocall("close", fd)

        threads = [kernel.spawn(caller(), name=f"app-{i}") for i in range(2)]
        kernel.join(*threads)

        print("scheduler decisions (time ms -> active workers):")
        assert backend.scheduler is not None
        for decision in kernel.bus.events_named("zc.sched.decision"):
            print(
                f"  {kernel.seconds(decision.t_cycles) * 1e3:7.1f} ms -> "
                f"{decision.fields['chosen']} workers"
            )

        print("\nlifetime share per worker count (paper §V-B style):")
        for count, frac in backend.stats.worker_count_histogram(kernel.now).items():
            print(f"  {count} workers: {frac * 100:5.1f}%")

        stats = backend.stats
        print(
            f"\ncalls: {stats.total_calls}  switchless: {stats.switchless_count} "
            f"({stats.switchless_fraction() * 100:.1f}%)  fallbacks: {stats.fallback_count}"
        )

        print("\ntraced timeline (the square wave, as the profiler sees it):")
        buckets = bucket_events(
            tracer.events, interval_cycles=kernel.cycles(0.004), t_end_cycles=kernel.now
        )
        print(render_timeline(buckets, kernel.spec.freq_hz))


if __name__ == "__main__":
    main()
