#!/usr/bin/env python
"""Quickstart: run ocalls through ZC-SWITCHLESS on a simulated SGX machine.

Builds the full stack — machine, host OS, enclave, backend — with one
``Runtime.create`` call, then issues the same ocalls under the regular
(always-transition) path and under ZC-SWITCHLESS, and prints the latency
difference and call statistics.

Run:  python examples/quickstart.py
"""

from repro.api import Runtime


def workload(rt, n_ops=2000):
    """Two enclave threads, each writing one word to /dev/null n_ops times."""

    def program():
        fd = yield from rt.enclave.ocall("open", "/dev/null", "w")
        for _ in range(n_ops):
            yield from rt.enclave.ocall("write", fd, bytes(8), in_bytes=8)
        yield from rt.enclave.ocall("close", fd)

    # Two concurrent enclave threads, as in the paper's benchmarks.
    rt.join(*[rt.spawn(program(), name=f"app-{i}") for i in range(2)])
    return rt.kernel.seconds(rt.kernel.now)


def main():
    for label, backend in (("regular ocalls (no_sl)", "baseline"), ("ZC-SWITCHLESS", "zc")):
        # One simulated machine (4 cores / 8 threads @ 3.8 GHz) with a
        # POSIX host and a single enclave; closing it stops the backend.
        with Runtime.create(backend) as rt:
            elapsed = workload(rt)
            stats = rt.enclave.stats
            write_stats = stats.by_name["write"]
            print(f"{label}:")
            print(f"  elapsed            : {elapsed * 1e3:8.2f} ms (simulated)")
            print(f"  mean write latency : {write_stats.mean_latency_cycles:8.0f} cycles")
            print(
                f"  calls              : {stats.total_calls} "
                f"(switchless={stats.total_switchless}, "
                f"fallback={stats.total_fallback}, regular={stats.total_regular})"
            )
        print()


if __name__ == "__main__":
    main()
