#!/usr/bin/env python
"""Profile an enclave workload, then generate switchless advice.

The paper's §III-A problem: selecting switchless routines at build time
requires knowing each ocall's frequency and duration, which developers
rarely do.  This example shows the measurement-driven alternative (and
why zc makes even that unnecessary):

1. run the kissdb workload with a CallTracer attached;
2. aggregate the trace into per-ocall profiles;
3. let the SwitchlessAdvisor derive the static Intel configuration;
4. re-run with that configuration and with zc, and compare.

Run:  python examples/profile_and_advise.py
"""

from repro.apps import KissDB
from repro.api import Runtime, SwitchlessConfig
from repro.profiler import CallTracer, SwitchlessAdvisor, build_profiles
from repro.profiler.advisor import format_recommendations
from repro.profiler.profile import format_profiles

N_KEYS = 1200


def kissdb_workload(rt):
    db = KissDB(rt.enclave, "/profiled.db", hash_table_size=128)

    def client():
        yield from db.open()
        for i in range(N_KEYS):
            yield from db.put(i.to_bytes(8, "big"), i.to_bytes(8, "little"))
        yield from db.close()

    rt.run_program(client(), name="client")
    return rt.kernel.seconds(rt.kernel.now) * 1e3


def main():
    # Step 1+2: trace the workload under regular ocalls and profile it.
    with Runtime.create("baseline") as rt:
        tracer = CallTracer().install(rt.enclave)
        baseline_ms = kissdb_workload(rt)
    profiles = build_profiles(tracer.events, tracer.window_cycles())
    print(format_profiles(profiles))
    print()

    # Step 3: derive the static configuration a developer would need.
    advisor = SwitchlessAdvisor(min_rate_per_s=10_000)
    recommendations = advisor.advise(profiles)
    print(format_recommendations(recommendations))
    chosen = advisor.switchless_set(profiles)
    print(f"\nadvised EDL switchless set: {sorted(chosen)}\n")

    # Step 4: measure advised-Intel and configless zc.
    advised = SwitchlessConfig(switchless_ocalls=chosen, num_uworkers=2)
    with Runtime.create("intel", advised) as rt:
        advised_ms = kissdb_workload(rt)

    with Runtime.create("zc") as rt:
        zc_ms = kissdb_workload(rt)

    print(f"baseline (no switchless) : {baseline_ms:7.2f} ms")
    print(f"Intel, advisor-configured: {advised_ms:7.2f} ms")
    print(f"zc, no configuration     : {zc_ms:7.2f} ms")
    print(
        "\nzc reaches advised-Intel performance "
        f"({advised_ms / zc_ms:.2f}x) with zero configuration effort."
    )


if __name__ == "__main__":
    main()
