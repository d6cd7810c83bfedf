#!/usr/bin/env python
"""A secure counter service: switchless in *both* call directions.

Untrusted request handlers **ecall** into the enclave to increment sealed
counters; the enclave periodically persists its state with fwrite
**ocalls**.  Both directions run configless through ZC-SWITCHLESS
(`Runtime.create("zc")` for ocalls, `ZcEcallRuntime` for ecalls — §IV-D's
symmetry made concrete), and the comparison against full transitions
shows the benefit on a realistic request/response service.

Run:  python examples/secure_counter_service.py
"""

from repro.api import Runtime
from repro.core import ZcConfig, ZcEcallRuntime
from repro.sim import Compute

N_REQUESTS = 4_000
N_HOST_THREADS = 2
PERSIST_EVERY = 256
#: Shorter scheduler quantum than the paper's 10 ms default so both
#: schedulers reach steady state within this short demo run.
ZC_CONFIG = ZcConfig(quantum_seconds=0.002)


class CounterEnclave:
    """The trusted side: sealed counters + periodic persistence."""

    def __init__(self, enclave):
        self.enclave = enclave
        self.counters = {}
        self.updates_since_persist = 0
        self.persists = 0
        enclave.trts.register("increment", self.increment)

    def increment(self, counter_id: int):
        """Trusted handler: bump a counter, persisting periodically."""
        yield Compute(900, tag="seal-update")  # MAC over the counter record
        value = self.counters.get(counter_id, 0) + 1
        self.counters[counter_id] = value
        self.updates_since_persist += 1
        if self.updates_since_persist >= PERSIST_EVERY:
            self.updates_since_persist = 0
            self.persists += 1
            blob = b"".join(
                key.to_bytes(4, "big") + val.to_bytes(8, "big")
                for key, val in sorted(self.counters.items())
            )
            fd = yield from self.enclave.ocall("fopen", "/counters.sealed", "w")
            yield from self.enclave.ocall("fwrite", fd, blob, in_bytes=len(blob))
            yield from self.enclave.ocall("fclose", fd)
        return value


def run(mode: str) -> float:
    with Runtime.create(mode, ZC_CONFIG if mode == "zc" else None) as rt:
        kernel, enclave = rt.kernel, rt.enclave
        if mode == "zc":
            ZcEcallRuntime(ZC_CONFIG).attach(enclave)
        service = CounterEnclave(enclave)

        def host_worker(index: int):
            """An untrusted request-handling thread."""
            for i in range(N_REQUESTS // N_HOST_THREADS):
                counter_id = (index * 7 + i) % 16
                yield Compute(1_500, tag="request-parse")
                yield from enclave.ecall_named("increment", counter_id, in_bytes=4, out_bytes=8)

        threads = [
            kernel.spawn(host_worker(i), name=f"host-{i}") for i in range(N_HOST_THREADS)
        ]
        kernel.join(*threads)
        elapsed_ms = kernel.seconds(kernel.now) * 1e3
        total = sum(service.counters.values())
        assert total == N_REQUESTS, f"lost updates: {total} != {N_REQUESTS}"
        switchless_ecalls = enclave.ecall_stats.total_switchless
        print(
            f"{mode:>8}: {N_REQUESTS} increments in {elapsed_ms:7.2f} ms "
            f"({elapsed_ms * 1e6 / N_REQUESTS:6.0f} ns/req, "
            f"{switchless_ecalls} switchless ecalls, "
            f"{service.persists} persists via ocalls)"
        )
    return elapsed_ms


def main():
    print(
        f"secure counter service: {N_HOST_THREADS} host threads, "
        f"{N_REQUESTS} increment requests\n"
    )
    regular = run("regular")
    zc = run("zc")
    print(f"\nzc (both directions switchless) is {regular / zc:.2f}x faster")


if __name__ == "__main__":
    main()
