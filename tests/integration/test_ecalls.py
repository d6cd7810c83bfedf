"""Tests for switchless ecalls (the reverse call direction).

The paper focuses its evaluation on ocalls but notes the techniques
"can equally be used for ecalls" (§II); the SDK supports both.  These
tests cover regular named ecalls, Intel switchless ecalls via trusted
workers, and the ZC ecall runtime.
"""

import pytest

from repro.core import ZcConfig, ZcEcallRuntime
from repro.sgx import Enclave, UntrustedRuntime
from repro.sim import Compute, Kernel, MachineSpec
from repro.api import make_backend
from repro.switchless import SwitchlessConfig
from repro.telemetry import EventBus


def build():
    kernel = Kernel(MachineSpec(n_cores=4, smt=2))
    urts = UntrustedRuntime()
    enclave = Enclave(kernel, urts)

    def seal(data: bytes):
        yield Compute(2_000, tag="enclave-seal")
        return bytes(b ^ 0xFF for b in data)

    def get_counter():
        yield Compute(300, tag="enclave-counter")
        return 42

    enclave.trts.register_many({"seal": seal, "get_counter": get_counter})
    return kernel, enclave


class TestRegularEcalls:
    def test_named_ecall_round_trip(self):
        kernel, enclave = build()

        def host_app():
            sealed = yield from enclave.ecall_named("seal", b"\x00\x01", in_bytes=2, out_bytes=2)
            return sealed

        t = kernel.spawn(host_app())
        kernel.join(t)
        assert t.result == b"\xff\xfe"
        site = enclave.ecall_stats.by_name["seal"]
        assert site.regular == 1
        # Regular ecall pays the full transition.
        assert site.mean_latency_cycles > enclave.cost.t_es

    def test_unknown_ecall_raises_on_caller(self):
        from repro.sgx.trts import UnknownEcallError

        kernel, enclave = build()

        def host_app():
            yield from enclave.ecall_named("nope")

        kernel.spawn(host_app())
        with pytest.raises(UnknownEcallError):
            kernel.run()

    def test_ecall_fault_propagates(self):
        kernel, enclave = build()

        def bad():
            yield Compute(10)
            raise ValueError("enclave abort")

        enclave.trts.register("bad", bad)
        caught = []

        def host_app():
            try:
                yield from enclave.ecall_named("bad")
            except ValueError as exc:
                caught.append(str(exc))

        kernel.join(kernel.spawn(host_app()))
        assert caught == ["enclave abort"]


class TestIntelSwitchlessEcalls:
    def test_switchless_ecall_avoids_transition(self):
        kernel, enclave = build()
        backend = make_backend("intel",
            SwitchlessConfig(
                switchless_ecalls=frozenset({"get_counter"}), num_tworkers=1
            )
        )
        enclave.set_backend(backend)

        def host_app():
            value = yield from enclave.ecall_named("get_counter")
            return value

        t = kernel.spawn(host_app())
        kernel.join(t)
        assert t.result == 42
        assert backend.ecall_switchless_count == 1
        site = enclave.ecall_stats.by_name["get_counter"]
        assert site.switchless == 1
        assert site.mean_latency_cycles < 4_000

    def test_unselected_ecall_transitions(self):
        kernel, enclave = build()
        backend = make_backend("intel",
            SwitchlessConfig(switchless_ecalls=frozenset({"get_counter"}))
        )
        enclave.set_backend(backend)

        def host_app():
            yield from enclave.ecall_named("seal", b"z", in_bytes=1, out_bytes=1)

        kernel.join(kernel.spawn(host_app()))
        assert enclave.ecall_stats.by_name["seal"].regular == 1

    def test_trusted_worker_executes_on_own_thread(self):
        kernel, enclave = build()
        backend = make_backend("intel",
            SwitchlessConfig(switchless_ecalls=frozenset({"seal"}), num_tworkers=1)
        )
        enclave.set_backend(backend)

        def host_app():
            yield from enclave.ecall_named("seal", b"abc", in_bytes=3, out_bytes=3)

        kernel.join(kernel.spawn(host_app()))
        kernel.flush_accounting()
        tworker = backend.tworker_threads[0]
        assert tworker.cycles_by.get("compute", 0) >= 2_000

    def test_no_tworkers_without_switchless_ecalls(self):
        kernel, enclave = build()
        backend = make_backend("intel",
            SwitchlessConfig(switchless_ocalls=frozenset({"f"}))
        )
        enclave.set_backend(backend)
        assert backend.tworker_threads == []
        assert enclave.ecall_dispatcher is None


class TestBothDirectionsTogether:
    def test_intel_serves_ocalls_and_ecalls_simultaneously(self):
        """One backend instance: untrusted workers for ocalls, trusted
        workers for ecalls, both switchless, concurrently."""
        kernel, enclave = build()

        def host_log(message):
            yield Compute(400, tag="host-log")
            return len(message)

        enclave.urts.register("log", host_log)
        backend = make_backend("intel",
            SwitchlessConfig(
                switchless_ocalls=frozenset({"log"}),
                switchless_ecalls=frozenset({"get_counter"}),
                num_uworkers=1,
                num_tworkers=1,
            )
        )
        enclave.set_backend(backend)

        def enclave_thread():
            # Runs inside the enclave: makes ocalls.
            total = 0
            for _ in range(20):
                total += yield from enclave.ocall("log", "event", in_bytes=5)
            return total

        def host_thread():
            # Runs outside: makes ecalls.
            total = 0
            for _ in range(20):
                total += yield from enclave.ecall_named("get_counter")
            return total

        t_enclave = kernel.spawn(enclave_thread(), name="enclave-side")
        t_host = kernel.spawn(host_thread(), name="host-side")
        kernel.join(t_enclave, t_host)
        assert t_enclave.result == 100
        assert t_host.result == 20 * 42
        assert backend.switchless_count == 20
        assert backend.ecall_switchless_count == 20


class TestZcEcalls:
    def test_any_ecall_runs_switchless(self):
        kernel, enclave = build()
        runtime = ZcEcallRuntime(ZcConfig(enable_scheduler=False)).attach(enclave)

        def host_app():
            value = yield from enclave.ecall_named("get_counter")
            sealed = yield from enclave.ecall_named("seal", b"\x0f", in_bytes=1, out_bytes=1)
            return value, sealed

        t = kernel.spawn(host_app())
        kernel.join(t)
        assert t.result == (42, b"\xf0")
        assert runtime.stats.switchless_count == 2
        assert runtime.stats.fallback_count == 0

    def test_fallback_when_all_tworkers_busy(self):
        kernel, enclave = build()
        runtime = ZcEcallRuntime(
            ZcConfig(enable_scheduler=False, max_workers=1, initial_workers=1)
        ).attach(enclave)

        def slow():
            yield Compute(500_000)
            return None

        enclave.trts.register("slow", slow)

        def host_app():
            yield from enclave.ecall_named("slow")

        a = kernel.spawn(host_app())
        b = kernel.spawn(host_app())
        kernel.join(a, b)
        assert runtime.stats.fallback_count == 1
        assert runtime.stats.switchless_count == 1

    def test_scheduler_releases_trusted_workers_when_idle(self):
        kernel, enclave = build()
        kernel.bus = EventBus(clock=lambda: kernel.now)
        runtime = ZcEcallRuntime(ZcConfig(quantum_seconds=0.002)).attach(enclave)
        kernel.run(until_time=kernel.cycles(0.02))
        assert runtime.scheduler is not None
        decisions = [e.fields["chosen"] for e in kernel.bus.events_named("zc.sched.decision")]
        assert decisions and all(m == 0 for m in decisions)

    def test_pool_recycle_stays_inside_enclave(self):
        """Trusted pools recycle without an ocall: no entry in the ocall
        stats, unlike the ocall side's reallocation spikes."""
        kernel, enclave = build()
        runtime = ZcEcallRuntime(
            ZcConfig(
                enable_scheduler=False,
                pool_capacity_bytes=256,
                request_header_bytes=64,
                max_workers=1,
                initial_workers=1,
            )
        ).attach(enclave)

        def host_app():
            for _ in range(10):
                yield from enclave.ecall_named("get_counter")

        kernel.join(kernel.spawn(host_app()))
        assert runtime.stats.pool_reallocs >= 2
        assert enclave.stats.total_calls == 0  # no ocalls at all

    def test_stop_terminates_trusted_workers(self):
        kernel, enclave = build()
        runtime = ZcEcallRuntime(ZcConfig()).attach(enclave)
        kernel.run(until_time=1_000_000)
        enclave.stop_backend()
        kernel.run()
        assert all(t.done for t in runtime.worker_threads)
