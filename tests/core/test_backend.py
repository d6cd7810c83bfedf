"""Integration tests for the ZC-SWITCHLESS backend."""

import pytest

from repro.core import ZcConfig
from repro.core.backend import ZcSwitchlessBackend
from repro.core.ecalls import ZcEcallRuntime
from repro.sgx import Enclave, UntrustedRuntime, VanillaMemcpy, ZcMemcpy
from repro.sim import Compute, Kernel, MachineSpec


def build(config=None, n_cores=4, smt=2):
    kernel = Kernel(MachineSpec(n_cores=n_cores, smt=smt))
    urts = UntrustedRuntime()
    enclave = Enclave(kernel, urts)
    backend = ZcSwitchlessBackend(config or ZcConfig(enable_scheduler=False))
    enclave.set_backend(backend)
    return kernel, urts, enclave, backend


def work_handler(duration):
    def handler(value=None):
        yield Compute(duration, tag="host-work")
        return value

    return handler


class TestZcCallPath:
    def test_any_ocall_runs_switchless_without_selection(self):
        """No static selection: a never-before-seen ocall name goes
        switchless if a worker is idle."""
        kernel, urts, enclave, backend = build()
        urts.register("anything", work_handler(1000))

        def app():
            result = yield from enclave.ocall("anything", "x")
            return result

        t = kernel.spawn(app())
        kernel.join(t)
        assert t.result == "x"
        assert backend.stats.switchless_count == 1
        assert backend.stats.fallback_count == 0

    def test_switchless_latency_well_below_regular(self):
        kernel, urts, enclave, backend = build()
        urts.register("f", work_handler(1000))

        def app():
            yield from enclave.ocall("f")

        kernel.join(kernel.spawn(app()))
        site = enclave.stats.by_name["f"]
        assert site.mean_latency_cycles < 4000  # vs ~14,800 regular

    def test_no_idle_worker_falls_back_immediately(self):
        """§IV-C: zero busy-wait on fallback — the caller's spin cycles
        stay bounded by the in-flight switchless waits, never by an
        rbf-style retry loop."""
        config = ZcConfig(enable_scheduler=False, max_workers=1, initial_workers=1)
        kernel, urts, enclave, backend = build(config, n_cores=8, smt=1)
        urts.register("f", work_handler(200_000))

        def app():
            yield from enclave.ocall("f")

        a = kernel.spawn(app())
        b = kernel.spawn(app())
        kernel.join(a, b)
        assert backend.stats.fallback_count == 1
        assert backend.stats.switchless_count == 1
        # The falling-back caller did not spin at all: it went straight to
        # the regular path (total ~= transition + work).
        fallback_caller = min((a, b), key=lambda t: t.cycles_by["spin"])
        assert fallback_caller.cycles_by["spin"] == 0

    def test_all_workers_paused_means_all_fallback(self):
        config = ZcConfig(enable_scheduler=False, initial_workers=0)
        kernel, urts, enclave, backend = build(config)
        urts.register("f", work_handler(100))

        def app():
            for _ in range(5):
                yield from enclave.ocall("f")

        kernel.join(kernel.spawn(app()))
        assert backend.stats.fallback_count == 5
        assert backend.stats.switchless_count == 0

    def test_installs_zc_memcpy_by_default(self):
        kernel, urts, enclave, backend = build()
        assert isinstance(enclave.memcpy_model, ZcMemcpy)

    def test_can_keep_vanilla_memcpy_for_ablation(self):
        config = ZcConfig(enable_scheduler=False, use_zc_memcpy=False)
        kernel, urts, enclave, backend = build(config)
        assert isinstance(enclave.memcpy_model, VanillaMemcpy)

    def test_worker_cap_defaults_to_half_logical_cpus(self):
        kernel, urts, enclave, backend = build(n_cores=4, smt=2)
        assert len(backend.workers) == 4  # 8 logical / 2

    def test_concurrent_callers_use_distinct_workers(self):
        config = ZcConfig(enable_scheduler=False)
        kernel, urts, enclave, backend = build(config, n_cores=8, smt=1)
        urts.register("f", work_handler(100_000))

        def app():
            yield from enclave.ocall("f")

        threads = [kernel.spawn(app()) for _ in range(3)]
        kernel.join(*threads)
        assert backend.stats.switchless_count == 3
        executed = [w.tasks_executed for w in backend.workers]
        assert sum(executed) == 3
        assert max(executed) == 1  # all three ran in parallel

    def test_stop_terminates_workers_and_scheduler(self):
        config = ZcConfig(enable_scheduler=True)
        kernel, urts, enclave, backend = build(config)
        kernel.run(until_time=1_000_000)
        backend.stop()
        kernel.run()
        assert all(t.done for t in backend.worker_threads)
        assert backend.scheduler_thread is not None
        assert backend.scheduler_thread.done


class TestMemoryPoolIntegration:
    def test_pool_exhaustion_triggers_realloc_ocall(self):
        config = ZcConfig(
            enable_scheduler=False,
            pool_capacity_bytes=256,
            request_header_bytes=64,
            max_workers=1,
            initial_workers=1,
        )
        kernel, urts, enclave, backend = build(config)
        urts.register("f", work_handler(100))

        def app():
            for _ in range(10):  # 10 * 64B headers > 256B pool
                yield from enclave.ocall("f")

        kernel.join(kernel.spawn(app()))
        assert backend.stats.pool_reallocs >= 2
        # The realloc shows up as regular ocalls (the Fig. 8 spikes).
        assert enclave.stats.by_name["zc_pool_realloc"].regular >= 2

    def test_oversized_request_still_served(self):
        """A request frame larger than the whole pool gets a dedicated
        pool generation (realloc, then admit) instead of failing."""
        config = ZcConfig(
            enable_scheduler=False,
            pool_capacity_bytes=1024,
            max_workers=1,
            initial_workers=1,
        )
        kernel, urts, enclave, backend = build(config)
        urts.register("big", work_handler(100))

        def app():
            # 64 kB in_bytes >> the 1 kB pool, twice in a row.
            yield from enclave.ocall("big", in_bytes=64 * 1024)
            result = yield from enclave.ocall("big", "ok", in_bytes=64 * 1024)
            return result

        t = kernel.spawn(app())
        kernel.join(t)
        assert t.result == "ok"
        assert backend.stats.switchless_count == 2
        assert backend.stats.pool_reallocs >= 1

    def test_realloc_spikes_latency(self):
        config = ZcConfig(
            enable_scheduler=False,
            pool_capacity_bytes=256,
            request_header_bytes=64,
            max_workers=1,
            initial_workers=1,
        )
        kernel, urts, enclave, backend = build(config)
        urts.register("f", work_handler(100))
        latencies = []

        def app():
            for _ in range(8):
                t0 = kernel.now
                yield from enclave.ocall("f")
                latencies.append(kernel.now - t0)

        kernel.join(kernel.spawn(app()))
        # Calls that triggered a realloc cost a full extra transition.
        assert max(latencies) > min(latencies) + enclave.cost.t_es


class TestSetActiveWorkers:
    def test_scaling_down_pauses_idle_workers(self):
        config = ZcConfig(enable_scheduler=False)
        kernel, urts, enclave, backend = build(config)
        kernel.run(until_time=100_000)
        backend.set_active_workers(1)
        kernel.run(until_time=kernel.now + 1_000_000)
        paused = [w for w in backend.workers if w.is_paused]
        assert len(paused) == len(backend.workers) - 1

    def test_scaling_up_wakes_paused_workers(self):
        config = ZcConfig(enable_scheduler=False, initial_workers=0)
        kernel, urts, enclave, backend = build(config)
        kernel.run(until_time=1_000_000)
        assert all(w.is_paused for w in backend.workers)
        backend.set_active_workers(2)
        kernel.run(until_time=kernel.now + 1_000_000)
        active = [w for w in backend.workers if w.active]
        assert len(active) == 2

    def test_timeline_recorded(self):
        config = ZcConfig(enable_scheduler=False)
        kernel, urts, enclave, backend = build(config)
        backend.set_active_workers(2)
        backend.set_active_workers(0)
        counts = [count for _, count in backend.stats.worker_count_timeline]
        assert counts == [4, 2, 0]


class TestIdleSpinRead:
    """The scheduler's idle-spin read prices a probe and changes nothing."""

    @staticmethod
    def accounting(kernel):
        """Every accounting field a flush would write, per core and thread."""
        cores = [(cpu.busy_cycles, cpu._acc_kind, cpu._acc_cycles) for cpu in kernel.cpus]
        activities = [
            None if cpu.activity is None else (cpu.activity.work_done, cpu.activity.last_update)
            for cpu in kernel.cpus
        ]
        threads = [
            (t.cpu_cycles, t.cycles_compute, t.cycles_spin) for t in kernel.threads
        ]
        return cores, activities, threads

    @pytest.mark.parametrize("calls", ["ocalls", "ecalls"])
    def test_read_mutates_nothing_and_equals_a_flushed_sum(self, calls):
        config = ZcConfig(enable_scheduler=False)
        kernel = Kernel(MachineSpec(n_cores=4, smt=2))
        enclave = Enclave(kernel, UntrustedRuntime())
        if calls == "ocalls":
            runtime = ZcSwitchlessBackend(config)
            enclave.set_backend(runtime)
        else:
            runtime = ZcEcallRuntime(config).attach(enclave)

        def app():
            yield Compute(50_000_000, tag="app-work")

        kernel.spawn(app(), name="app")
        kernel.run(until_time=1_234_567.5)
        in_flight = {
            cpu.activity.kind
            for cpu in kernel.cpus
            if cpu.activity is not None and cpu.activity.last_update < kernel.now
        }
        assert in_flight == {"compute", "spin"}

        before = self.accounting(kernel)
        value = runtime.worker_idle_spin_cycles()
        assert self.accounting(kernel) == before
        kernel.flush_accounting()
        assert value == sum(t.cycles_spin for t in runtime.worker_threads)
        assert value > 0.0
