"""Tests for the wasted-cycle-minimising scheduler."""

import hashlib
import json

import pytest

import repro.serve.bench as serve_bench
from repro.api import BenchSpec, ServeSpec
from repro.core import ZcConfig, wasted_cycles
from repro.core.backend import ZcSwitchlessBackend
from repro.sgx import Enclave, UntrustedRuntime
from repro.sim import Compute, Kernel, MachineSpec, Sleep
from repro.telemetry import EventBus


class TestWastedCyclesModel:
    def test_formula_matches_paper(self):
        # U = F * T_es + M * T
        assert wasted_cycles(10, 13_500, 2, 1_000_000) == 10 * 13_500 + 2_000_000

    def test_zero_everything(self):
        assert wasted_cycles(0, 13_500, 0, 0) == 0

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            wasted_cycles(-1, 13_500, 0, 0)
        with pytest.raises(ValueError):
            wasted_cycles(0, 13_500, -1, 0)

    def test_worker_worthwhile_only_above_fallback_rate(self):
        """A worker pays off only when the fallbacks it absorbs would waste
        more than one dedicated CPU: F > window/T_es fallbacks."""
        window = 380_000.0  # one micro-quantum at 3.8 GHz
        t_es = 13_500.0
        breakeven = window / t_es  # ~28 calls
        below = wasted_cycles(int(breakeven) - 5, t_es, 0, window)
        above = wasted_cycles(0, t_es, 1, window)
        assert below < above  # too few fallbacks: 0 workers wins
        busy = wasted_cycles(int(breakeven) * 3, t_es, 0, window)
        assert busy > above  # heavy fallback load: 1 worker wins


def build_system(config, spec=None):
    kernel = Kernel(spec or MachineSpec(n_cores=4, smt=2))
    kernel.bus = EventBus(clock=lambda: kernel.now, max_events=0)
    urts = UntrustedRuntime()
    enclave = Enclave(kernel, urts)
    backend = ZcSwitchlessBackend(config)
    enclave.set_backend(backend)
    return kernel, urts, enclave, backend


def recorded_decisions(kernel):
    """The scheduler's ``(t, [U_0..U_k], M')`` decisions, read off the bus."""
    return [
        (event.t_cycles, event.fields["utilities"], event.fields["chosen"])
        for event in kernel.bus.events_named("zc.sched.decision")
    ]


def busy_caller(kernel, enclave, stop_at_cycles, enclave_work=2_000.0):
    """An app thread issuing short ocalls back-to-back until a deadline."""

    def program():
        while kernel.now < stop_at_cycles:
            yield Compute(enclave_work, tag="app-work")
            yield from enclave.ocall("f")

    return program()


class TestSchedulerAdaptation:
    # A shorter quantum keeps these integration tests fast; the ratio
    # quantum/micro-quantum stays the paper's 100x.
    CONFIG = ZcConfig(quantum_seconds=0.002, enable_scheduler=True)

    def test_idle_application_converges_to_zero_workers(self):
        kernel, urts, enclave, backend = build_system(self.CONFIG)
        horizon = kernel.cycles(0.02)
        kernel.run(until_time=horizon)
        assert backend.scheduler is not None
        decisions = [m for _, _, m in recorded_decisions(kernel)]
        assert decisions, "scheduler never decided"
        # With no ocall traffic, every F_i is 0 and i=0 minimises U.
        assert all(m == 0 for m in decisions)

    def test_busy_callers_get_workers(self):
        kernel, urts, enclave, backend = build_system(self.CONFIG)

        def handler():
            yield Compute(800, tag="host-f")
            return None

        urts.register("f", handler)
        horizon = kernel.cycles(0.03)
        apps = [
            kernel.spawn(busy_caller(kernel, enclave, horizon), name=f"app{i}")
            for i in range(2)
        ]
        kernel.join(*apps)
        decisions = [m for _, _, m in recorded_decisions(kernel)]
        assert decisions
        # Two hot callers: the steady-state decision is >= 1 worker (the
        # paper reports 2 workers for 84.4% of its two-thread benchmark).
        steady = decisions[1:]
        assert sum(m >= 1 for m in steady) > len(steady) * 0.8
        # And most calls executed switchlessly.
        assert backend.stats.switchless_fraction() > 0.8

    def test_paper_formula_policy_is_worker_averse(self):
        """Ablation: the verbatim U_i = F_i*T_es + i*u*Q formula prices a
        worker at a full micro-quantum, which two callers' fallbacks can
        rarely outweigh — the strict-formula scheduler therefore converges
        to ~0 workers where IDLE_WASTE keeps 2."""
        from repro.core import SchedulerPolicy

        config = ZcConfig(
            quantum_seconds=0.002,
            enable_scheduler=True,
            policy=SchedulerPolicy.PAPER_FORMULA,
        )
        kernel, urts, enclave, backend = build_system(config)

        def handler():
            yield Compute(800, tag="host-f")
            return None

        urts.register("f", handler)
        horizon = kernel.cycles(0.03)
        apps = [
            kernel.spawn(busy_caller(kernel, enclave, horizon), name=f"app{i}")
            for i in range(2)
        ]
        kernel.join(*apps)
        decisions = [m for _, _, m in recorded_decisions(kernel)]
        assert decisions
        steady = decisions[1:]
        assert sum(m == 0 for m in steady) > len(steady) / 2

    def test_workers_released_when_load_stops(self):
        kernel, urts, enclave, backend = build_system(self.CONFIG)

        def handler():
            yield Compute(800, tag="host-f")
            return None

        urts.register("f", handler)
        burst_end = kernel.cycles(0.015)
        apps = [
            kernel.spawn(busy_caller(kernel, enclave, burst_end), name=f"app{i}")
            for i in range(2)
        ]
        kernel.join(*apps)
        kernel.run(until_time=kernel.now + kernel.cycles(0.02))
        decisions = recorded_decisions(kernel)
        # Final decisions (after the burst) must be back at 0 workers.
        assert decisions[-1][2] == 0

    def test_decisions_record_probe_utilities(self):
        kernel, urts, enclave, backend = build_system(self.CONFIG)
        kernel.run(until_time=kernel.cycles(0.01))
        _, utilities, chosen = recorded_decisions(kernel)[0]
        # N/2 + 1 probes on a 8-logical-CPU machine: i in 0..4.
        assert len(utilities) == 5
        assert utilities[chosen] == min(utilities)

    def test_histogram_tracks_lifetime_fractions(self):
        kernel, urts, enclave, backend = build_system(self.CONFIG)
        horizon = kernel.cycles(0.02)
        kernel.run(until_time=horizon)
        histogram = backend.stats.worker_count_histogram(kernel.now)
        assert histogram
        assert sum(histogram.values()) == pytest.approx(1.0)
        # Idle run: the dominant state is 0 workers.
        assert histogram.get(0, 0.0) > 0.5

    def test_scheduler_cpu_cost_is_negligible(self):
        kernel, urts, enclave, backend = build_system(self.CONFIG)
        kernel.run(until_time=kernel.cycles(0.02))
        sched_thread = backend.scheduler_thread
        assert sched_thread is not None
        assert sched_thread.cpu_cycles < 0.01 * kernel.now

    def test_phase_structure_matches_fig5(self):
        """Decisions land one scheduler period apart: the initial quantum,
        then (N/2+1 micro-quanta + decision + quantum) per cycle."""
        kernel, urts, enclave, backend = build_system(self.CONFIG)
        kernel.run(until_time=kernel.cycles(0.05))
        decisions = recorded_decisions(kernel)
        assert len(decisions) >= 3
        times = [t for t, _, _ in decisions]
        quantum = self.CONFIG.quantum_cycles(kernel.spec)
        micro = self.CONFIG.micro_quantum_cycles(kernel.spec)
        n_probes = kernel.spec.n_logical // 2 + 1
        expected_first = quantum + n_probes * micro + self.CONFIG.decision_cycles
        assert times[0] == pytest.approx(expected_first, rel=0.01)
        period = quantum + n_probes * micro + self.CONFIG.decision_cycles
        gaps = [b - a for a, b in zip(times, times[1:])]
        for gap in gaps:
            assert gap == pytest.approx(period, rel=0.01)

    def test_many_callers_one_worker_is_consistent(self):
        """Reservation atomicity under pressure: every call is exactly one
        of switchless or fallback, and the worker executed exactly the
        switchless ones."""
        config = ZcConfig(enable_scheduler=False, max_workers=1, initial_workers=1)
        kernel, urts, enclave, backend = build_system(config)

        def handler():
            yield Compute(900, tag="host-f")
            return None

        urts.register("f", handler)

        def caller():
            for _ in range(40):
                yield from enclave.ocall("f")

        threads = [kernel.spawn(caller(), name=f"c{i}") for i in range(6)]
        kernel.join(*threads)
        stats = backend.stats
        assert stats.switchless_count + stats.fallback_count == 240
        assert backend.workers[0].tasks_executed == stats.switchless_count
        assert enclave.stats.total_calls == 240


def decision_digest(bus):
    """``(decisions, probes, sha256)`` over every §IV-A decision and probe.

    The digest covers each ``zc.sched.decision``'s ``(source, utilities,
    chosen)`` and each ``zc.sched.probe``'s ``u_cycles``, in emit order,
    with floats at full precision.
    """
    decisions = [
        [event.fields["source"], event.fields["utilities"], event.fields["chosen"]]
        for event in bus.events_named("zc.sched.decision")
    ]
    probes = [event.fields["u_cycles"] for event in bus.events_named("zc.sched.probe")]
    blob = json.dumps([decisions, probes]).encode()
    return len(decisions), len(probes), hashlib.sha256(blob).hexdigest()


class TestPinnedDecisions:
    """The worker-count argmin, pinned exactly on lean kernel accounting.

    Each kernel carries a bare :class:`EventBus` and no ledger or trace,
    so it runs the lean accounting bodies while the scheduler publishes
    its decisions.  ``IDLE_WASTE`` prices every probe by the workers'
    measured busy-wait, so these pins hold the idle-spin read (and the
    cycle sums beneath it) to the values recorded before that read
    stopped crediting the whole machine.
    """

    def test_sharded_serve_run_under_a_worker_budget(self, monkeypatch):
        kernels = []

        def kernel_with_bus(machine):
            kernel = Kernel(machine)
            kernel.bus = EventBus(clock=lambda: kernel.now, max_events=0)
            kernels.append(kernel)
            return kernel

        monkeypatch.setattr(serve_bench, "Kernel", kernel_with_bus)
        mix = (("kv", 5.0), ("session", 4.0), ("crypto", 1.0))
        serve_bench.run_bench(
            BenchSpec(
                serve=ServeSpec(shards=3, budget=12, apps=mix, servers_per_shard=4),
                seconds=0.02,
                rate=150_000.0,
            ),
            telemetry=False,
        )
        (kernel,) = kernels
        assert kernel.ledger is None and kernel.trace is None
        assert decision_digest(kernel.bus) == (
            24,
            408,
            "069d2abdd604b077012c7a782cc27ede2bda6ef709a39226e0e620ba9c3fc5db",
        )

    def test_single_enclave_run(self):
        kernel, urts, enclave, backend = build_system(
            ZcConfig(quantum_seconds=0.002, enable_scheduler=True)
        )

        def handler():
            yield Compute(800, tag="host-f")

        urts.register("f", handler)
        horizon = kernel.cycles(0.02)
        apps = [
            kernel.spawn(busy_caller(kernel, enclave, horizon, work), name=f"app{i}")
            for i, work in enumerate((5_000.0, 20_000.0, 45_000.0))
        ]
        kernel.join(*apps)
        assert kernel.ledger is None and kernel.trace is None
        assert decision_digest(kernel.bus) == (
            9,
            45,
            "25ca15154ce781b8d3f58778c49a8c9405eaa8260aa7956d9a1772da81943a5c",
        )
