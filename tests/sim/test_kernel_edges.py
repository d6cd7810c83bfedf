"""Edge-case kernel tests: timers, accounting flushes, queue inspection, join."""

import pytest

from repro.sim import Block, Compute, Kernel, MachineSpec, Sleep, Spin
from repro.sim.errors import DeadlockError, SimulationError
from repro.sim.kernel import ThreadState


class TestCallAt:
    def test_call_at_fires_at_absolute_time(self):
        kernel = Kernel(MachineSpec(n_cores=1, smt=1))
        fired = []
        kernel.call_at(5000, lambda: fired.append(kernel.now))
        kernel.run()
        assert fired == [pytest.approx(5000)]

    def test_call_at_in_the_past_rejected(self):
        kernel = Kernel(MachineSpec(n_cores=1, smt=1))
        kernel.call_at(1000, lambda: None)
        kernel.run()
        with pytest.raises(SimulationError):
            kernel.call_at(10, lambda: None)

    def test_timer_cancellation(self):
        kernel = Kernel(MachineSpec(n_cores=1, smt=1))
        fired = []
        timer = kernel.call_at(100, lambda: fired.append(1))
        timer.cancel()
        kernel.run()
        assert fired == []


class TestAccountingFlush:
    def test_flush_mid_activity(self):
        kernel = Kernel(MachineSpec(n_cores=1, smt=1))

        def program():
            yield Compute(10_000)

        t = kernel.spawn(program())
        kernel.run(until_time=3000)
        kernel.flush_accounting()
        assert t.cpu_cycles == pytest.approx(3000)
        kernel.run()
        assert t.cpu_cycles == pytest.approx(10_000)

    def test_double_flush_is_idempotent(self):
        kernel = Kernel(MachineSpec(n_cores=1, smt=1))

        def program():
            yield Compute(1000)

        kernel.spawn(program())
        kernel.run(until_time=500)
        kernel.flush_accounting()
        kernel.flush_accounting()
        snap = kernel.cpu_snapshot()
        assert snap["busy_total"] == pytest.approx(500)


class TestReadyQueue:
    def test_queue_length_reflects_oversubscription(self):
        kernel = Kernel(MachineSpec(n_cores=1, smt=1, timeslice_cycles=1e9))

        def program():
            yield Compute(1000)

        for _ in range(3):
            kernel.spawn(program())
        kernel.run(until_time=10)  # one running, two queued
        assert kernel.ready_queue_length() == 2


class TestMixedWaits:
    def test_spin_then_block_sequence(self):
        kernel = Kernel(MachineSpec(n_cores=2, smt=1))
        first = kernel.event()
        second = kernel.event()
        log = []

        def waiter():
            hit = yield Spin(first, 1_000)
            log.append(("spin", hit, kernel.now))
            value = yield Block(second)
            log.append(("block", value, kernel.now))

        def firer():
            yield Sleep(500)
            first.fire()
            yield Sleep(500)
            second.fire("done")

        kernel.join(kernel.spawn(waiter()), kernel.spawn(firer()))
        assert log == [
            ("spin", True, pytest.approx(500)),
            ("block", "done", pytest.approx(1000)),
        ]

    def test_many_sequential_spins_accumulate_exactly(self):
        kernel = Kernel(MachineSpec(n_cores=1, smt=1))
        never = kernel.event()

        def program():
            for _ in range(10):
                yield Spin(never, 100)

        t = kernel.spawn(program())
        kernel.join(t)
        assert t.cycles_by["spin"] == pytest.approx(1000)
        assert kernel.now == pytest.approx(1000)


class TestBadPrograms:
    def test_unknown_instruction_rejected(self):
        kernel = Kernel(MachineSpec(n_cores=1, smt=1))

        def program():
            yield "not-an-instruction"

        kernel.spawn(program())
        with pytest.raises(SimulationError):
            kernel.run()

    def test_unknown_instruction_is_named(self):
        kernel = Kernel(MachineSpec(n_cores=1, smt=1))

        def program():
            yield 42

        kernel.spawn(program())
        with pytest.raises(SimulationError, match="unknown instruction yielded: 42$"):
            kernel.run()

    def test_handler_typeerror_surfaces(self):
        """A non-generator 'program' fails loudly at first dispatch."""
        kernel = Kernel(MachineSpec(n_cores=1, smt=1))
        kernel.spawn(42)  # type: ignore[arg-type]
        with pytest.raises(AttributeError):
            kernel.run()


class TestDaemonSemantics:
    def test_join_ignores_parked_daemons(self):
        kernel = Kernel(MachineSpec(n_cores=2, smt=1))
        never = kernel.event()

        def daemon():
            yield Block(never)

        def app():
            yield Compute(100)

        kernel.spawn(daemon(), daemon=True)
        t = kernel.spawn(app())
        kernel.join(t)  # must not deadlock on the parked daemon
        assert t.done


class TestJoin:
    """``join`` stops after the microtask drain that follows the last
    joined thread's finish, and nowhere else."""

    def test_join_on_finished_threads_still_drains_microtasks(self):
        kernel = Kernel(MachineSpec(n_cores=1, smt=1))

        def program():
            yield Compute(100)

        done = kernel.spawn(program())
        kernel.join(done)
        fresh = kernel.spawn(program())  # queues the dispatch microtask
        kernel.join(done)
        assert fresh.state is ThreadState.RUNNING
        assert fresh.core is not None
        assert kernel.now == 100

    def test_join_on_a_repeated_thread_ends_when_it_finishes(self):
        kernel = Kernel(MachineSpec(n_cores=2, smt=1))

        def program(cycles):
            yield Compute(cycles)

        t = kernel.spawn(program(1_000))
        other = kernel.spawn(program(1_000_000))
        kernel.join(t, t)
        assert t.done and not other.done
        assert kernel.now == 1_000

    def test_join_returns_when_kill_ends_the_thread(self):
        kernel = Kernel(MachineSpec(n_cores=2, smt=1))
        never = kernel.event()

        def spinner():
            while True:
                yield Spin(never, 1_000)

        def program():
            yield Compute(1_000_000)

        victim = kernel.spawn(spinner())
        bystander = kernel.spawn(program())
        kernel.call_at(5_000, lambda: kernel.kill(victim))
        kernel.join(victim)
        assert victim.done and not bystander.done
        assert kernel.now == 5_000

    def test_deadlock_message(self):
        kernel = Kernel(MachineSpec(n_cores=1, smt=1))
        never = kernel.event()

        def waiter():
            yield Block(never)

        def sleeper():
            yield Sleep(100)

        t = kernel.spawn(waiter(), name="waiter")
        s = kernel.spawn(sleeper(), name="sleeper")
        with pytest.raises(DeadlockError) as caught:
            kernel.join(t, s)
        assert str(caught.value) == "event queue drained with threads parked: waiter=blocked"

    def test_max_events_raises_and_a_later_join_completes(self):
        kernel = Kernel(MachineSpec(n_cores=1, smt=1))

        def program():
            for _ in range(10):
                yield Sleep(100)

        t = kernel.spawn(program())
        with pytest.raises(SimulationError, match=r"^exceeded max_events=5$"):
            kernel.join(t, max_events=5)
        assert not t.done
        kernel.join(t)
        assert t.done and kernel.now == 1_000

    def test_join_is_not_reentrant(self):
        kernel = Kernel(MachineSpec(n_cores=1, smt=1))

        def program():
            yield Compute(1_000)

        t = kernel.spawn(program())
        kernel.call_at(10, lambda: kernel.join(t))
        with pytest.raises(SimulationError, match="^join called while another join is running$"):
            kernel.join(t)
        kernel.join(t)
        assert t.done
