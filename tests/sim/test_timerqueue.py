"""The kernel's timer queue: ordering, cancellation, compaction.

The kernel's simulated outcomes ride entirely on the timer queue popping
in exact ``(when, seq)`` order, so these tests check same-cycle seq ties,
pushes after a partial drain, cancellation (including during a drain and
after a timer fired), the compaction that keeps mass cancel/re-arm
workloads O(live), and pinned simulated outcomes of whole kernel runs.
"""

import hashlib
import json
import random

import pytest

from repro.api import BenchSpec, ServeSpec
from repro.profiler.meta import run_storm
from repro.serve.bench import run_bench
from repro.sim import (
    Block,
    Compute,
    Kernel,
    MachineSpec,
    SchedTrace,
    Sleep,
    Spin,
    YieldCPU,
    paper_machine,
)
from repro.sim.timerqueue import COMPACT_MIN_CANCELLED, Timer, TimerHeap


def run_random_programs(seed, trace=None):
    """Run seeded random thread programs to completion; ``(kernel, threads)``.

    Four logical CPUs (two SMT pairs) and a short timeslice carry eight
    threads, some pinned by affinity masks, that mix Compute, Spin, Block,
    Sleep and YieldCPU; a signaller thread fires the shared events one by
    one (so every Block ends) and two threads are killed mid-run.  With
    ``trace`` (a :class:`SchedTrace`) the kernel runs its traced variants;
    without, the lean bodies the benchmark runs.
    """
    spec = MachineSpec(n_cores=2, smt=2, timeslice_cycles=6_000.0)
    kernel = Kernel(spec, trace=trace)
    rng = random.Random(seed)
    events = [kernel.event(f"e{i}") for i in range(10)]

    def program(r):
        for _ in range(r.randint(15, 40)):
            op = r.random()
            if op < 0.35:
                yield Compute(r.uniform(200.0, 20_000.0), tag=r.choice(("a", "b", None)))
            elif op < 0.5:
                yield Spin(r.choice(events), r.uniform(100.0, 9_000.0), tag="spin")
            elif op < 0.6:
                yield Block(r.choice(events))
            elif op < 0.8:
                yield Sleep(r.uniform(50.0, 12_000.0))
            else:
                yield YieldCPU()

    def signaller(r):
        for event in events:
            yield Sleep(r.uniform(2_000.0, 15_000.0))
            event.fire(event.name)

    masks = (None, None, None, frozenset({0}), frozenset({1, 3}), frozenset({2, 3}))
    threads = [
        kernel.spawn(
            program(random.Random(rng.random())),
            name=f"t{i}",
            kind=rng.choice(("app", "worker")),
            affinity=rng.choice(masks),
        )
        for i in range(8)
    ]
    threads.append(kernel.spawn(signaller(random.Random(rng.random())), name="signaller"))
    for victim in rng.sample(threads[:8], 2):
        kernel.call_at(rng.uniform(5_000.0, 60_000.0), lambda t=victim: kernel.kill(t))
    kernel.join(*threads)
    return kernel, threads


#: Lean-path outcome of :func:`run_random_programs` per seed, recorded on
#: an untraced kernel: ``(events_processed, now, rows)``, one
#: ``(cycles_compute, cycles_spin, cpu_cycles)`` row per thread in spawn
#: order (t0..t7, then the signaller).
LEAN_PINS = {
    1: (
        229,
        381870.1298877764,
        [
            (209150.92011702646, 0.0, 209150.92011702646),
            (91247.03007658607, 4985.398006503532, 96232.42808308962),
            (73532.48064394438, 10494.595568404406, 84027.07621234878),
            (115206.76363391202, 8986.820556214625, 124193.58419012665),
            (138851.973830537, 11276.252596663391, 150128.22642720037),
            (0.0, 0.0, 0.0),
            (6597.243316617737, 0.0, 6597.243316617737),
            (130148.35048205598, 0.0, 130148.35048205598),
            (0.0, 0.0, 0.0),
        ],
    ),
    2: (
        270,
        335471.6312688906,
        [
            (227419.33399834798, 7701.76819043103, 235121.102188779),
            (172537.89197721693, 0.0, 172537.89197721693),
            (141033.10250957383, 4737.920078623269, 145771.02258819708),
            (18000.0, 0.0, 18000.0),
            (139932.41995825834, 9325.477582889245, 149257.89754114757),
            (181259.50571432943, 3398.048345887786, 184657.55406021723),
            (39410.91271421344, 0.0, 39410.91271421344),
            (58365.10429303248, 10302.589934978438, 68667.69422801092),
            (0.0, 0.0, 0.0),
        ],
    ),
    3: (
        258,
        347310.99125006504,
        [
            (114534.65432192196, 12298.341937651116, 126832.99625957308),
            (34721.21425233828, 0.0, 34721.21425233828),
            (209986.67446345155, 0.0, 209986.67446345155),
            (198748.55724833754, 7240.8626076695, 205989.41985600704),
            (218349.5940620195, 0.0, 218349.5940620195),
            (122669.4722289691, 8654.8445576444, 131324.3167866135),
            (87329.01869523816, 11981.449293436675, 99310.46798867483),
            (10724.504926065823, 12016.081759701345, 22740.586685767168),
            (0.0, 0.0, 0.0),
        ],
    ),
}


def drain(queue):
    return [(timer.when, timer.seq) for timer in iter(queue.pop, None)]


def push_all(queue, entries):
    timers = [Timer(when, seq, None) for when, seq in entries]
    for timer in timers:
        queue.push(timer)
    return timers


class TestOrdering:
    def test_same_timestamp_pops_in_seq_order(self):
        queue = TimerHeap()
        entries = [(5.0, seq) for seq in (3, 0, 7, 1, 4)]
        push_all(queue, entries)
        assert drain(queue) == sorted(entries, key=lambda e: e[1])

    def test_same_timestamp_across_push_pop_interleave(self):
        queue = TimerHeap()
        push_all(queue, [(5.0, 0), (5.0, 1)])
        first = queue.pop()
        assert (first.when, first.seq) == (5.0, 0)
        queue.push(Timer(5.0, 2, None))
        assert drain(queue) == [(5.0, 1), (5.0, 2)]

    def test_push_after_partial_drain_still_ordered(self):
        queue = TimerHeap()
        push_all(queue, [(35.0, 0), (70.0, 1)])
        assert queue.pop().seq == 0
        queue.push(Timer(12.0, 2, None))
        assert drain(queue) == [(12.0, 2), (70.0, 1)]

    def test_far_future_deadlines_pop_in_order(self):
        queue = TimerHeap()
        push_all(queue, [(5.0, 0), (123_456.0, 1), (81.0, 2), (790.0, 3)])
        assert drain(queue) == [(5.0, 0), (81.0, 2), (790.0, 3), (123_456.0, 1)]

    def test_near_push_after_far_future_pop_still_ordered(self):
        queue = TimerHeap()
        push_all(queue, [(123_456.0, 0)])
        popped = queue.pop()
        assert (popped.when, popped.seq) == (123_456.0, 0)
        push_all(queue, [(123_460.0, 1), (123_458.0, 2)])
        assert drain(queue) == [(123_458.0, 2), (123_460.0, 1)]

    def test_wide_deadline_spread_pops_sorted(self):
        queue = TimerHeap()
        rng = random.Random(11)
        entries = [(rng.uniform(0, 400), seq) for seq in range(200)]
        push_all(queue, entries)
        assert drain(queue) == sorted(entries)

    def test_total_order_equals_sorted(self):
        queue = TimerHeap()
        rng = random.Random(5)
        entries = [(rng.uniform(0, 500), seq) for seq in range(300)]
        push_all(queue, entries)
        assert drain(queue) == sorted(entries)


class TestCancellation:
    def test_cancelled_timer_is_skipped(self):
        queue = TimerHeap()
        timers = push_all(queue, [(5.0, 0), (6.0, 1), (7.0, 2)])
        timers[1].cancel()
        assert drain(queue) == [(5.0, 0), (7.0, 2)]

    def test_cancel_is_idempotent(self):
        queue = TimerHeap()
        (timer,) = push_all(queue, [(5.0, 0)])
        timer.cancel()
        timer.cancel()
        assert queue.live() == 0
        assert drain(queue) == []

    def test_cancel_during_callback_window(self):
        # The serve router's pattern: a popped timer's callback cancels
        # other pending timers (completion timeouts) and re-arms new ones.
        queue = TimerHeap()
        timers = push_all(queue, [(5.0, 0), (6.0, 1), (7.0, 2)])
        assert queue.pop().seq == 0
        timers[2].cancel()
        queue.push(Timer(6.5, 3, None))
        assert drain(queue) == [(6.0, 1), (6.5, 3)]

    def test_cancel_same_timestamp_entry_mid_drain(self):
        queue = TimerHeap()
        timers = push_all(queue, [(5.0, 0), (5.0, 1), (5.0, 2)])
        assert queue.pop().seq == 0
        timers[1].cancel()
        assert drain(queue) == [(5.0, 2)]

    def test_cancel_after_fire_keeps_counts(self):
        # FaultInjector.detach() cancels every timer it ever armed, fired
        # ones included; that must not count as a cancellation.
        queue = TimerHeap()
        fired = push_all(queue, [(float(i), i) for i in range(600)])
        push_all(queue, [(1e9, 600)])
        for _ in fired:
            queue.pop()
        for timer in fired:
            timer.cancel()
        assert queue.stats() == {"stored": 1, "live": 1, "compactions": 0}
        assert len(queue) == 1
        assert drain(queue) == [(1e9, 600)]

    def test_kernel_cancel_after_fire_keeps_counts(self):
        kernel = Kernel(paper_machine())
        timer = kernel.call_at(10.0, lambda: None)
        kernel.run()
        timer.cancel()
        assert kernel.timer_stats() == {"stored": 0, "live": 0, "compactions": 0}


class TestCompaction:
    def test_mass_cancel_rearm_stays_bounded(self):
        # The serve router's completion-timeout pattern: arm a timeout per
        # request, cancel nearly every one, re-arm.  Without compaction
        # the heap accumulates one dead entry per request; with it,
        # stored() stays O(live + compaction threshold).
        queue = TimerHeap()
        seq = 0
        for _round in range(200):
            batch = [Timer(5_000.0 + seq + i, seq + i, None) for i in range(50)]
            seq += 50
            for timer in batch:
                queue.push(timer)
            for timer in batch:
                timer.cancel()
            assert queue.stored() <= queue.live() + 2 * COMPACT_MIN_CANCELLED + 50
        assert queue.compactions > 0
        assert queue.live() == 0

    def test_compaction_preserves_survivors_order(self):
        queue = TimerHeap()
        rng = random.Random(3)
        timers = push_all(queue, [(rng.uniform(0, 1000), seq) for seq in range(600)])
        survivors = []
        for timer in timers:
            if rng.random() < 0.8:
                timer.cancel()
            else:
                survivors.append((timer.when, timer.seq))
        queue.compact()
        assert queue.stored() == queue.live() == len(survivors)
        assert drain(queue) == sorted(survivors)

    def test_compaction_mid_drain_keeps_same_timestamp_run(self):
        queue = TimerHeap()
        push_all(queue, [(5.0, 0), (5.0, 1), (5.0, 2)])
        assert queue.pop().seq == 0
        queue.compact()
        assert drain(queue) == [(5.0, 1), (5.0, 2)]


class TestRandomized:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_workload_pops_in_sorted_order(self, seed):
        # Property test: an interleave of pushes (same-cycle, near, far),
        # pops and cancels pops exactly the live entries, each pop the
        # minimum of what is live at that moment.
        rng = random.Random(seed)
        queue = TimerHeap()
        live: dict[int, Timer] = {}
        now = 0.0
        for seq in range(2_000):
            action = rng.random()
            if action < 0.55:
                when = now + rng.choice((0.0, 0.5, 7.0, 40.0, 900.0)) * (1 + rng.random())
                timer = Timer(when, seq, None)
                queue.push(timer)
                live[seq] = timer
            elif action < 0.85:
                expected = min(((t.when, t.seq) for t in live.values()), default=None)
                timer = queue.pop()
                assert (None if timer is None else (timer.when, timer.seq)) == expected
                if timer is not None:
                    now = timer.when
                    del live[timer.seq]
            elif live:
                live.pop(rng.choice(sorted(live))).cancel()
            assert queue.live() == len(live)
        assert drain(queue) == sorted((t.when, t.seq) for t in live.values())


class TestPinnedOutcomes:
    """Simulated outcomes recorded on earlier kernels.

    The timer queue and the kernel's hot paths may only change host
    performance, never a simulated outcome; these pins hold them to that
    at unit-test scale.  The first pins predate the heap replacing the
    wheel; the lean pins predate the in-flight idle-spin read, the
    shorter activity arm and the ``join`` countdown.
    """

    @pytest.mark.parametrize(
        ("use_zc", "events", "now"),
        [(False, 2402, 4_290_000.0), (True, 3030, 677_569.3548387131)],
        ids=["regular", "zc"],
    )
    def test_meta_storm(self, use_zc, events, now):
        kernel = run_storm(use_zc=use_zc, n_ocalls=600)
        assert (kernel.events_processed, kernel.now) == (events, now)

    def test_sleep_heavy_workload(self):
        kernel = Kernel(paper_machine())

        def worker(seed):
            for step in range(40):
                yield Compute(100 + 37 * ((seed * 31 + step) % 11))
                yield Sleep(1_000 + 997 * ((seed * 17 + step) % 13))

        threads = [kernel.spawn(worker(i), name=f"w{i}") for i in range(12)]
        kernel.join(*threads)
        busy = kernel.cpu_snapshot()["busy_total"]
        assert (kernel.events_processed, kernel.now, busy) == (
            960,
            297_207.72528616025,
            139_068.66636492297,
        )

    def test_serve_bench_artifact(self):
        # Router timeouts, the budget arbiter, tenant fair shedding and
        # per-request spans exercise mass cancel/re-arm and preemption.
        result = run_bench(
            BenchSpec(
                serve=ServeSpec(shards=3, budget=6, tenants=(("bronze", 1.0), ("gold", 3.0))),
                seconds=0.03,
                rate=5_000.0,
            ),
            telemetry=False,
        )
        del result["meta"]  # version stamp, not a simulated outcome
        digest = hashlib.sha256(json.dumps(result, sort_keys=True).encode()).hexdigest()
        assert digest == "156a1ba33465d3e0d4e74f02cf9a287c8d6e54b2611f1eda79e0505022f6c4a5"

    @pytest.mark.parametrize(
        ("seed", "entries", "digest"),
        [
            (1, 397, "0e4cca1c4b93db1f42c1420a7a6be0ecbd9a722bcc4dc9a0398f2270cfd684a1"),
            (2, 293, "c188730a25569066bf88a86ef6e0b4664521627af814465c7346f78c3797634a"),
            (3, 379, "cf40617c712655a666aec7c72b2c8dd9fe0d3ec77c92cff7e0fbd33f6ad44bca"),
        ],
    )
    def test_sched_trace_of_random_programs(self, seed, entries, digest):
        # Every dispatch, preempt, park and finish, in order, with its
        # cycle stamp and CPU: the kernel's scheduling decisions exactly.
        trace = SchedTrace(max_entries=1_000_000)
        run_random_programs(seed, trace)
        assert trace.dropped == 0
        recorded = json.dumps(list(trace.entries)).encode()
        assert (len(trace.entries), hashlib.sha256(recorded).hexdigest()) == (entries, digest)

    @pytest.mark.parametrize("seed", sorted(LEAN_PINS))
    def test_lean_outcome_of_random_programs(self, seed):
        # The untraced kernel runs the lean dispatch, finish and accounting
        # bodies the benchmark runs: every thread's compute/spin split,
        # total on-CPU cycles, the event count and the end time, exactly.
        kernel, threads = run_random_programs(seed)
        assert kernel.trace is None and kernel.ledger is None
        events, now, rows = LEAN_PINS[seed]
        assert (kernel.events_processed, kernel.now) == (events, now)
        assert [(t.cycles_compute, t.cycles_spin, t.cpu_cycles) for t in threads] == rows
