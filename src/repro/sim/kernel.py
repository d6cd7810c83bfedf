"""The discrete-event kernel: event loop, OS scheduler and CPU accounting.

The kernel advances simulated time in CPU cycles and multiplexes simulated
threads (generator coroutines) over the machine's logical CPUs:

- a global FIFO ready queue with round-robin preemption (one timeslice per
  dispatch, renewed for free when nobody else is runnable);
- an SMT model in which a logical CPU runs at full speed when its sibling
  is idle and at ``MachineSpec.smt_factor`` when the sibling is busy;
- exact busy/idle cycle accounting per core, per thread, and per activity
  kind (compute vs. spin), which is what the paper's wasted-cycle
  scheduler and the CPU-usage figures consume.

Event wake-ups are delivered through a microtask queue processed between
timer callbacks, so generator stepping never re-enters: a thread that fires
an event keeps running until its next yield, and the woken thread is
stepped afterwards at the same simulated timestamp.

Raw-speed design (see docs/performance.md for the measured profile):

- **Timers** live in one binary heap of ``(when, seq, Timer)`` tuples
  (:mod:`repro.sim.timerqueue`) with lazy cancellation, compacted once
  cancelled entries outnumber live ones.
- **Telemetry is zero-cost when detached.**  Instead of ``if trace is not
  None`` checks on every dispatch/park/finish/accounting call, the kernel
  binds lean or traced variants of its hot functions whenever ``trace``
  or ``ledger`` change (they are properties); the detached path executes
  no telemetry branches at all.  The :class:`SchedTrace` ring is the
  kernel's one record of its dispatches; a traced variant records to it
  and then runs the lean body.
- **Accounting is slotted.**  Per-thread compute/spin cycles are two
  float slots (``cycles_by`` remains as a read-only dict view) and
  per-core per-kind cycles use a run-length accumulator folded into the
  dict only when the running thread's kind changes or the counter is
  read.  Work in flight is credited when it ends or is re-timed; only
  whole-machine readers (:meth:`Kernel.cpu_snapshot`, the telemetry
  ledger's snapshot, ``/proc/stat`` sampling) flush every core first.
  The zc scheduler's idle-spin read uses :meth:`Kernel.spin_cycles`,
  which adds the in-flight spin without crediting anything.
- **Arming is short.**  Starting a Compute or Spin allocates its
  activity and hands it to :meth:`Kernel._schedule_activity_timer`, the
  one place that decides between the completion and the slice-end
  timer; that method stamps the timer and pushes it itself.
- **``join`` counts down.**  Joined threads are marked; finishing one
  decrements a counter, and the event loop stops once it reaches zero,
  after the microtask drain that follows the last finish.
"""

from __future__ import annotations

import enum
import itertools
from collections import deque
from functools import partial
from typing import Any, Callable, Generator, Iterable

from repro.sim.errors import DeadlockError, LivelockError, SimulationError
from repro.sim.instructions import Block, Compute, Instruction, Sleep, Spin, YieldCPU
from repro.sim.machine import MachineSpec
from repro.sim.primitives import Event, Gate
from repro.sim.timerqueue import Timer, TimerHeap

Program = Generator[Instruction, Any, Any]

#: Upper bound on consecutive zero-duration generator steps of one thread.
_LIVELOCK_LIMIT = 100_000


class ThreadState(enum.Enum):
    """Lifecycle states of a simulated thread."""

    NEW = "new"
    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    SLEEPING = "sleeping"
    DONE = "done"


class _Activity:
    """Work currently occupying a logical CPU (a Compute or a Spin)."""

    __slots__ = (
        "kind",
        "work_total",
        "work_done",
        "last_update",
        "speed",
        "timer",
        "spin_event",
        "tag",
    )

    def __init__(
        self,
        kind: str,
        work_total: float,
        speed: float,
        now: float,
        spin_event: Event | None = None,
        tag: str | None = None,
    ) -> None:
        self.kind = kind  # "compute" or "spin"
        self.work_total = work_total
        self.work_done = 0.0
        self.last_update = now
        self.speed = speed
        self.timer: Timer | None = None
        self.spin_event = spin_event
        self.tag = tag


class SimThread:
    """A simulated OS thread wrapping a generator coroutine.

    Attributes:
        name: Human-readable identifier (unique suffix added by the kernel).
        kind: Accounting bucket, e.g. ``"app"``, ``"worker"``,
            ``"scheduler"``; CPU usage can be broken down per kind.
        daemon: Daemon threads (worker pools) are allowed to be still
            parked when :meth:`Kernel.join` returns.
        state: Current :class:`ThreadState`.
        result: Return value of the generator once ``DONE``.
        done_event: Fires (with ``result``) when the thread finishes.
        cpu_cycles: Wall cycles spent on a core.
        cycles_by: Wall cycles split by activity kind (compute/spin) — a
            read-only dict view over the ``cycles_compute``/``cycles_spin``
            slots the accounting hot path writes.
    """

    __slots__ = (
        "name",
        "kind",
        "daemon",
        "affinity",
        "gen",
        "state",
        "result",
        "done_event",
        "core",
        "slice_end",
        "cpu_cycles",
        "cycles_compute",
        "cycles_spin",
        "ledger_cells",
        "_joined",
        "_pending",
        "_resume_value",
        "_spin_result",
    )

    def __init__(
        self,
        name: str,
        kind: str,
        daemon: bool,
        gen: Program,
        done_event: Event,
        affinity: frozenset[int] | None = None,
    ) -> None:
        self.name = name
        self.kind = kind
        self.daemon = daemon
        #: Logical CPUs this thread may run on (None = any), as set by
        #: sched_setaffinity; switchless deployments pin worker threads.
        self.affinity = affinity
        self.gen = gen
        self.state = ThreadState.NEW
        self.result: Any = None
        self.done_event = done_event
        self.core: "LogicalCPU | None" = None
        self.slice_end = 0.0
        self.cpu_cycles = 0.0
        self.cycles_compute = 0.0
        self.cycles_spin = 0.0
        #: Lazily created by the kernel when a telemetry ledger is
        #: attached: {activity_kind: {tag: [wall, work]}}, folded into the
        #: ledger's table at snapshot time (see CycleLedger).
        self.ledger_cells: dict[str, dict[str | None, list[float]]] | None = None
        #: Whether a running :meth:`Kernel.join` still waits for this thread.
        self._joined = False
        self._pending: Compute | Spin | None = None
        self._resume_value: Any = None
        self._spin_result: bool | None = None

    @property
    def cycles_by(self) -> dict[str, float]:
        """Cycles split by activity kind, as the historical dict shape."""
        return {"compute": self.cycles_compute, "spin": self.cycles_spin}

    def allowed_on(self, cpu_index: int) -> bool:
        """Whether the affinity mask admits ``cpu_index``."""
        return self.affinity is None or cpu_index in self.affinity

    @property
    def done(self) -> bool:
        """Whether the thread has finished."""
        return self.state is ThreadState.DONE

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SimThread {self.name!r} {self.state.value}>"


class LogicalCPU:
    """One logical CPU (hardware thread) of the simulated machine."""

    __slots__ = (
        "index",
        "kernel",
        "sibling",
        "thread",
        "activity",
        "speed",
        "busy_cycles",
        "_busy_by_kind",
        "_acc_kind",
        "_acc_cycles",
        "_complete_cb",
        "_slice_cb",
    )

    def __init__(self, index: int, kernel: "Kernel") -> None:
        self.index = index
        self.kernel = kernel
        self.sibling: LogicalCPU | None = None
        self.thread: SimThread | None = None
        self.activity: _Activity | None = None
        #: Current execution speed given SMT sibling occupancy: 1.0, or
        #: ``MachineSpec.smt_factor`` while the sibling runs a thread.
        #: :meth:`Kernel._sibling_changed` keeps it, so starting work
        #: reads a slot instead of calling a method.
        self.speed = 1.0
        self.busy_cycles = 0.0
        # Per-kind busy cycles use a run-length accumulator: consecutive
        # accounting intervals for the same thread kind (the overwhelmingly
        # common case — a core runs one kind for many slices) add to two
        # scalar slots and fold into the dict only on a kind change or a
        # counter read.
        self._busy_by_kind: dict[str, float] = {}
        self._acc_kind: str | None = None
        self._acc_cycles = 0.0
        # Preallocated timer callbacks: every Compute/Spin schedules (and
        # every SMT speed change reschedules) a timer on this CPU, so a
        # fresh ``functools.partial`` per timer is measurable allocator
        # churn on the activity path.
        self._complete_cb = partial(kernel._on_work_complete, self)
        self._slice_cb = partial(kernel._on_slice_end, self)

    @property
    def busy_by_kind(self) -> dict[str, float]:
        """Busy cycles per thread kind (folds the accumulator first)."""
        self._fold_kind()
        return self._busy_by_kind

    def _fold_kind(self) -> None:
        kind = self._acc_kind
        if kind is not None:
            table = self._busy_by_kind
            table[kind] = table.get(kind, 0.0) + self._acc_cycles
            self._acc_kind = None
            self._acc_cycles = 0.0

    @property
    def idle(self) -> bool:
        """Whether no thread occupies this CPU."""
        return self.thread is None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        who = self.thread.name if self.thread else "idle"
        return f"<cpu{self.index} {who}>"


class SchedTrace:
    """The kernel's record of its scheduling events, as a bounded ring.

    Entries are ``(time_cycles, event, thread_name, cpu_index)`` tuples;
    ``event`` is one of ``dispatch``, ``preempt``, ``park``, ``finish``
    (a thread finished off-core has ``cpu_index`` -1).  A full ring drops
    its oldest entry and counts it in ``dropped``.  Enable with
    ``Kernel(..., trace=SchedTrace())``; a telemetry session attaches one
    to every kernel and draws the Chrome trace's CPU lanes from it.
    Tracing costs host time only, never simulated cycles.
    """

    __slots__ = ("max_entries", "entries", "dropped")

    def __init__(self, max_entries: int = 10_000) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self.entries: deque[tuple[float, str, str, int]] = deque(maxlen=max_entries)
        self.dropped = 0

    def record(self, when: float, event: str, thread: str, cpu: int) -> None:
        """Record one sample/event."""
        if len(self.entries) == self.max_entries:
            self.dropped += 1
        self.entries.append((when, event, thread, cpu))

    def for_thread(self, name: str) -> list[tuple[float, str, str, int]]:
        """Entries belonging to the named thread."""
        return [e for e in self.entries if e[2] == name]

    def render(self, limit: int = 50) -> str:
        """The most recent entries as readable lines."""
        lines = [
            f"{when:>14.0f}  cpu{cpu}  {event:<9s} {thread}"
            for when, event, thread, cpu in list(self.entries)[-limit:]
        ]
        return "\n".join(lines)


class Kernel:
    """Deterministic discrete-event kernel for one simulated machine."""

    def __init__(
        self,
        spec: MachineSpec | None = None,
        trace: "SchedTrace | None" = None,
    ) -> None:
        self.spec = spec if spec is not None else MachineSpec()
        self.now = 0.0
        #: Optional telemetry hooks (see :mod:`repro.telemetry`); all stay
        #: None unless a TelemetrySession attaches.  ``bus`` is read by
        #: runtime components (router, backends, enclaves) that gate their
        #: own emits on it; the kernel itself never publishes to it.
        #: ``ledger``/``trace`` are properties: assigning them rebinds the
        #: kernel's hot functions, so the detached path carries no
        #: telemetry branches at all (see _bind_hot_paths).
        self.bus: Any = None
        self._ledger: Any = None
        self._trace = trace
        #: Optional fault injector (see :mod:`repro.faults`).  None on
        #: healthy runs; runtime components gate every fault-tolerance
        #: timeout/check on this single attribute so un-faulted runs stay
        #: byte-identical to builds without the fault layer.
        self.faults: Any = None
        self._timers = TimerHeap()
        self._seq = itertools.count()
        self._micro: deque[Callable[[], None]] = deque()
        self._ready: deque[SimThread] = deque()
        #: Whether a _try_dispatch microtask is already queued.  Dispatch
        #: is idempotent over the state it sees, so queueing one per
        #: wake-up only reruns a no-op; a single pending entry suffices
        #: (anything that changes placement state re-queues it).
        self._dispatch_queued = False
        #: Lowest CPU index that may be idle; every CPU below it is busy.
        #: Maintained so the dispatch scan skips the busy prefix instead of
        #: re-walking all logical CPUs per ready thread.
        self._idle_scan_start = 0
        self.threads: list[SimThread] = []
        self.cpus = [LogicalCPU(i, self) for i in range(self.spec.n_logical)]
        for cpu in self.cpus:
            sib = self.spec.sibling_of(cpu.index)
            if sib is not None:
                cpu.sibling = self.cpus[sib]
        self._name_counts: dict[str, int] = {}
        self.events_processed = 0
        #: Joined threads still running while :meth:`join` runs the loop;
        #: -1 when no join is running (the loop stops at 0).
        self._join_left = -1
        self._bind_hot_paths()

    # ------------------------------------------------------------------
    # Telemetry attach points (rebinding the hot paths)
    # ------------------------------------------------------------------
    @property
    def trace(self) -> "SchedTrace | None":
        """Scheduling trace ring buffer; assigning rebinds hot paths."""
        return self._trace

    @trace.setter
    def trace(self, value: "SchedTrace | None") -> None:
        self._trace = value
        self._bind_hot_paths()

    @property
    def ledger(self) -> Any:
        """Cycle ledger; assigning rebinds the accounting path."""
        return self._ledger

    @ledger.setter
    def ledger(self, value: Any) -> None:
        self._ledger = value
        self._bind_hot_paths()

    def _bind_hot_paths(self) -> None:
        """Select lean or traced variants of the hot functions.

        Called whenever ``trace``/``ledger`` change.  The bound methods
        live in the instance dict, shadowing nothing (the class only
        defines the suffixed variants), so every internal call site —
        ``self._run_on(...)`` etc. — dispatches straight to the right
        variant with zero per-event telemetry checks.
        """
        if self._trace is None:
            self._run_on = self._run_on_lean
            self._release_core = self._release_core_lean
            self._finish_thread = self._finish_thread_lean
        else:
            self._run_on = self._run_on_traced
            self._release_core = self._release_core_traced
            self._finish_thread = self._finish_thread_traced
        if self._ledger is None:
            self._apply_progress = self._apply_progress_lean
        else:
            self._apply_progress = self._apply_progress_ledger

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create a fresh one-shot :class:`Event`."""
        return Event(self, name)

    def gate(self, value: Any = None, name: str = "") -> Gate:
        """Create a level-triggered :class:`Gate` holding ``value``."""
        return Gate(self, value, name)

    def spawn(
        self,
        program: Program,
        name: str = "thread",
        kind: str = "app",
        daemon: bool = False,
        affinity: frozenset[int] | set[int] | None = None,
    ) -> SimThread:
        """Create a thread running ``program`` and place it on the ready queue.

        ``affinity`` restricts the thread to the given logical CPUs
        (sched_setaffinity-style); None means any CPU.
        """
        if affinity is not None:
            affinity = frozenset(affinity)
            invalid = [c for c in affinity if not 0 <= c < len(self.cpus)]
            if invalid or not affinity:
                raise ValueError(f"invalid affinity mask {sorted(affinity)}")
        count = self._name_counts.get(name, 0)
        self._name_counts[name] = count + 1
        unique = name if count == 0 else f"{name}#{count}"
        thread = SimThread(
            unique, kind, daemon, program, self.event(f"done:{unique}"), affinity
        )
        self.threads.append(thread)
        self._make_ready(thread)
        return thread

    # ------------------------------------------------------------------
    # Time helpers
    # ------------------------------------------------------------------
    def cycles(self, seconds: float) -> float:
        """Convert seconds to cycles using the machine frequency."""
        return self.spec.cycles(seconds)

    def seconds(self, cycles: float) -> float:
        """Convert cycles to seconds using the machine frequency."""
        return self.spec.seconds(cycles)

    @property
    def now_seconds(self) -> float:
        """Current simulated time in seconds."""
        return self.spec.seconds(self.now)

    # ------------------------------------------------------------------
    # Event loop
    # ------------------------------------------------------------------
    def run(self, until_time: float | None = None, max_events: int | None = None) -> None:
        """Process events until the queue drains or ``until_time`` is reached.

        Under :meth:`join` the loop also stops once every joined thread
        has finished, after the microtask drain that follows the last
        finish.

        Args:
            until_time: Stop once the next timer lies beyond this absolute
                cycle count; ``kernel.now`` is advanced to ``until_time``.
            max_events: Safety bound on processed timers.
        """
        micro = self._micro
        timers = self._timers
        pop = timers.pop
        processed = 0
        while True:
            while micro:
                micro.popleft()()
            if not self._join_left:
                return
            timer = pop()
            if timer is None:
                if micro:
                    continue
                break
            when = timer.when
            if until_time is not None and when > until_time:
                timers.push(timer)
                if until_time > self.now:
                    self.now = until_time
                return
            if when < self.now:
                raise SimulationError("timer scheduled in the past")
            self.now = when
            timer.fn()
            self.events_processed += 1
            processed += 1
            if max_events is not None and processed >= max_events:
                raise SimulationError(f"exceeded max_events={max_events}")

    def join(self, *threads: SimThread, max_events: int | None = None) -> None:
        """Run until every given thread is done.

        Raises :class:`DeadlockError` if the event queue drains while some
        of the joined threads are still parked.

        The stop condition costs no call per event: each joined thread is
        marked, :meth:`_finish_thread` (which :meth:`kill` also ends in)
        counts the marked ones down, and the loop stops when the count
        reaches zero.  ``join`` is not re-entrant.
        """
        if self._join_left != -1:
            raise SimulationError("join called while another join is running")
        left = 0
        for thread in threads:
            if not thread.done and not thread._joined:
                thread._joined = True
                left += 1
        self._join_left = left
        try:
            self.run(max_events=max_events)
        finally:
            self._join_left = -1
            for thread in threads:
                thread._joined = False
        stuck = [t for t in threads if not t.done]
        if stuck:
            states = ", ".join(f"{t.name}={t.state.value}" for t in stuck)
            raise DeadlockError(f"event queue drained with threads parked: {states}")

    def run_until_idle(self) -> None:
        """Run until no timers or microtasks remain."""
        self.run()

    def call_later(self, delay: float, fn: Callable[[], None]) -> Timer:
        """Schedule ``fn`` ``delay`` cycles from now, at ``now + delay``."""
        if delay < 0:
            raise SimulationError("cannot schedule a timer in the past")
        timer = Timer(self.now + delay, next(self._seq), fn)
        self._timers.push(timer)
        return timer

    def call_at(self, when: float, fn: Callable[[], None]) -> Timer:
        """Schedule ``fn`` at absolute cycle ``when`` (driver-side hook)."""
        return self.call_later(when - self.now, fn)

    def timer_stats(self) -> dict[str, int]:
        """Timer-queue internals (stored/live/compactions), for tests."""
        return self._timers.stats()

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _make_ready(self, thread: SimThread) -> None:
        if thread.state is ThreadState.READY:
            # Already queued: re-queuing would leave a stale duplicate
            # behind once the first entry dispatches, double-counting the
            # thread in the ready-queue length and forcing _try_dispatch
            # to skip it later.  Every queued thread appears exactly once.
            return
        if thread.state is ThreadState.DONE:
            # A killed thread can still sit in an Event's blocked list;
            # its wake-up must not resurrect it.
            return
        thread.state = ThreadState.READY
        self._ready.append(thread)
        if not self._dispatch_queued:
            self._dispatch_queued = True
            self._micro.append(self._try_dispatch)

    def _idle_core_for(self, thread: SimThread) -> LogicalCPU | None:
        """Pick an idle logical CPU the thread's affinity admits.

        Like Linux, the dispatcher prefers an idle CPU whose SMT sibling is
        also idle, so hyperthread contention only appears once every
        physical core has work.

        The scan starts at ``_idle_scan_start`` — the busy prefix below it
        was verified busy by an earlier scan and CPUs only go idle through
        :meth:`_release_core`, which lowers the hint.  On a saturated
        machine (the common case under load) the scan is O(1): the hint
        sits past the last CPU and the loop body never runs.  The selection
        itself is unchanged: lowest-index idle CPU with an idle sibling,
        else the lowest-index idle CPU.
        """
        fallback: LogicalCPU | None = None
        cpus = self.cpus
        n = len(cpus)
        first_idle_seen = False
        for i in range(self._idle_scan_start, n):
            cpu = cpus[i]
            if cpu.thread is not None:
                continue
            if not first_idle_seen:
                first_idle_seen = True
                self._idle_scan_start = i
            if not thread.allowed_on(cpu.index):
                continue
            if cpu.sibling is None or cpu.sibling.thread is None:
                return cpu
            if fallback is None:
                fallback = cpu
        if not first_idle_seen:
            self._idle_scan_start = n
        return fallback

    def _try_dispatch(self) -> None:
        """Place ready threads on idle cores, FIFO, respecting affinity.

        Threads whose allowed CPUs are all busy stay queued (in order)
        without blocking later, compatible threads.
        """
        self._dispatch_queued = False
        ready = self._ready
        if not ready:
            return
        deferred: deque[SimThread] = deque()
        run_on = self._run_on
        while ready:
            thread = ready.popleft()
            if thread.state is not ThreadState.READY:
                continue
            core = self._idle_core_for(thread)
            if core is None:
                deferred.append(thread)
                continue
            run_on(core, thread)
        self._ready = deferred

    # Each traced variant records one SchedTrace entry, then runs the lean
    # body; the lean bodies are the only copies of the scheduling logic.

    def _run_on_lean(self, core: LogicalCPU, thread: SimThread) -> None:
        thread.state = ThreadState.RUNNING
        thread.core = core
        core.thread = thread
        thread.slice_end = self.now + self.spec.timeslice_cycles
        self._sibling_changed(core)
        pending = thread._pending
        thread._pending = None
        if pending is None:
            value = thread._resume_value
            thread._resume_value = None
            self._step(thread, value)
        elif pending.__class__ is Spin:
            if thread._spin_result is not None or pending.event.fired:
                thread._spin_result = None
                self._step(thread, True)
            else:
                self._start_work(core, "spin", pending.timeout, pending.event, pending.tag)
        else:
            self._start_work(core, "compute", pending.cycles, None, pending.tag)

    def _run_on_traced(self, core: LogicalCPU, thread: SimThread) -> None:
        self._trace.record(self.now, "dispatch", thread.name, core.index)
        self._run_on_lean(core, thread)

    def _release_core_lean(self, thread: SimThread) -> None:
        core = thread.core
        if core is None:
            return
        thread.core = None
        core.thread = None
        core.activity = None
        if core.index < self._idle_scan_start:
            self._idle_scan_start = core.index
        self._sibling_changed(core)
        if not self._dispatch_queued:
            self._dispatch_queued = True
            self._micro.append(self._try_dispatch)

    def _release_core_traced(self, thread: SimThread) -> None:
        core = thread.core
        if core is not None and thread.state is not ThreadState.DONE:
            event = "preempt" if thread.state is ThreadState.RUNNING else "park"
            self._trace.record(self.now, event, thread.name, core.index)
        self._release_core_lean(thread)

    def _sibling_changed(self, core: LogicalCPU) -> None:
        """Set the sibling's speed after ``core``'s occupancy changed, and
        re-time the sibling's running activity."""
        sib = core.sibling
        if sib is None:
            return
        sib.speed = self.spec.smt_factor if core.thread is not None else 1.0
        activity = sib.activity
        if activity is None:
            return
        self._apply_progress(sib)
        if activity.timer is not None:
            activity.timer.cancel()
        activity.speed = sib.speed
        self._schedule_activity_timer(sib)

    # ------------------------------------------------------------------
    # Generator stepping
    # ------------------------------------------------------------------
    def _step(self, thread: SimThread, value: Any) -> None:
        """Advance ``thread`` until it parks on an instruction or finishes."""
        core = thread.core
        if core is None:
            raise SimulationError(f"stepping off-core thread {thread.name}")
        send = thread.gen.send
        steps = 0
        while True:
            steps += 1
            if steps > _LIVELOCK_LIMIT:
                raise LivelockError(
                    f"thread {thread.name!r} executed {steps} zero-time steps"
                )
            try:
                instr = send(value)
            except StopIteration as stop:
                self._finish_thread(thread, stop.value)
                return
            # Exact-type dispatch: the instruction dataclasses are final
            # (nothing subclasses them), and ``type is`` beats isinstance
            # chains on the hottest call in the simulator.
            cls = instr.__class__
            if cls is Compute:
                if instr.cycles <= 0:
                    value = None
                    continue
                self._start_work(core, "compute", instr.cycles, None, instr.tag)
                return
            if cls is Spin:
                if instr.event.fired:
                    value = True
                    continue
                if instr.timeout <= 0:
                    value = False
                    continue
                instr.event._spinners.append(thread)
                self._start_work(core, "spin", instr.timeout, instr.event, instr.tag)
                return
            if cls is Block:
                if instr.event.fired:
                    value = instr.event.value
                    continue
                thread.state = ThreadState.BLOCKED
                instr.event._blocked.append(thread)
                self._release_core(thread)
                return
            if cls is Sleep:
                if instr.cycles <= 0:
                    value = None
                    continue
                thread.state = ThreadState.SLEEPING
                self._release_core(thread)
                self.call_later(instr.cycles, partial(self._wake_sleeper, thread))
                return
            if cls is YieldCPU:
                if self._ready:
                    self._release_core(thread)
                    self._make_ready(thread)
                    return
                value = None
                continue
            raise SimulationError(f"unknown instruction yielded: {instr!r}")

    def _finish_thread_lean(self, thread: SimThread, result: Any) -> None:
        thread.state = ThreadState.DONE
        thread.result = result
        if thread.core is not None:
            self._release_core(thread)
        if thread._joined:
            thread._joined = False
            self._join_left -= 1
        thread.done_event.fire(result)

    def _finish_thread_traced(self, thread: SimThread, result: Any) -> None:
        cpu = thread.core.index if thread.core is not None else -1
        self._trace.record(self.now, "finish", thread.name, cpu)
        self._finish_thread_lean(thread, result)

    def _wake_sleeper(self, thread: SimThread) -> None:
        if thread.state is ThreadState.SLEEPING:
            thread._resume_value = None
            self._make_ready(thread)

    def kill(self, thread: SimThread) -> None:
        """Forcibly terminate ``thread`` at the current instant.

        Models an asynchronous thread death (the fault injector's worker
        crash): in-flight work is credited up to ``now``, the generator is
        closed, the core released and ``done_event`` fired with ``None``.
        The thread may still be referenced by event wait lists or the
        ready queue; those entries become inert (:meth:`_make_ready`
        ignores DONE threads, :meth:`_try_dispatch` skips non-READY
        entries), so :meth:`ready_queue_length` can transiently over-count
        by the number of freshly killed READY threads.  Killing a DONE
        thread is a no-op.
        """
        if thread.state is ThreadState.DONE:
            return
        core = thread.core
        if core is not None and core.activity is not None:
            self._apply_progress(core)
            activity = core.activity
            if activity.timer is not None:
                activity.timer.cancel()
            if activity.kind == "spin" and activity.spin_event is not None:
                spinners = activity.spin_event._spinners
                if thread in spinners:
                    spinners.remove(thread)
            core.activity = None
        thread._pending = None
        thread._spin_result = None
        thread.gen.close()
        self._finish_thread(thread, None)

    # ------------------------------------------------------------------
    # Activities (on-core work)
    # ------------------------------------------------------------------
    def _start_work(
        self,
        core: LogicalCPU,
        kind: str,
        work: float,
        spin_event: Event | None,
        tag: str | None,
    ) -> None:
        core.activity = _Activity(kind, work, core.speed, self.now, spin_event, tag)
        self._schedule_activity_timer(core)

    def _schedule_activity_timer(self, core: LogicalCPU) -> None:
        """Arm the running activity's next timer: completion, or slice end.

        The one copy of that decision.  It stamps and pushes the timer
        itself (what :meth:`call_later` would do, with the same
        ``(when, seq)`` stamps) to keep every Compute/Spin start one call
        shorter.
        """
        activity = core.activity
        thread = core.thread
        if activity is None or thread is None:
            raise SimulationError("scheduling timer on idle core")
        # Clamp: floating-point progress accounting can leave a remainder
        # of ~1 ulp below zero after an SMT speed change.
        work_left = activity.work_total - activity.work_done
        if work_left < 0.0:
            work_left = 0.0
        now = self.now
        wall_remaining = work_left / activity.speed
        if now + wall_remaining <= thread.slice_end:
            timer = Timer(now + wall_remaining, next(self._seq), core._complete_cb)
        else:
            delay = thread.slice_end - now
            if delay < 0:
                raise SimulationError("cannot schedule a timer in the past")
            timer = Timer(now + delay, next(self._seq), core._slice_cb)
        self._timers.push(timer)
        activity.timer = timer

    # The two _apply_progress variants must stay in lockstep: the ledger
    # one is the lean body plus the per-thread ledger-cell charge.

    def _apply_progress_lean(self, core: LogicalCPU) -> None:
        activity = core.activity
        thread = core.thread
        if activity is None or thread is None:
            return
        now = self.now
        dt = now - activity.last_update
        if dt <= 0:
            return
        activity.work_done += dt * activity.speed
        activity.last_update = now
        core.busy_cycles += dt
        kind = thread.kind
        if kind == core._acc_kind:
            core._acc_cycles += dt
        else:
            core._fold_kind()
            core._acc_kind = kind
            core._acc_cycles = dt
        thread.cpu_cycles += dt
        if activity.spin_event is None:
            thread.cycles_compute += dt
        else:
            thread.cycles_spin += dt

    def _apply_progress_ledger(self, core: LogicalCPU) -> None:
        activity = core.activity
        thread = core.thread
        if activity is None or thread is None:
            return
        now = self.now
        dt = now - activity.last_update
        if dt <= 0:
            return
        work = dt * activity.speed
        activity.work_done += work
        activity.last_update = now
        core.busy_cycles += dt
        kind = thread.kind
        if kind == core._acc_kind:
            core._acc_cycles += dt
        else:
            core._fold_kind()
            core._acc_kind = kind
            core._acc_cycles = dt
        thread.cpu_cycles += dt
        if activity.spin_event is None:
            thread.cycles_compute += dt
        else:
            thread.cycles_spin += dt
        # Charge into per-thread nested dicts rather than the ledger's
        # (thread.kind, activity.kind, tag) table: this runs once per
        # accounting interval, and two cached-hash subscripts (with a
        # zero-cost try/except for the rare first miss) are measurably
        # cheaper than building and hashing a key tuple.
        # CycleLedger.snapshot folds these into the table.
        try:
            cell = thread.ledger_cells[activity.kind][activity.tag]
        except (KeyError, TypeError):
            cells = thread.ledger_cells
            if cells is None:
                cells = thread.ledger_cells = {}
            cell = cells.setdefault(activity.kind, {}).setdefault(
                activity.tag, [0.0, 0.0]
            )
        cell[0] += dt
        cell[1] += work

    def _on_work_complete(self, core: LogicalCPU) -> None:
        activity = core.activity
        thread = core.thread
        if activity is None or thread is None:
            return
        self._apply_progress(core)
        core.activity = None
        if activity.spin_event is not None:
            event = activity.spin_event
            if thread in event._spinners:
                event._spinners.remove(thread)
            result: Any = thread._spin_result if thread._spin_result is not None else False
            thread._spin_result = None
            self._step(thread, result)
        else:
            self._step(thread, None)

    def _on_slice_end(self, core: LogicalCPU) -> None:
        activity = core.activity
        thread = core.thread
        if activity is None or thread is None:
            return
        self._apply_progress(core)
        if not self._ready:
            thread.slice_end = self.now + self.spec.timeslice_cycles
            self._schedule_activity_timer(core)
            return
        remaining = max(activity.work_total - activity.work_done, 0.0)
        if activity.kind == "spin":
            assert activity.spin_event is not None
            thread._pending = Spin(activity.spin_event, remaining, tag=activity.tag)
        else:
            thread._pending = Compute(remaining, tag=activity.tag)
        core.activity = None
        self._release_core(thread)
        self._make_ready(thread)

    # ------------------------------------------------------------------
    # Event delivery
    # ------------------------------------------------------------------
    def _on_event_fired(self, event: Event) -> None:
        for thread in event._blocked:
            thread._resume_value = event.value
            self._make_ready(thread)
        event._blocked.clear()
        for thread in event._spinners:
            thread._spin_result = True
            if (
                thread.state is ThreadState.RUNNING
                and thread.core is not None
                and thread.core.activity is not None
                and thread.core.activity.spin_event is event
            ):
                self._micro.append(partial(self._interrupt_spin, thread.core, thread))
        event._spinners.clear()

    def _interrupt_spin(self, core: LogicalCPU, thread: SimThread) -> None:
        if core.thread is not thread or thread.state is not ThreadState.RUNNING:
            return
        activity = core.activity
        if activity is None or activity.kind != "spin":
            return
        if thread._spin_result is None:
            return
        self._apply_progress(core)
        if activity.timer is not None:
            activity.timer.cancel()
        core.activity = None
        thread._spin_result = None
        self._step(thread, True)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def flush_accounting(self) -> None:
        """Credit all in-progress activities up to ``now``, on every core.

        Whole-machine readers call it before reading per-thread or
        per-core cycle counters so that work in flight is included:
        :meth:`cpu_snapshot` (and through it ``/proc/stat`` sampling) and
        the telemetry ledger's snapshot.  A reader of a few threads' spin
        uses :meth:`spin_cycles`, which credits nothing.
        """
        apply_progress = self._apply_progress
        for core in self.cpus:
            apply_progress(core)

    def spin_cycles(self, threads: Iterable[SimThread]) -> float:
        """Busy-wait cycles of ``threads`` up to ``now``, read in flight.

        Sums, in the order given, each thread's ``cycles_spin`` plus
        ``now - last_update`` when its core is running a spin: at the
        instant of the read each term is the float :meth:`flush_accounting`
        would have written.  It mutates no core, thread or activity, so
        a reader never splits the running sums of other cores.
        """
        now = self.now
        return sum(
            thread.cycles_spin + (now - activity.last_update)
            if (core := thread.core) is not None
            and (activity := core.activity) is not None
            and activity.spin_event is not None
            else thread.cycles_spin
            for thread in threads
        )

    def cpu_snapshot(self) -> dict[str, Any]:
        """Return cumulative CPU accounting up to the current instant.

        The snapshot includes work in progress: running activities are
        credited up to ``now`` before totals are read.
        """
        self.flush_accounting()
        per_core = [core.busy_cycles for core in self.cpus]
        by_kind: dict[str, float] = {}
        for core in self.cpus:
            for kind, cycles in core.busy_by_kind.items():
                by_kind[kind] = by_kind.get(kind, 0.0) + cycles
        busy_total = sum(per_core)
        capacity = self.now * len(self.cpus)
        return {
            "now": self.now,
            "busy_total": busy_total,
            "idle_total": max(capacity - busy_total, 0.0),
            "per_core": per_core,
            "by_kind": by_kind,
        }

    def cpu_utilisation(self) -> float:
        """Overall fraction of CPU capacity used since time zero."""
        snap = self.cpu_snapshot()
        capacity = snap["now"] * len(self.cpus)
        if capacity <= 0:
            return 0.0
        return snap["busy_total"] / capacity

    def ready_queue_length(self) -> int:
        """Number of threads waiting in the ready queue, O(1).

        :meth:`_make_ready` never double-queues a READY thread and queued
        threads only change state by being dispatched (which pops them),
        so every entry is live and the deque length is the exact count —
        no O(n) state filter, no stale-entry double counting.
        """
        return len(self._ready)

