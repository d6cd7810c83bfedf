"""The cycle-attribution ledger: every simulated cycle has a category.

The paper's headline argument is an accounting identity over wasted
cycles, ``U = F·T_es + M·T`` (§IV-A); this module generalises it to the
*whole* machine.  The DES kernel charges every on-core interval to the
ledger as it credits its busy-cycle counters, keyed by the running
thread's accounting ``kind``, the activity kind (``compute`` vs.
``spin``) and the instruction's tag; the ledger maps each charge to one
of the categories below and can prove conservation: categorised busy
cycles plus idle capacity equals ``kernel.now × n_logical_cpus``.

Two units are tracked per charge:

- **wall** cycles — core occupancy, degraded by nothing (an SMT-slowed
  activity occupies its logical CPU for the full wall duration).  Wall
  cycles are what conservation and the cycle-budget table are stated in.
- **work** cycles — nominal instruction cycles actually retired
  (``wall × smt_speed``).  Work cycles are what the paper's identities
  are stated in: a zc run's ``transition`` work cycles equal exactly
  ``(fallbacks + pool_reallocs) · T_es``.
"""

from __future__ import annotations

from dataclasses import dataclass

# ----------------------------------------------------------------------
# Categories
# ----------------------------------------------------------------------
APP = "app"
HOST_EXEC = "host-exec"
TRANSITION = "transition"
MARSHAL = "marshal"
RUNTIME = "runtime"
CALLER_SPIN = "caller-spin"
WORKER_SPIN = "worker-spin"
SCHED = "sched"
FAULT = "fault"
IDLE = "idle"

#: Busy categories, in cycle-budget column order.
BUSY_CATEGORIES: tuple[str, ...] = (
    APP,
    HOST_EXEC,
    TRANSITION,
    MARSHAL,
    RUNTIME,
    CALLER_SPIN,
    WORKER_SPIN,
    SCHED,
    FAULT,
)

#: Every category, including idle capacity.
CATEGORIES: tuple[str, ...] = BUSY_CATEGORIES + (IDLE,)

#: Thread kinds whose on-CPU time belongs to a switchless worker pool.
WORKER_KINDS = frozenset(
    {"intel-worker", "intel-tworker", "zc-worker", "zc-tworker", "hotcalls-responder"}
)

#: Thread kinds that are runtime schedulers/monitors, not application work.
SCHEDULER_KINDS = frozenset({"zc-scheduler", "monitor"})

#: Enclave boundary crossings (the paper's ``T_es`` per EEXIT+EENTER pair).
TRANSITION_TAGS = frozenset(
    {"eexit", "eenter", "ecall-enter", "ecall-exit", "enclave-create", "enclave-destroy"}
)

#: Argument marshalling and trusted/untrusted memcpy.
MARSHAL_TAGS = frozenset(
    {"marshal-in", "marshal-out", "copy-in", "copy-out", "ocall-setup", "ecall-setup"}
)

#: Switchless-call plumbing (enqueue/dispatch/pickup/complete/wake glue).
RUNTIME_TAGS = frozenset(
    {
        "sl-enqueue",
        "sl-ecall-enqueue",
        "zc-dispatch",
        "zc-pickup",
        "zc-complete",
        "zc-unpause",
        "zc-exit-cleanup",
        "zc-pool-realloc",
        "zc-ecall-dispatch",
        "zc-ecall-pool",
        "worker-pickup",
        "worker-complete",
        "worker-wake",
        "hotcall-publish",
        "hotcall-pickup",
        "hotcall-complete",
        "batch-dispatch",
        "tracer-probe",
    }
)


def classify(thread_kind: str, activity_kind: str, tag: str | None) -> str:
    """Map one kernel charge to its ledger category.

    Precedence: scheduler/monitor threads first (their compute *is*
    scheduling overhead), then spin vs. compute, then the tag tables.
    Unrecognised compute tags default to ``app`` — application logic
    carries workload-specific tags (``kissdb-hash``, ``aes-encrypt``, …)
    that the ledger deliberately does not enumerate.
    """
    if thread_kind in SCHEDULER_KINDS:
        return SCHED
    if activity_kind == "spin":
        return WORKER_SPIN if thread_kind in WORKER_KINDS else CALLER_SPIN
    tag = tag or ""
    if tag.startswith("fault-"):
        # Injected-fault overhead (stalls, enclave re-creation, rejoin
        # resets) — the `fault_overhead` quantity the regression gate
        # bounds; see repro.faults and docs/faults.md.
        return FAULT
    if tag in TRANSITION_TAGS:
        return TRANSITION
    if tag in MARSHAL_TAGS:
        return MARSHAL
    if tag.startswith("host-"):
        return HOST_EXEC
    if tag in RUNTIME_TAGS:
        return RUNTIME
    return APP


@dataclass(frozen=True)
class LedgerSnapshot:
    """The ledger's totals at one instant, with conservation inputs."""

    now_cycles: float
    n_cpus: int
    busy_cycles: float
    wall_by_category: dict[str, float]  # includes "idle"
    work_by_category: dict[str, float]  # busy categories only

    @property
    def capacity_cycles(self) -> float:
        """Total core-cycles the machine offered since time zero."""
        return self.now_cycles * self.n_cpus

    @property
    def idle_cycles(self) -> float:
        """Unoccupied capacity."""
        return self.wall_by_category.get(IDLE, 0.0)

    def conservation_error(self) -> float:
        """|sum of categorised wall cycles − machine capacity|."""
        return abs(sum(self.wall_by_category.values()) - self.capacity_cycles)

    def assert_balanced(self, rel_tol: float = 1e-6) -> None:
        """Raise ``AssertionError`` unless the ledger balances.

        Balanced means the categorised wall cycles (including idle) equal
        the machine's total capacity within ``rel_tol``, i.e. no simulated
        cycle escaped attribution.
        """
        scale = max(self.capacity_cycles, 1.0)
        error = self.conservation_error()
        if error > rel_tol * scale:
            budget = ", ".join(
                f"{cat}={cycles:.0f}" for cat, cycles in sorted(self.wall_by_category.items())
            )
            raise AssertionError(
                f"cycle ledger does not balance: capacity={self.capacity_cycles:.0f}, "
                f"categorised={sum(self.wall_by_category.values()):.0f} "
                f"(error {error:.1f} cycles; {budget})"
            )


class CycleLedger:
    """Accumulates per-(thread kind, activity, tag) cycle charges.

    Installed as ``kernel.ledger``.  The kernel's accounting hot path does
    not touch :attr:`table` at all: it charges into per-thread nested
    dicts (``SimThread.ledger_cells``), which avoids building a key tuple
    on every accounting interval.  :meth:`snapshot` folds those into the
    table via :meth:`fold_thread_cells`; :meth:`charge` is the equivalent
    convenience entry point for everything off the hot path.
    """

    __slots__ = ("table",)

    def __init__(self) -> None:
        #: (thread_kind, activity_kind, tag) -> [wall_cycles, work_cycles].
        self.table: dict[tuple[str, str, str | None], list[float]] = {}

    def charge(
        self, thread_kind: str, activity_kind: str, tag: str | None, wall: float, work: float
    ) -> None:
        """Record ``wall`` occupancy cycles (``work`` nominal) for one charge."""
        table = self.table
        key = (thread_kind, activity_kind, tag)
        cell = table.get(key)
        if cell is None:
            cell = table[key] = [0.0, 0.0]
        cell[0] += wall
        cell[1] += work

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def cells(self) -> dict[tuple[str, str, str | None], tuple[float, float]]:
        """Raw (kind, activity, tag) → (wall, work) charges, for drill-down."""
        return {key: (cell[0], cell[1]) for key, cell in self.table.items()}

    def wall_by_category(self) -> dict[str, float]:
        """Wall cycles per busy category."""
        totals = {cat: 0.0 for cat in BUSY_CATEGORIES}
        for (kind, activity, tag), cell in self.table.items():
            totals[classify(kind, activity, tag)] += cell[0]
        return totals

    def work_by_category(self) -> dict[str, float]:
        """Nominal (SMT-degradation-free) cycles per busy category."""
        totals = {cat: 0.0 for cat in BUSY_CATEGORIES}
        for (kind, activity, tag), cell in self.table.items():
            totals[classify(kind, activity, tag)] += cell[1]
        return totals

    def total_wall_cycles(self) -> float:
        """Sum of all charged wall cycles (= machine busy cycles)."""
        return sum(cell[0] for cell in self.table.values())

    def fold_thread_cells(self, threads) -> None:
        """Merge the kernel's per-thread charges into :attr:`table`.

        The hot path accumulates into ``SimThread.ledger_cells``; folding
        clears each thread's cells so repeated folds never double-count.
        """
        table = self.table
        for thread in threads:
            cells = thread.ledger_cells
            if not cells:
                continue
            thread.ledger_cells = None
            thread_kind = thread.kind
            for activity_kind, by_tag in cells.items():
                for tag, (wall, work) in by_tag.items():
                    key = (thread_kind, activity_kind, tag)
                    cell = table.get(key)
                    if cell is None:
                        table[key] = [wall, work]
                    else:
                        cell[0] += wall
                        cell[1] += work

    def snapshot(self, kernel) -> LedgerSnapshot:
        """Totals plus idle capacity at ``kernel.now`` (flushes accounting).

        Folds the cells of ``kernel.threads`` in spawn order: the running
        threads, and the finished ones the kernel kept for this fold (and
        releases once it is done).  A thread with no cells adds nothing,
        so every total is the float an all-threads fold would give.
        """
        kernel.flush_accounting()
        self.fold_thread_cells(kernel.threads)
        kernel.release_finished()
        busy = sum(core.busy_cycles for core in kernel.cpus)
        capacity = kernel.now * len(kernel.cpus)
        wall = self.wall_by_category()
        wall[IDLE] = max(capacity - busy, 0.0)
        return LedgerSnapshot(
            now_cycles=kernel.now,
            n_cpus=len(kernel.cpus),
            busy_cycles=busy,
            wall_by_category=wall,
            work_by_category=self.work_by_category(),
        )
