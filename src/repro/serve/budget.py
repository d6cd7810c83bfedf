"""Cross-enclave worker-budget arbitration.

Each ZC shard runs the paper's feedback scheduler unmodified: every
quantum it sweeps candidate worker counts and activates the ``argmin
U_i``.  On a shared machine, N independent argmin loops can collectively
decide on more spinning workers than there are spare cores — each shard's
sweep is locally optimal and globally oblivious.

The arbiter closes that gap without touching the scheduler: it sits
behind :meth:`repro.core.backend.ZcSwitchlessBackend.set_active_workers`
and clips each backend's requested count to its share of a global cap.
First-come-first-served over the *current* grants: a shard can always
shrink, and can grow into whatever the others are not using.  Because
every scheduler re-sweeps each quantum, budget freed by one shard is
picked up by the others within a quantum — no explicit rebalancing pass.
"""

from __future__ import annotations

from typing import Any, Protocol


class BudgetClaimant(Protocol):
    """What the arbiter needs from a claimant (zc backends satisfy it)."""

    @property
    def kernel(self) -> Any: ...


class WorkerBudgetArbiter:
    """Clips per-shard worker grants to a global core budget.

    Args:
        cap: Maximum switchless workers across all registered claimants
            (a logical-core budget for the fleet).
    """

    def __init__(self, cap: int) -> None:
        if cap < 0:
            raise ValueError("worker budget cap must be >= 0")
        self.cap = cap
        #: Current grant per claimant (identity-keyed).
        self.grants: dict[Any, int] = {}
        #: Times a request was clipped below what was asked.
        self.clipped = 0
        #: ∫ cap(t) dt over the closed cap steps, and where the open
        #: (current) step began: the autoscaler retunes the cap per
        #: control window, and the fleet accounting integrates
        #: provisioned worker-cycles over the trajectory.
        self._closed_integral = 0.0
        self._since = 0.0

    def set_cap(self, cap: int, *, at: float) -> None:
        """Retune the global cap from simulated cycle ``at`` on
        (autoscaler surface).

        Existing grants are not clawed back — each shard's next argmin
        re-sweep passes through :meth:`grant` and lands under the new
        cap within a quantum.
        """
        if cap < 0:
            raise ValueError("worker budget cap must be >= 0")
        if at > self._since:
            self._closed_integral += self.cap * (at - self._since)
        self.cap = cap
        self._since = at

    def cap_integral(self, end: float) -> float:
        """Provisioned worker-cycles: ∫ cap(t) dt over ``[0, end]``, for
        an ``end`` at or after the last :meth:`set_cap` step.

        This is the *budgeted* fleet capacity the wasted-cycle objective
        charges for, whether or not the shards spun workers up to it.
        """
        if end > self._since:
            return self._closed_integral + self.cap * (end - self._since)
        return self._closed_integral

    @property
    def in_use(self) -> int:
        """Workers currently granted across all claimants."""
        return sum(self.grants.values())

    def grant(self, claimant: BudgetClaimant, count: int) -> int:
        """Grant ``claimant`` up to ``count`` workers; returns the grant.

        The claimant's previous grant is released first, so a shard can
        always shrink and re-grow within its own share.
        """
        others = sum(n for c, n in self.grants.items() if c is not claimant)
        granted = max(0, min(count, self.cap - others))
        self.grants[claimant] = granted
        if granted < count:
            self.clipped += 1
            bus = getattr(claimant.kernel, "bus", None)
            if bus is not None:
                bus.emit(
                    "serve.budget.clip",
                    requested=count,
                    granted=granted,
                    in_use=self.in_use,
                    cap=self.cap,
                )
        return granted

    def release(self, claimant: BudgetClaimant) -> None:
        """Return ``claimant``'s grant to the pool (backend teardown)."""
        self.grants.pop(claimant, None)
