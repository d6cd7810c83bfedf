"""Unit tests for the cross-enclave worker-budget arbiter."""

import pytest

from repro.serve import WorkerBudgetArbiter


class Claimant:
    kernel = None


class TestArbiter:
    def test_cap_validation(self):
        with pytest.raises(ValueError):
            WorkerBudgetArbiter(-1)
        assert WorkerBudgetArbiter(0).cap == 0

    def test_grants_within_cap(self):
        arbiter = WorkerBudgetArbiter(8)
        a, b = Claimant(), Claimant()
        assert arbiter.grant(a, 6) == 6
        assert arbiter.grant(b, 6) == 2  # clipped to the remainder
        assert arbiter.in_use == 8
        assert arbiter.clipped == 1

    def test_shrink_frees_budget_for_others(self):
        arbiter = WorkerBudgetArbiter(8)
        a, b = Claimant(), Claimant()
        arbiter.grant(a, 8)
        assert arbiter.grant(b, 4) == 0
        assert arbiter.grant(a, 2) == 2  # a shrinks within its own share
        assert arbiter.grant(b, 4) == 4  # b grows into the freed budget
        assert arbiter.in_use == 6

    def test_release_returns_grant_to_pool(self):
        arbiter = WorkerBudgetArbiter(4)
        a, b = Claimant(), Claimant()
        arbiter.grant(a, 4)
        arbiter.release(a)
        assert arbiter.in_use == 0
        assert arbiter.grant(b, 4) == 4
        arbiter.release(a)  # releasing an unknown claimant is a no-op

    def test_zero_cap_grants_nothing(self):
        arbiter = WorkerBudgetArbiter(0)
        assert arbiter.grant(Claimant(), 5) == 0
        assert arbiter.clipped == 1

    def test_regrant_replaces_not_accumulates(self):
        arbiter = WorkerBudgetArbiter(8)
        a = Claimant()
        for _ in range(5):
            assert arbiter.grant(a, 3) == 3
        assert arbiter.in_use == 3

    def test_cap_integral_is_the_stepwise_sum(self):
        # A step at 0, two steps at one instant (the first lasts no time)
        # and a zero cap, at cycle stamps that are not exact in binary:
        # the integral must add the same products in the same order.
        arbiter = WorkerBudgetArbiter(8)
        for at, cap in [(0.0, 6), (1_000.1, 3), (2_500.7, 9), (2_500.7, 0), (4_000.3, 5)]:
            arbiter.set_cap(cap, at=at)
        closed = 6 * (1_000.1 - 0.0) + 3 * (2_500.7 - 1_000.1) + 0 * (4_000.3 - 2_500.7)
        end = 7_777.7
        assert arbiter.cap == 5
        assert arbiter.cap_integral(4_000.3) == closed
        assert arbiter.cap_integral(end) == closed + 5 * (end - 4_000.3)
