"""Tests for the serving load generator (open and closed loop)."""

import pytest

from repro.api import ServeSpec
from repro.serve import LoadGenerator, LoadSpec, build_cluster

QUICK = ServeSpec(shards=2, budget=4, servers_per_shard=1)


class TestLoadSpec:
    def test_closed_loop_needs_a_bound(self):
        with pytest.raises(ValueError, match="bound"):
            LoadSpec(requests_per_client=None, duration_s=None)

    def test_open_loop_needs_a_bound(self):
        with pytest.raises(ValueError, match="bound"):
            LoadSpec(rate_rps=1000.0, total_requests=None, duration_s=None)

    def test_keydist_validated(self):
        with pytest.raises(ValueError, match="keydist"):
            LoadSpec(keydist="hot")


class TestClosedLoop:
    def test_issues_exactly_the_request_budget(self):
        with build_cluster(QUICK, telemetry=False) as cluster:
            spec = LoadSpec(clients=3, requests_per_client=20)
            generator = LoadGenerator(cluster.kernel, cluster.router, spec)
            generator.run()
            assert generator.issued == 60
            assert cluster.router.submitted == 60
            assert cluster.router.completed == 60

    def test_deadline_bounds_the_run(self):
        with build_cluster(QUICK, telemetry=False) as cluster:
            spec = LoadSpec(
                clients=2, requests_per_client=None, duration_s=0.001
            )
            generator = LoadGenerator(cluster.kernel, cluster.router, spec)
            generator.run()
            assert generator.issued > 0
            assert cluster.kernel.seconds(cluster.kernel.now) <= 0.002


class TestOpenLoop:
    def test_total_requests_bound(self):
        with build_cluster(QUICK, telemetry=False) as cluster:
            spec = LoadSpec(rate_rps=100_000.0, total_requests=40)
            generator = LoadGenerator(cluster.kernel, cluster.router, spec)
            generator.run()
            assert generator.issued == 40
            assert cluster.router.completed + cluster.router.shed == 40

    def test_same_seed_same_schedule(self):
        counts = []
        for _ in range(2):
            with build_cluster(QUICK, telemetry=False) as cluster:
                spec = LoadSpec(rate_rps=50_000.0, duration_s=0.002, seed=3)
                generator = LoadGenerator(cluster.kernel, cluster.router, spec)
                generator.run()
                counts.append(
                    (generator.issued, cluster.router.stats()["completed"])
                )
        assert counts[0] == counts[1]

    def test_different_seeds_differ(self):
        issued = []
        for seed in (0, 1):
            with build_cluster(QUICK, telemetry=False) as cluster:
                spec = LoadSpec(rate_rps=50_000.0, duration_s=0.002, seed=seed)
                generator = LoadGenerator(cluster.kernel, cluster.router, spec)
                generator.run()
                issued.append(generator.issued)
        # Poisson gaps are seed-derived; identical counts for different
        # seeds would suggest the seed is ignored.
        assert issued[0] != issued[1]


class TestMix:
    def test_sets_reach_the_wal(self):
        with build_cluster(QUICK, telemetry=False) as cluster:
            spec = LoadSpec(clients=2, requests_per_client=30, set_fraction=1.0)
            LoadGenerator(cluster.kernel, cluster.router, spec).run()
            mutations = sum(shard.server.mutations for shard in cluster.shards)
            assert mutations == 60

    def test_get_only_mix_mutates_nothing(self):
        with build_cluster(QUICK, telemetry=False) as cluster:
            spec = LoadSpec(clients=2, requests_per_client=30, set_fraction=0.0)
            LoadGenerator(cluster.kernel, cluster.router, spec).run()
            assert sum(shard.server.mutations for shard in cluster.shards) == 0


class TestEdgeCases:
    def test_zero_weight_tenant_rejected(self):
        with pytest.raises(ValueError, match="weights must be positive"):
            LoadSpec(
                clients=1,
                requests_per_client=1,
                tenants=(("gold", 1.0), ("free", 0.0)),
            )

    def test_negative_weight_tenant_rejected(self):
        with pytest.raises(ValueError, match="weights must be positive"):
            LoadSpec(rate_rps=100.0, duration_s=0.001, tenants=(("t", -2.0),))

    def test_single_request_closed_loop(self):
        with build_cluster(QUICK, telemetry=False) as cluster:
            spec = LoadSpec(clients=1, requests_per_client=1)
            generator = LoadGenerator(cluster.kernel, cluster.router, spec)
            generator.run()
            assert generator.issued == 1
            assert cluster.router.completed == 1

    def test_single_request_open_loop(self):
        with build_cluster(QUICK, telemetry=False) as cluster:
            spec = LoadSpec(rate_rps=10_000.0, total_requests=1)
            generator = LoadGenerator(cluster.kernel, cluster.router, spec)
            generator.run()
            assert generator.issued == 1
            assert cluster.router.completed + cluster.router.shed == 1

    def test_arrival_due_exactly_at_the_deadline_is_not_issued(self, monkeypatch):
        # The open-loop window [start, deadline) is half-open, mirroring
        # the sampler's window grid: an arrival due ON the deadline
        # belongs to what follows, and here nothing follows.  Scripted
        # gaps pin arrival 2 exactly on the boundary (0.002 + 0.002
        # cycles sum exactly to the 0.004 deadline in floats).
        import random as random_mod

        import repro.serve.loadgen as loadgen_mod

        gaps = [0.002, 0.002]

        class Scripted(random_mod.Random):
            def expovariate(self, rate):
                return gaps.pop(0) if gaps else 1.0

        monkeypatch.setattr(loadgen_mod.random, "Random", Scripted)
        with build_cluster(QUICK, telemetry=False) as cluster:
            spec = LoadSpec(rate_rps=500.0, duration_s=0.004, seed=0)
            generator = LoadGenerator(cluster.kernel, cluster.router, spec)
            generator.run()
            # Arrival 1 (due at 0.002) issues; arrival 2 (due == the
            # deadline) must not.
            assert generator.issued == 1

    def test_arrival_on_a_sampler_window_edge_lands_in_the_next_window(self):
        # Glue the two half-open grids together: run a sampler whose
        # interval divides the load duration, and check no arrival is
        # ever counted past the horizon (the last window's edge).
        from repro.obs import MetricSampler

        with build_cluster(QUICK, telemetry=False) as cluster:
            kernel = cluster.kernel
            interval = kernel.cycles(0.001)
            sampler = MetricSampler(
                kernel, interval, 4, shards=cluster.shards
            ).install()
            spec = LoadSpec(rate_rps=5_000.0, duration_s=0.004, seed=2)
            LoadGenerator(kernel, cluster.router, spec).run()
            submitted = {
                raw["window"]: raw["lanes"].get("total", {}).get("submitted", 0)
                for raw in sampler.raw_windows
            }
            sampler.detach()
        # Arrivals stay strictly inside the 4-window grid: the deadline
        # coincides with the horizon and both sides are exclusive there.
        assert sampler.spilled == {}
        assert sum(submitted.values()) > 0
