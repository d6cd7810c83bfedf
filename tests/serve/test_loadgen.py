"""Tests for the serving load generator (closed loop, open loop, replay)."""

import gc
import hashlib
import json
import random
import tracemalloc

import pytest

import repro.serve.loadgen as loadgen_mod
from repro.api import BenchSpec, ServeSpec, SpecError
from repro.scenarios import ScenarioSpec, generate_trace
from repro.serve import LoadGenerator, build_cluster
from repro.serve.bench import run_bench

QUICK = ServeSpec(shards=2, budget=4, servers_per_shard=1)


def load(**kwargs):
    """A bench spec on the QUICK cluster with the given load fields."""
    return BenchSpec(serve=QUICK, **kwargs)


@pytest.fixture()
def scripted_gaps(monkeypatch):
    """Script the open loop's Poisson gaps (seconds), then 1 s each."""
    gaps = []

    class Scripted(random.Random):
        def expovariate(self, rate):
            return gaps.pop(0) if gaps else 1.0

    monkeypatch.setattr(loadgen_mod.random, "Random", Scripted)
    return gaps


class TestClosedLoop:
    def test_issues_exactly_the_request_budget(self):
        with build_cluster(QUICK, telemetry=False) as cluster:
            spec = load(clients=3, requests_per_client=20)
            generator = LoadGenerator(cluster.kernel, cluster.router, spec)
            generator.run()
            assert generator.issued == 60
            assert cluster.router.submitted == 60
            assert cluster.router.completed == 60

    def test_deadline_bounds_the_run(self):
        with build_cluster(QUICK, telemetry=False) as cluster:
            spec = load(clients=2, seconds=0.001)
            generator = LoadGenerator(cluster.kernel, cluster.router, spec)
            generator.run()
            assert generator.issued > 0
            assert cluster.kernel.seconds(cluster.kernel.now) <= 0.002

    def test_closed_loop_takes_no_trace_and_no_admit(self):
        trace = generate_trace(
            ScenarioSpec(name="t", seed=1, duration_s=0.01, rate_rps=500.0)
        )
        with build_cluster(QUICK, telemetry=False) as cluster:
            spec = load(clients=1)
            with pytest.raises(SpecError, match="open-loop; drop clients"):
                LoadGenerator(cluster.kernel, cluster.router, spec, trace=trace)
            with pytest.raises(SpecError, match="requires the open loop"):
                LoadGenerator(
                    cluster.kernel, cluster.router, spec, admit=lambda key: True
                )


class TestOpenLoop:
    def test_same_seed_same_schedule(self):
        counts = []
        for _ in range(2):
            with build_cluster(QUICK, telemetry=False) as cluster:
                spec = load(rate=50_000.0, seconds=0.002, seed=3)
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
                spec = load(rate=50_000.0, seconds=0.002, seed=seed)
                generator = LoadGenerator(cluster.kernel, cluster.router, spec)
                generator.run()
                issued.append(generator.issued)
        # Poisson gaps are seed-derived; identical counts for different
        # seeds would suggest the seed is ignored.
        assert issued[0] != issued[1]


class TestMix:
    def test_sets_reach_the_wal(self):
        with build_cluster(QUICK, telemetry=False) as cluster:
            spec = load(clients=2, requests_per_client=30, set_fraction=1.0)
            LoadGenerator(cluster.kernel, cluster.router, spec).run()
            mutations = sum(shard.server.mutations for shard in cluster.shards)
            assert mutations == 60

    def test_get_only_mix_mutates_nothing(self):
        with build_cluster(QUICK, telemetry=False) as cluster:
            spec = load(clients=2, requests_per_client=30, set_fraction=0.0)
            LoadGenerator(cluster.kernel, cluster.router, spec).run()
            assert sum(shard.server.mutations for shard in cluster.shards) == 0


class TestEdgeCases:
    def test_negative_weight_tenant_rejected(self):
        # The generator draws tenants from the serve spec's mix, which
        # refuses a negative weight before any load is specified.
        with pytest.raises(SpecError, match="weights must be positive"):
            BenchSpec(
                serve=ServeSpec(shards=2, budget=4, tenants=(("t", -2.0),)),
                rate=100.0,
                seconds=0.001,
            )

    def test_single_request_closed_loop(self):
        with build_cluster(QUICK, telemetry=False) as cluster:
            spec = load(clients=1, requests_per_client=1)
            generator = LoadGenerator(cluster.kernel, cluster.router, spec)
            generator.run()
            assert generator.issued == 1
            assert cluster.router.completed == 1

    def test_single_request_open_loop(self, scripted_gaps):
        # One arrival at 1 ms; the next gap (1 s) lands past the deadline.
        scripted_gaps.append(0.001)
        with build_cluster(QUICK, telemetry=False) as cluster:
            spec = load(rate=10_000.0, seconds=0.004)
            generator = LoadGenerator(cluster.kernel, cluster.router, spec)
            generator.run()
            assert generator.issued == 1
            assert cluster.router.completed + cluster.router.shed == 1

    def test_arrival_due_exactly_at_the_deadline_is_not_issued(self, scripted_gaps):
        # The open-loop window [start, deadline) is half-open, mirroring
        # the sampler's window grid: an arrival due ON the deadline
        # belongs to what follows, and here nothing follows.  Scripted
        # gaps pin arrival 2 exactly on the boundary (0.002 + 0.002
        # cycles sum exactly to the 0.004 deadline in floats).
        scripted_gaps.extend([0.002, 0.002])
        with build_cluster(QUICK, telemetry=False) as cluster:
            spec = load(rate=500.0, seconds=0.004, seed=0)
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
            spec = load(rate=5_000.0, seconds=0.004, seed=2)
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


class TestRetainedMemory:
    """An open-loop run keeps memory for its requests in flight, not for
    every request it served."""

    @staticmethod
    def live_after_run(seconds):
        """Requests issued, the bytes the run left live (tracemalloc), and
        the finished threads the kernel still references."""
        # Intel workers: a zc shard also logs its worker count per
        # scheduler quantum, which grows with simulated time, not requests.
        spec = BenchSpec(
            serve=ServeSpec(shards=1, backend="intel"), rate=4_000.0, seconds=seconds
        )
        with build_cluster(spec.serve, telemetry=False) as cluster:
            generator = LoadGenerator(cluster.kernel, cluster.router, spec)
            gc.collect()
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                generator.run()
                live = tracemalloc.get_traced_memory()[0] - base
            finally:
                tracemalloc.stop()
            kept = sum(1 for t in cluster.kernel.threads if t.done)
        return generator.issued, live, kept

    def test_live_memory_grows_by_at_most_256_bytes_per_request(self):
        # What stays per request is the router's latency samples and the
        # kernel's per-name spawn count, not the request's thread.
        small, small_live, _ = self.live_after_run(0.25)
        large, large_live, kept = self.live_after_run(1.0)
        assert small >= 1_000 and large >= 3_900
        assert (large_live - small_live) / (large - small) <= 256
        assert kept == 0


#: Four artifacts pinned bit for bit, one per shape of load: SHA-256 of
#: the canonical JSON (sorted keys, no spaces) of the ``run_bench``
#: artifact without its version stamp.  Each covers the seeded draw
#: order (key, op, tenant only with a mix, app only with two or more
#: apps), per-client seeds and deadlines, or the sliced open loop.
GUARDS = {
    "closed-tenants-3apps-zipf": (
        BenchSpec(
            serve=ServeSpec(
                shards=2,
                budget=4,
                tenants=(("gold", 3.0), ("bronze", 1.0)),
                apps=(("kv", 3.0), ("session", 2.0), ("crypto", 1.0)),
            ),
            clients=4,
            requests_per_client=50,
            keydist="zipf",
            seed=7,
        ),
        "49f6cb6729604831ba69b435f605beff2ccd5329ff35977c8451a739e8df140a",
    ),
    "open-tenants-2apps-seq": (
        BenchSpec(
            serve=ServeSpec(
                shards=2,
                budget=4,
                tenants=(("gold", 2.0), ("silver", 1.0)),
                apps=(("kv", 2.0), ("session", 1.0)),
            ),
            rate=3_000.0,
            seconds=0.05,
            keydist="seq",
            seed=3,
        ),
        "19dbfbc76570889f48e42f22c981948da976c69d1964779df3e83a1a75d28f97",
    ),
    "open-2-slices": (
        BenchSpec(
            serve=ServeSpec(shards=4, budget=8),
            rate=4_000.0,
            seconds=0.05,
            seed=1,
            slices=2,
        ),
        "cdfcc53bd335a0e24275a4d1992ae7d3a12ba1c93e7dd28908366d86aa9f8484",
    ),
    "closed-round-robin": (
        BenchSpec(
            serve=ServeSpec(shards=2, policy="round-robin"),
            clients=3,
            requests_per_client=40,
        ),
        "38cb87d4c44fb61da79291aad21d22fc05b38a410011c85df949982b65e527df",
    ),
}


@pytest.mark.parametrize("name", sorted(GUARDS))
def test_artifact_is_pinned_bit_for_bit(name):
    spec, digest = GUARDS[name]
    artifact = run_bench(spec, telemetry=False, jobs=1)
    artifact.pop("meta")
    blob = json.dumps(artifact, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == digest
