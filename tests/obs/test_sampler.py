"""Tests for the windowed metric sampler (bucketing + determinism)."""

import json

import pytest

from repro.api import BenchSpec, ServeSpec, SpecError
from repro.obs import MetricSampler, merge_raw_windows
from repro.obs.sampler import merge_spilled, shard_lane, tenant_lane
from repro.serve.bench import run_bench
from repro.sim import Kernel, server_machine


# Light but non-trivial: the simulated machine stays contention-free so
# scheduler-local behavior is layout-invariant (same hedge as the slice
# equivalence tests), and the tenant mix exercises tenant lanes.
def identity(shards, slices=1, *, obs=True):
    return BenchSpec(
        serve=ServeSpec(
            shards=shards,
            backend="intel",
            tenants=(("alpha", 3.0), ("beta", 1.0)),
        ),
        seconds=0.04,
        rate=3_000.0,
        seed=11,
        slices=slices,
        obs=obs,
    )


def _stream(result):
    obs = result["obs"]
    return (
        json.dumps(obs["records"], sort_keys=True),
        json.dumps(obs["anomalies"], sort_keys=True),
    )


@pytest.fixture(scope="module")
def long_stream():
    """One 16-shard run on a 4,000-window grid, and the records the
    sampler emitted live."""
    live = []
    result = run_bench(
        BenchSpec(
            serve=ServeSpec(shards=16, budget=32),
            seconds=0.02,
            rate=4_000.0,
            obs=True,
            obs_interval=13_000.0,
        ),
        telemetry=False,
        obs_on_window=lambda index, records, anomalies: live.extend(records),
    )
    return result, live


class TestWindowing:
    def _sampler(self, interval=100.0, windows=4, **kw):
        kernel = Kernel(server_machine())
        sampler = MetricSampler(kernel, interval, windows, **kw).install()
        return kernel, sampler

    def test_validates_arguments(self):
        kernel = Kernel(server_machine())
        with pytest.raises(ValueError, match="interval_cycles"):
            MetricSampler(kernel, 0.0, 4)
        with pytest.raises(ValueError, match="n_windows"):
            MetricSampler(kernel, 100.0, 0)

    def test_event_buckets_by_grid_index(self):
        kernel, sampler = self._sampler()
        kernel.now = 150.0
        kernel.bus.emit(
            "serve.request.submit", shard=0, op="get", tenant="", request_id="a"
        )
        sampler.detach()
        assert sampler.raw_windows[1]["lanes"]["total"]["submitted"] == 1
        assert sampler.raw_windows[0]["lanes"] == {}

    def test_boundary_event_opens_the_next_window(self):
        # Window k covers [k·I, (k+1)·I): a t == boundary event is the
        # first of window k+1, never the last of window k.
        kernel, sampler = self._sampler()
        kernel.now = 100.0
        kernel.bus.emit(
            "serve.request.submit", shard=0, op="get", tenant="", request_id="a"
        )
        sampler.detach()
        assert sampler.raw_windows[0]["lanes"] == {}
        assert sampler.raw_windows[1]["lanes"]["total"]["submitted"] == 1

    def test_past_horizon_events_spill(self):
        kernel, sampler = self._sampler(interval=100.0, windows=2)
        kernel.now = 200.0  # == horizon
        kernel.bus.emit(
            "serve.request.submit", shard=1, op="get", tenant="t", request_id="a"
        )
        sampler.detach()
        assert sampler.spilled == {
            "total": {"submitted": 1},
            shard_lane(1): {"submitted": 1},
            tenant_lane("t"): {"submitted": 1},
        }
        assert all(not raw["lanes"] for raw in sampler.raw_windows)

    def test_detach_flushes_the_whole_grid_and_restores_the_bus(self):
        records = []
        kernel, sampler = self._sampler(
            windows=3, on_window=lambda index, recs, anomalies: records.extend(recs)
        )
        assert kernel.bus is not None  # owned emit shim installed
        sampler.detach()
        assert kernel.bus is None
        assert len(sampler.raw_windows) == 3
        assert len(records) == 3  # one total-lane record each
        sampler.detach()  # idempotent
        assert len(sampler.raw_windows) == 3

    def test_lane_order_is_total_shards_then_sorted_tenants(self):
        records = []
        kernel, sampler = self._sampler(
            windows=1, on_window=lambda index, recs, anomalies: records.extend(recs)
        )
        kernel.now = 10.0
        for tenant in ("zeta", "alpha"):
            kernel.bus.emit(
                "serve.request.submit",
                shard=0,
                op="get",
                tenant=tenant,
                request_id=tenant,
            )
        sampler.detach()
        lanes = [record["lane"] for record in records]
        assert lanes == ["total", "tenant:alpha", "tenant:zeta"]


class TestBenchIntegration:
    def test_windowed_totals_conserve_router_counts(self):
        result = run_bench(
            BenchSpec(
                serve=ServeSpec(shards=2, budget=8),
                seconds=0.03,
                rate=3_000.0,
                seed=0,
                obs=True,
            ),
            telemetry=False,
        )
        totals = {"completed": 0, "shed": 0, "submitted": 0}
        for record in result["obs"]["records"]:
            if record["lane"] == "total":
                for key in totals:
                    totals[key] += record[key]
        assert totals["completed"] == result["totals"]["completed"]
        assert totals["shed"] == result["totals"]["shed"]
        assert totals["submitted"] == result["totals"]["submitted"]
        assert result["obs"]["spilled"] == {}

    def test_long_streams_keep_every_window(self, long_stream):
        # 4,000 windows x 17 lanes = 68,000 records: the artifact keeps
        # every one of them, record for record what the sampler emitted
        # live, starting at window 0.
        result, live = long_stream
        records = result["obs"]["records"]
        assert len(records) == 4_000 * 17
        assert records[0]["window"] == 0 and records[-1]["window"] == 3_999
        assert records == live

    def test_windowed_plus_spilled_totals_reconcile(self, long_stream):
        # Requests reach the router a parse delay after their arrival, so
        # the last ones land past this grid's horizon: the total lane's
        # windows plus its spill must still add up to the router's totals.
        result, _ = long_stream
        spilled = result["obs"]["spilled"]["total"]
        assert spilled["submitted"] > 0
        for counter in ("submitted", "completed", "shed", "failed"):
            windowed = sum(
                record[counter]
                for record in result["obs"]["records"]
                if record["lane"] == "total"
            )
            assert windowed + spilled.get(counter, 0) == result["totals"][counter], counter

    def test_obs_interval_validation(self):
        with pytest.raises(SpecError, match="obs_interval"):
            BenchSpec(
                serve=ServeSpec(shards=2),
                seconds=0.01,
                obs=True,
                obs_interval=-1.0,
            )

    def test_rerun_is_bit_identical(self):
        first = run_bench(identity(4), telemetry=False)
        second = run_bench(identity(4), telemetry=False)
        assert _stream(first) == _stream(second)

    def test_sliced_stream_is_bit_identical_to_unsliced(self):
        # The acceptance bar: same seed ⇒ the merged --slices N window
        # stream (records AND anomaly verdicts) is byte-identical to the
        # unsliced run's.
        unsliced = run_bench(identity(4), telemetry=False)
        sliced = run_bench(identity(4, 2), jobs=1)
        assert unsliced["obs"]["lanes"] == sliced["obs"]["lanes"]
        assert _stream(unsliced) == _stream(sliced)

    def test_sampler_does_not_perturb_the_simulation(self):
        plain = run_bench(identity(2, obs=False), telemetry=False)
        attached = run_bench(identity(2), telemetry=False)
        assert attached["totals"]["completed"] == plain["totals"]["completed"]
        assert attached["totals"]["latency_us"] == plain["totals"]["latency_us"]
        assert attached["per_shard"] == plain["per_shard"]


class TestMergeHelpers:
    def test_merge_superposes_counters_and_pools_samples(self):
        a = [
            {
                "window": 0,
                "lanes": {
                    "total": {
                        "submitted": 2,
                        "completed": 1,
                        "shed": 0,
                        "preempted": 0,
                        "failed": 0,
                        "faults": 0,
                        "sched_decisions": 0,
                        "fallbacks": 1,
                        "u_cycles": 0.0,
                        "latency_cycles": [10.0],
                    },
                    "shard0": {
                        "submitted": 2,
                        "completed": 1,
                        "shed": 0,
                        "preempted": 0,
                        "failed": 0,
                        "faults": 0,
                        "sched_decisions": 0,
                        "fallbacks": 0,
                        "u_cycles": 5.0,
                        "latency_cycles": [10.0],
                    },
                },
                "gauges": {"shard0": {"queue_depth": 1}},
            }
        ]
        b = [
            {
                "window": 0,
                "lanes": {
                    "total": {
                        "submitted": 1,
                        "completed": 1,
                        "shed": 0,
                        "preempted": 0,
                        "failed": 0,
                        "faults": 0,
                        "sched_decisions": 0,
                        "fallbacks": 0,
                        "u_cycles": 0.0,
                        "latency_cycles": [20.0],
                    },
                    "shard1": {
                        "submitted": 1,
                        "completed": 1,
                        "shed": 0,
                        "preempted": 0,
                        "failed": 0,
                        "faults": 0,
                        "sched_decisions": 0,
                        "fallbacks": 0,
                        "u_cycles": 7.0,
                        "latency_cycles": [20.0],
                    },
                },
                "gauges": {"shard1": {"queue_depth": 2}},
            }
        ]
        (merged,) = merge_raw_windows([a, b])
        assert merged["lanes"]["total"]["submitted"] == 3
        assert merged["lanes"]["total"]["latency_cycles"] == [10.0, 20.0]
        assert merged["lanes"]["total"]["fallbacks"] == 1
        # Shard lanes copy whole from their single owning slice.
        assert merged["lanes"]["shard0"]["u_cycles"] == 5.0
        assert merged["lanes"]["shard1"]["u_cycles"] == 7.0
        assert merged["gauges"] == {
            "shard0": {"queue_depth": 1},
            "shard1": {"queue_depth": 2},
        }

    def test_merge_spilled_sums_lanes(self):
        assert merge_spilled(
            [
                {"total": {"submitted": 1}},
                {"total": {"submitted": 2, "completed": 1}, "shard0": {"completed": 1}},
            ]
        ) == {
            "total": {"submitted": 3, "completed": 1},
            "shard0": {"completed": 1},
        }
