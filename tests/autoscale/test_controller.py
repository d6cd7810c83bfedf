"""Tests for the autoscale control loop on synthetic obs windows.

A real spec-built cluster, a fake window sampler: each test scripts the
per-lane ``submitted`` records a closed window would carry and fires the
controller's hook directly, so the control decisions (spawn, retire,
suppression, admission gating) are pinned without running a load
generator.
"""

import pytest

from repro.api import AutoscaleSpec, BenchSpec, ServeSpec
from repro.autoscale.controller import DEFAULT_SERVICE_CYCLES, AutoscaleController
from repro.serve.bench import build_cluster
from repro.sim.instructions import Sleep

#: Wide enough that one window's overload pays for an enclave build.
WINDOW = 20_000_000.0

AUTOSCALE = AutoscaleSpec(
    min_shards=1,
    max_shards=4,
    worker_options=(1, 2),
    batch_options=(1, 2),
)

SPEC = ServeSpec(shards=2, autoscale=AUTOSCALE)


class FakeSampler:
    """Just the two members the controller uses: interval + hook list."""

    def __init__(self, interval=WINDOW):
        self.interval = interval
        self.hooks = []

    def add_on_window(self, hook):
        self.hooks.append(hook)

    def fire(self, index, records):
        for hook in self.hooks:
            hook(index, records, [])


def window(total, **tenants):
    """One closed window's records: a total lane plus tenant lanes."""
    records = [{"lane": "total", "submitted": total}]
    records.extend(
        {"lane": f"tenant:{name}", "submitted": count}
        for name, count in tenants.items()
    )
    return records


def settle(cluster, cycles=None):
    """Advance simulated time so in-flight bring-ups/teardowns finish."""
    if cycles is None:
        cycles = 10 * WINDOW

    def sleeper():
        yield Sleep(cycles)

    kernel = cluster.kernel
    kernel.join(kernel.spawn(sleeper(), name="test-settle"))


@pytest.fixture
def rig():
    with build_cluster(SPEC, telemetry=False) as cluster:
        sampler = FakeSampler()
        controller = AutoscaleController(cluster, AUTOSCALE, sampler).install()
        yield cluster, sampler, controller


class TestWiring:
    def test_needs_a_spec_built_cluster_and_a_sampler(self):
        with build_cluster(SPEC, telemetry=False) as cluster:
            with pytest.raises(ValueError, match="sampler"):
                AutoscaleController(cluster, AUTOSCALE, None)
            cluster.spec = None
            with pytest.raises(ValueError, match="spec-built"):
                AutoscaleController(cluster, AUTOSCALE, FakeSampler())

    def test_install_arms_the_predictive_gate(self, rig):
        cluster, sampler, controller = rig
        assert cluster.router.predictive_gate == controller._admit
        assert sampler.hooks == [controller._on_window]


class TestScaleUp:
    def test_sustained_overload_spawns_to_the_ceiling(self, rig):
        cluster, sampler, controller = rig
        sampler.fire(0, window(50_000))
        assert controller.spawns == 2  # 2 live -> the band's max of 4
        assert controller.decisions[-1]["plan_shards"] == 4
        assert controller.decisions[-1]["spawned"] == 2
        settle(cluster)
        live = [
            s.index
            for s in cluster.router.shards
            if s.index not in cluster.router.retired
        ]
        assert sorted(live) == [0, 1, 2, 3]

    def test_spawned_shards_charge_the_lifecycle_ledger(self, rig):
        cluster, sampler, controller = rig
        sampler.fire(0, window(50_000))
        spawned = [e for e in cluster.lifecycle if e["shard"] >= 2]
        assert len(spawned) == 2
        assert all(e["creation_cycles"] > 0 for e in spawned)
        assert all(e["retired_at"] is None for e in spawned)

    def test_quarantine_suppresses_the_spawn(self, rig):
        cluster, sampler, controller = rig
        cluster.router.quarantined.add(0)
        sampler.fire(0, window(50_000))
        assert controller.spawns == 0
        assert controller.suppressed_spawns == 1
        assert controller.decisions[-1]["spawned"] == 0
        # The episode over, the next window scales up normally.
        cluster.router.quarantined.discard(0)
        sampler.fire(1, window(50_000))
        assert controller.spawns > 0


class TestScaleDown:
    def test_idle_windows_retire_to_the_floor(self, rig):
        cluster, sampler, controller = rig
        for index in range(8):
            sampler.fire(index, window(0))
        # min_shards is 1, and the newest-index shard goes first.
        assert controller.retires == 1
        assert cluster.router.retired == {1}
        assert controller.decisions[-1]["plan_shards"] == 1
        settle(cluster)
        entry = next(e for e in cluster.lifecycle if e["shard"] == 1)
        assert entry["retired_at"] is not None
        assert entry["destruction_cycles"] > 0

    def test_the_fleet_tracks_a_diurnal_curve(self, rig):
        cluster, sampler, controller = rig
        live = []
        for index, total in enumerate([50_000, 50_000, 0, 0, 0, 0, 0, 0]):
            sampler.fire(index, window(total))
            settle(cluster)
            live.append(controller._live_shards())
        assert max(live) == 4
        assert live[-1] == 1
        assert controller.spawns == 2
        assert controller.retires == 3

    def test_retire_never_strands_the_last_shard(self, rig):
        cluster, sampler, controller = rig
        # Quarantine one of two shards: the other is the sole candidate,
        # and the candidate floor (> 1) refuses to retire it.
        cluster.router.quarantined.add(1)
        sampler.fire(0, window(0))
        assert controller.retires == 0


class TestServiceEstimate:
    def test_spans_refresh_the_service_estimate(self, rig):
        cluster, sampler, controller = rig
        for span in (
            {"status": "ok", "t_dequeue": 0.0, "t_result": 30_000.0},
            {"status": "shed", "t_dequeue": None, "t_result": None},
            {"status": "ok", "t_dequeue": 10.0, "t_result": 10.0},
        ):
            for subscriber in cluster.router.span_subscribers:
                subscriber(span)
        sampler.fire(0, window(10))
        # One valid sample seeds the EWMA; shed/zero-width spans are
        # ignored rather than dragging the estimate to zero.
        assert controller._service == 30_000.0
        assert controller.decisions[-1]["service_cycles"] == 30_000.0

    def test_the_estimate_keeps_moving_past_any_span_count(self, monkeypatch):
        # The router streams every span to the autoscaler, so no span
        # count freezes the estimate: a ``max_spans`` cap (the knob that
        # used to stop the span list, and with it the estimate) set on a
        # built cluster changes nothing.
        import repro.serve.bench as bench

        build = bench.build_cluster

        def build_capped(*args, **kwargs):
            cluster = build(*args, **kwargs)
            cluster.router.max_spans = 100
            return cluster

        monkeypatch.setattr(bench, "build_cluster", build_capped)
        spec = BenchSpec(
            serve=ServeSpec(shards=2, autoscale=AutoscaleSpec(max_shards=6)),
            rate=2_000.0,
            seconds=0.1,
            obs=True,
        )
        sink: list = []
        result = bench.run_bench(spec, telemetry=False, span_sink=sink)
        submitted = result["totals"]["submitted"]
        assert submitted > 150
        assert result["spans"] == {"recorded": submitted, "dropped": 0}
        assert len(sink) == submitted
        estimates = [d["service_cycles"] for d in result["autoscale"]["decisions"]]
        assert len(set(estimates[-5:])) > 1, estimates

    def test_the_prior_holds_until_a_span_lands(self, rig):
        cluster, sampler, controller = rig
        sampler.fire(0, window(10))
        assert (
            controller.decisions[-1]["service_cycles"] == DEFAULT_SERVICE_CYCLES
        )


class TestPredictiveGate:
    def test_open_when_the_forecast_fits(self, rig):
        cluster, sampler, controller = rig
        sampler.fire(0, window(10, gold=7, bronze=3))
        assert controller._gate_allowance is None
        assert controller.decisions[-1]["gated"] is False
        assert controller._admit("gold") is True

    def test_sheds_tenants_in_forecast_proportion(self, rig):
        cluster, sampler, controller = rig
        sampler.fire(0, window(200_000, gold=150_000, bronze=50_000))
        decision = controller.decisions[-1]
        assert decision["gated"] is True
        allowance = controller._gate_allowance
        capacity = decision["capacity_requests"]
        assert allowance["gold"] == pytest.approx(capacity * 0.75)
        assert allowance["bronze"] == pytest.approx(capacity * 0.25)

    def test_admission_stops_at_the_allowance(self, rig):
        cluster, sampler, controller = rig
        sampler.fire(0, window(200_000, gold=150_000, bronze=50_000))
        allowance = controller._gate_allowance["gold"]
        admitted = sum(controller._admit("gold") for _ in range(50_000))
        assert admitted == int(allowance) + (allowance != int(allowance))
        # Lanes the forecaster never saw pass through to queue admission.
        assert controller._admit("guest") is True

    def test_without_tenant_lanes_the_anonymous_lane_is_gated(self, rig):
        cluster, sampler, controller = rig
        sampler.fire(0, window(200_000))
        assert set(controller._gate_allowance) == {""}

    def test_each_window_rearms_the_gate(self, rig):
        cluster, sampler, controller = rig
        sampler.fire(0, window(200_000, gold=200_000))
        while controller._admit("gold"):
            pass
        sampler.fire(1, window(0, gold=0))
        # Forecast halved (alpha 0.5) but still over capacity; the
        # admitted counter must restart from zero.
        if controller._gate_allowance is not None:
            assert controller._admit("gold") is True


class TestReport:
    def test_decisions_and_report_shape(self, rig):
        cluster, sampler, controller = rig
        sampler.fire(0, window(50_000))
        settle(cluster)
        sampler.fire(1, window(0))
        report = controller.report()
        assert report["windows"] == 2
        assert report["spawns"] == controller.spawns
        assert report["final_cap"] == cluster.arbiter.cap
        decision = report["decisions"][0]
        for key in (
            "window",
            "t_cycles",
            "submitted",
            "forecast",
            "service_cycles",
            "live_shards",
            "plan_shards",
            "plan_workers",
            "plan_batch",
            "u_cycles",
            "cap",
            "capacity_requests",
            "gated",
            "spawned",
            "retired",
        ):
            assert key in decision, key

    def test_the_arbiter_cap_follows_the_plan(self, rig):
        cluster, sampler, controller = rig
        sampler.fire(0, window(50_000))
        decision = controller.decisions[-1]
        assert cluster.arbiter.cap == decision["plan_workers"] * decision["plan_shards"]
