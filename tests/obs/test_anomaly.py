"""Tests for the online anomaly detector (EWMA bands + CUSUM)."""

from repro.api import BenchSpec, ServeSpec
from repro.obs import AnomalyDetector, MetricSampler
from repro.serve import LoadGenerator, build_cluster


def _record(window, value, lane="total", metric="throughput_rps"):
    base = {
        "record": "serve.window",
        "window": window,
        "lane": lane,
        "t_end_cycles": float(window + 1) * 100.0,
        "throughput_rps": 0.0,
        "p99_us": 0.0,
        "queue_depth": 0,
        "shed": 0,
    }
    base[metric] = value
    return base


def _steady(n, value=100.0):
    return [_record(i, value) for i in range(n)]


class TestEwmaBands:
    def test_quiet_stream_stays_quiet(self):
        detector = AnomalyDetector()
        assert detector.observe_all(_steady(30)) == []

    def test_warmup_swallows_early_transients(self):
        # The same spike that alarms post-warmup is free during warmup.
        detector = AnomalyDetector(warmup=8)
        records = [_record(0, 100.0), _record(1, 10_000.0)] + _steady(10)
        early = [a for a in detector.observe_all(records) if a["window"] <= 1]
        assert early == []

    def test_step_triggers_band_and_cusum(self):
        detector = AnomalyDetector()
        records = _steady(20) + [_record(20, 500.0)]
        anomalies = detector.observe_all(records)
        kinds = {a["kind"] for a in anomalies}
        assert "ewma-band" in kinds
        assert "cusum-changepoint" in kinds
        assert all(a["window"] == 20 for a in anomalies)
        assert all(a["metric"] == "throughput_rps" for a in anomalies)

    def test_detector_is_deterministic(self):
        records = _steady(15) + [_record(15, 900.0)] + _steady(5, 110.0)
        first = AnomalyDetector().observe_all(list(records))
        second = AnomalyDetector().observe_all(list(records))
        assert first == second

    def test_lanes_and_metrics_tracked_independently(self):
        detector = AnomalyDetector()
        records = []
        for i in range(20):
            records.append(_record(i, 100.0, lane="total"))
            records.append(_record(i, 50.0, lane="shard0"))
        records.append(_record(20, 100.0, lane="total"))
        records.append(_record(20, 5_000.0, lane="shard0"))
        anomalies = detector.observe_all(records)
        assert anomalies and all(a["lane"] == "shard0" for a in anomalies)

    def test_incremental_observe_matches_batch(self):
        records = _steady(20) + [_record(20, 700.0)]
        batch = AnomalyDetector().observe_all(list(records))
        incremental = AnomalyDetector()
        collected = []
        for record in records:
            collected.extend(incremental.observe(record))
        assert collected == batch
        assert incremental.anomalies == batch


class TestFlashCrowd:
    def test_cusum_changepoint_lands_on_the_injected_shift_window(self):
        # Unit form of the acceptance scenario: a synthetic flash crowd
        # steps the rate 5x at window 20 of 40.  The changepoint must
        # carry exactly that window index.
        detector = AnomalyDetector()
        records = _steady(20, 100.0) + [
            _record(i, 500.0) for i in range(20, 40)
        ]
        changepoints = [
            a
            for a in detector.observe_all(records)
            if a["kind"] == "cusum-changepoint"
        ]
        assert changepoints
        assert changepoints[0]["window"] == 20

    def test_seeded_flash_crowd_run_flags_the_shift(self):
        # Integration form: one cluster, one sampler, two sequential
        # seeded open-loop phases (trickle then crowd).  The CUSUM
        # changepoint must land on the window containing the rate shift.
        serve = ServeSpec(shards=2, budget=8, servers_per_shard=1)
        with build_cluster(serve, telemetry=False) as cluster:
            kernel = cluster.kernel
            interval = kernel.cycles(0.004)
            detector = AnomalyDetector()
            sampler = MetricSampler(
                kernel,
                interval,
                24,
                shards=cluster.shards,
                detector=detector,
            ).install()
            quiet = BenchSpec(serve=serve, rate=1_000.0, seconds=0.048, seed=5)
            LoadGenerator(kernel, cluster.router, quiet).run()
            shift_window = int((kernel.now - sampler.t0) // interval)
            crowd = BenchSpec(serve=serve, rate=12_000.0, seconds=0.04, seed=6)
            LoadGenerator(kernel, cluster.router, crowd).run()
            sampler.detach()
        changepoints = [
            a
            for a in sampler.anomalies
            if a["kind"] == "cusum-changepoint"
            and a["lane"] == "total"
            and a["metric"] == "throughput_rps"
        ]
        assert changepoints, sampler.anomalies
        assert changepoints[0]["window"] == shift_window
