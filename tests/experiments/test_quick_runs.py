"""Fast, scaled-down executions of every experiment runner.

These verify the harness mechanics (structure, determinism, reports); the
full paper-shape assertions run at benchmark scale in ``benchmarks/``.
"""

import pytest

from repro.experiments import (
    fig7,
    fig9,
    fig10,
    fig11,
    fig12,
    fig13,
    sec3a,
    sec5d,
)
from repro.experiments.suite import run_experiment
from repro.workloads.dynamic import DynamicSpec


class TestSec3a:
    def test_small_run_and_report(self):
        result = run_experiment("sec3a", total_calls=2000).result
        assert {row.config for row in result.rows} == {"C1", "C2", "C3", "C4", "C5"}
        text = sec3a.report(result)
        assert "C1" in text and "paper_scaled_s" in text

    def test_shape_holds_even_at_small_scale(self):
        result = run_experiment("sec3a", total_calls=4000).result
        assert sec3a.check_shape(result) == []


class TestFig7:
    def test_points_and_report(self):
        result = run_experiment("fig7", sizes=(512, 32_768), ops=50).result
        assert len(result.points) == 4
        assert fig7.check_shape(result) == []
        assert "unaligned_GBps" in fig7.report(result)

    def test_throughput_positive_and_bounded(self):
        result = run_experiment("fig7", sizes=(1024,), ops=20).result
        for point in result.points:
            assert 0 < point.gbps < 50


class TestFig13:
    def test_speedups_and_report(self):
        result = run_experiment("fig13", sizes=(512, 32_768), ops=50).result
        assert fig13.check_shape(result) == []
        assert "speedup_un" in fig13.report(result)

    def test_speedup_accessor(self):
        result = run_experiment("fig13", sizes=(32_768,), ops=20).result
        assert result.speedup(32_768, False) > result.speedup(32_768, True)


class TestFig8And9:
    @pytest.fixture(scope="class")
    def small_result(self):
        return run_experiment(
            "fig8", n_keys_sweep=(400,), worker_counts=(2,), n_threads=2
        ).result

    def test_rows_cover_all_configs(self, small_result):
        assert set(small_result.labels) == {
            "no_sl",
            "zc",
            "i-fseeko-2",
            "i-fwrite-2",
            "i-fread-2",
            "i-frw-2",
            "i-all-2",
        }

    def test_zc_beats_no_sl_even_small(self, small_result):
        assert small_result.mean_latency("zc") < small_result.mean_latency("no_sl")

    def test_latency_percentiles_ordered(self, small_result):
        for row in small_result.rows:
            assert row.mean_latency_us <= row.p99_latency_us <= row.max_latency_us

    def test_fig9_reuses_base(self, small_result):
        result9 = fig9.Fig9Result(base=small_result)
        assert result9.base is small_result
        assert "mean_cpu_pct" in fig9.report(result9)
        for label in small_result.labels:
            assert 0 < small_result.mean_cpu(label) <= 100


class TestFig10:
    def test_structure_small(self):
        result = run_experiment(
            "fig10", worker_counts=(2,), chunks_per_file=8, files_per_thread=1
        ).result
        assert "zc" in result.labels
        assert all(row.latency_s > 0 for row in result.rows)
        assert "switchless_frac" in fig10.report(result)


class TestSec5d:
    def test_speedup_in_paper_band_even_small(self):
        result = run_experiment("sec5d", record_sizes=(4096, 16_384), records=40).result
        assert sec5d.check_shape(result) == []
        assert "speedup_pct" in sec5d.report(result)

    def test_transfers_are_deterministic(self):
        a = run_experiment("sec5d", record_sizes=(8192,), records=20).result
        b = run_experiment("sec5d", record_sizes=(8192,), records=20).result
        assert a.points == b.points


class TestFig11And12:
    SPEC = DynamicSpec(tau_seconds=0.002, periods_per_phase=2, base_ops=64, peak_ops=256)

    @pytest.fixture(scope="class")
    def small_result(self):
        return run_experiment("fig11", worker_counts=(2,), spec=self.SPEC).result

    def test_period_counts(self, small_result):
        for run_ in small_result.runs:
            assert len(run_.reader_periods) == 6
            assert len(run_.writer_periods) == 6

    def test_reader_targets_follow_schedule(self, small_result):
        run_ = small_result.get("no_sl")
        targets = [p.target_ops for p in run_.reader_periods]
        # Two doubling periods reach 128 (peak cap 256 never hit), then
        # two constant periods and two halving periods.
        assert targets == [64, 128, 128, 128, 128, 64]

    def test_fig12_reuses_base(self, small_result):
        result12 = fig12.Fig12Result(base=small_result)
        assert "peak_cpu" in fig12.report(result12)

    def test_check_shape_handles_single_worker_count(self, small_result):
        """Regression: the shape checks must not assume both worker
        counts are present (quick runs sweep only one)."""
        fig11.check_shape(small_result)  # must not raise
        fig12.check_shape(fig12.Fig12Result(base=small_result))  # must not raise
