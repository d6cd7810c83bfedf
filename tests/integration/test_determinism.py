"""Full-stack determinism: identical runs produce identical results.

The simulator has no wall clock and no unseeded randomness; every
experiment must therefore be bit-reproducible.  These tests run scaled
experiment cells twice and compare everything — the property that makes
the benchmark tables in EXPERIMENTS.md stable artifacts rather than
samples.
"""

from repro.experiments.suite import run_experiment


class TestExperimentDeterminism:
    def test_fig7_identical_runs(self):
        a = run_experiment("fig7", sizes=(512, 4096), ops=50).result
        b = run_experiment("fig7", sizes=(512, 4096), ops=50).result
        assert a.points == b.points

    def test_sec3a_identical_runs(self):
        a = run_experiment("sec3a", total_calls=2000).result
        b = run_experiment("sec3a", total_calls=2000).result
        assert a.rows == b.rows

    def test_fig8_identical_runs_including_zc(self):
        """zc involves workers, a scheduler and pool reallocs — all of it
        must still be deterministic."""
        kwargs = {"n_keys_sweep": (300,), "worker_counts": (2,), "n_threads": 2}
        a = run_experiment("fig8", **kwargs).result
        b = run_experiment("fig8", **kwargs).result
        assert a.rows == b.rows

    def test_fig10_identical_runs(self):
        kwargs = {"worker_counts": (2,), "chunks_per_file": 8, "files_per_thread": 1}
        a = run_experiment("fig10", **kwargs).result
        b = run_experiment("fig10", **kwargs).result
        assert a.rows == b.rows
