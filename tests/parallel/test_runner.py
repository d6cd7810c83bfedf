"""The cell runner: job resolution, cache mixing, spec-order outcomes."""

import os

import pytest

from repro.experiments import fig7
from repro.faults import NAMED_PLANS, activate_plan
from repro.parallel import CellRunner, ResultCache, fork_available, resolve_jobs, run_cells
from repro.parallel import runner as runner_module
from repro.regress import attach_auditor
from repro.telemetry import TelemetrySession


def test_resolve_jobs_accepts_auto_none_and_numbers():
    assert resolve_jobs("auto") == (os.cpu_count() or 1)
    assert resolve_jobs(None) == (os.cpu_count() or 1)
    assert resolve_jobs(3) == 3
    assert resolve_jobs("4") == 4


def test_resolve_jobs_rejects_nonpositive():
    with pytest.raises(ValueError):
        resolve_jobs(0)


def test_fork_available_is_a_bool():
    assert isinstance(fork_available(), bool)


def test_outcomes_come_back_in_spec_order():
    specs = fig7.cells(sizes=(512, 2048), ops=40)
    outcomes = CellRunner(jobs=1).run(specs)
    assert [outcome.spec for outcome in outcomes] == specs
    assert all(not outcome.cached for outcome in outcomes)
    assert all(outcome.wall_seconds > 0.0 for outcome in outcomes)


def test_run_cells_returns_rows_matching_run_cell():
    specs = fig7.cells(sizes=(512,), ops=40)
    rows = run_cells(specs, jobs=1)
    assert rows == [fig7.run_cell(spec) for spec in specs]


def test_runner_mixes_cached_and_fresh_cells(tmp_path):
    cache = ResultCache(str(tmp_path))
    specs = fig7.cells(sizes=(512, 2048), ops=40)
    # Warm exactly the first grid point's pair of (aligned, unaligned)
    # cells; the rest must execute.
    warm = [spec for spec in specs if spec.kwargs["size"] == 512]
    for spec in warm:
        cache.store(spec, fig7.run_cell(spec))

    runner = CellRunner(jobs=1, cache=cache)
    outcomes = runner.run(specs)
    assert [o.cached for o in outcomes] == [s in warm for s in specs]
    assert runner.cache_hits == len(warm)
    assert runner.cache_misses == len(specs) - len(warm)

    # Every executed cell was fed back: a rerun is all hits.
    rerun = CellRunner(jobs=1, cache=ResultCache(str(tmp_path))).run(specs)
    assert all(outcome.cached for outcome in rerun)


def test_cached_rows_equal_fresh_rows(tmp_path):
    specs = fig7.cells(sizes=(512,), ops=40)
    fresh = run_cells(specs, jobs=1)
    run_cells(specs, jobs=1, cache=ResultCache(str(tmp_path)))
    cached = run_cells(specs, jobs=1, cache=ResultCache(str(tmp_path)))
    assert cached == fresh


@pytest.mark.skipif(not fork_available(), reason="platform cannot fork pool workers")
def test_live_hooks_keep_pooled_cells_in_process():
    # Callbacks do not cross processes: under a session with an on_attach
    # hook (the live auditors), jobs=2 still audits every cell.
    specs = fig7.cells(sizes=(512,), ops=40)
    auditors = []
    with TelemetrySession(
        on_attach=lambda capture: auditors.append(attach_auditor(capture))
    ):
        run_cells(specs, jobs=2)
    assert len(auditors) == len(specs)


def test_a_fault_plan_keeps_pooled_cells_in_process(monkeypatch):
    monkeypatch.setattr(runner_module, "ProcessPoolExecutor", None)  # no pool
    specs = fig7.cells(sizes=(512,), ops=40)
    with activate_plan(NAMED_PLANS["crash-heavy"]):
        rows = run_cells(specs, jobs=2)
    assert len(rows) == len(specs)


def test_an_observed_run_executes_every_cell(tmp_path):
    specs = fig7.cells(sizes=(512,), ops=40)
    run_cells(specs, cache=ResultCache(str(tmp_path)))  # warm every cell
    with TelemetrySession() as session:
        outcomes = CellRunner(cache=ResultCache(str(tmp_path))).run(specs)
    assert not any(outcome.cached for outcome in outcomes)
    assert len(session.captures) == len(specs)


def test_a_row_run_under_a_fault_plan_never_enters_the_cache(tmp_path):
    # The cache key does not name the plan: a faulty row stored under it
    # would be served to the next healthy run.
    with activate_plan(NAMED_PLANS["crash-heavy"]):
        run_cells(fig7.cells(sizes=(512,), ops=40), cache=ResultCache(str(tmp_path)))
    assert list(tmp_path.iterdir()) == []
