"""The serve-family baseline protocol: one reader, one writer, one gate.

Every committed serve-family baseline is the artifact its run wrote, so
it must re-run from the spec it embeds and match itself exactly.  The
obs checks of the serve gate are pinned in ``tests/obs/test_baseline.py``,
the sweep checks in ``tests/autoscale/test_sweep.py``; the CLI refusals
of malformed files are in ``tests/test_cli.py::TestBaselineFiles``.
"""

import copy
import os

import pytest

from repro.api import BenchSpec, ServeSpec
from repro.regress.baselines import BASELINES, compare_serve, gate
from repro.scenarios import SCENARIO_NAMES
from repro.serve.bench import run_bench
from repro.telemetry.schema import (
    SchemaMismatch,
    artifact_of,
    read_artifact,
    stamp,
    write_artifact,
)

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: Every committed serve-family baseline under ``baselines/``.
COMMITTED = (
    "serve-quick",
    "obs-quick",
    "autoscale-diurnal",
    *(f"scenario-{name}" for name in SCENARIO_NAMES),
)


@pytest.mark.parametrize("name", COMMITTED)
def test_committed_baseline_reruns_to_itself(name, monkeypatch):
    # The `repro diff` loop at zero tolerance: read, re-run what the
    # baseline recorded, compare.
    monkeypatch.chdir(ROOT)
    path = os.path.join("baselines", f"{name}.json")
    baseline = read_artifact(path, BASELINES)
    kind = BASELINES[artifact_of(baseline)]
    assert gate(kind.rerun(baseline), baseline, threshold=0.0) == []


def test_the_table_holds_one_kind_per_artifact():
    assert sorted(BASELINES) == ["autoscale-sweep", "serve-bench"]


@pytest.mark.parametrize("artifact", sorted(BASELINES))
def test_writer_and_reader_round_trip_every_kind(artifact, tmp_path):
    document = {"meta": stamp(artifact), "totals": {"completed": 3, "p99": 1.5}}
    path = write_artifact(document, str(tmp_path / "nested" / "baseline.json"))
    assert read_artifact(path, BASELINES) == document
    foreign = next(kind for kind in sorted(BASELINES) if kind != artifact)
    with pytest.raises(SchemaMismatch, match=f"found {artifact!r}"):
        read_artifact(path, (foreign,))


@pytest.mark.parametrize("retired", ["scenario-bench", "obs-windows"])
def test_a_retired_baseline_format_is_refused_naming_the_accepted_stamps(
    retired, tmp_path
):
    path = write_artifact({"meta": stamp(retired)}, str(tmp_path / "old.json"))
    with pytest.raises(SchemaMismatch) as excinfo:
        read_artifact(path, BASELINES)
    message = str(excinfo.value)
    assert f"found {retired!r}" in message
    assert "'serve-bench'" in message and "'autoscale-sweep'" in message


def test_gate_refuses_a_run_its_kind_does_not_snapshot():
    sweep = {"meta": stamp("autoscale-sweep"), "scenario": "diurnal-kv"}
    serve_run = {"meta": stamp("serve-bench")}
    with pytest.raises(SchemaMismatch, match="baselines gate 'autoscale-sweep' runs"):
        gate(serve_run, sweep, threshold=0.1)


def test_a_baseline_without_a_spec_cannot_rerun():
    with pytest.raises(SchemaMismatch, match="no spec"):
        BASELINES["serve-bench"].rerun({"meta": stamp("serve-bench")})


SPEC = BenchSpec(serve=ServeSpec(shards=2, budget=4), seconds=0.01, rate=2_000.0)


@pytest.fixture(scope="module")
def artifact():
    return run_bench(SPEC, telemetry=False)


def drifted(artifact, edit):
    """A copy of ``artifact`` after ``edit`` mutated it in place."""
    copied = copy.deepcopy(artifact)
    edit(copied)
    return copied


class TestServeGate:
    """Each condition the serve gate reports, one at a time."""

    def test_an_identical_run_passes_at_zero_tolerance(self, artifact):
        assert compare_serve(artifact, artifact, 0.0) == []

    @pytest.mark.parametrize(
        "field, value, named",
        [
            ("shards", 3, "serve.shards 3 vs baseline 2"),
            ("backend", "intel", "serve.backend 'intel' vs baseline 'zc'"),
        ],
    )
    def test_a_run_of_another_spec_is_one_violation_naming_each_field(
        self, artifact, field, value, named
    ):
        def edit(run):
            run["spec"]["serve"][field] = value
            run["spec"]["seconds"] = 0.5

        (violation,) = compare_serve(drifted(artifact, edit), artifact)
        assert named in violation
        assert "seconds 0.5 vs baseline 0.01" in violation

    def test_the_spec_check_covers_the_scenario(self, artifact):
        def edit(run):
            run["spec"]["scenario"] = "flash-crowd"

        (violation,) = compare_serve(drifted(artifact, edit), artifact)
        assert "scenario 'flash-crowd' vs baseline None" in violation

    def test_a_sliced_run_gates_against_its_unsliced_baseline(self, artifact):
        def edit(run):
            run["spec"]["slices"] = 2

        assert compare_serve(drifted(artifact, edit), artifact, 0.0) == []

    def test_a_different_trace_fails_exactly(self, artifact):
        def edit(run):
            run["params"]["trace_digest"] = "0" * 64

        (violation,) = compare_serve(drifted(artifact, edit), artifact)
        assert "trace_digest mismatch" in violation

    def test_issued_arrivals_must_match_exactly(self, artifact):
        def edit(run):
            run["totals"]["issued"] += 1

        (violation,) = compare_serve(drifted(artifact, edit), artifact)
        assert "issued arrivals changed" in violation

    @pytest.mark.parametrize(
        "name, message", [("completed", "completed requests"), ("throughput_rps", "throughput")]
    )
    def test_a_drop_beyond_the_threshold_fails(self, artifact, name, message):
        def edit(run):
            run["totals"][name] *= 0.85

        (violation,) = compare_serve(drifted(artifact, edit), artifact, 0.1)
        assert violation.startswith(f"{message} regressed")
        assert compare_serve(drifted(artifact, edit), artifact, 0.2) == []

    @pytest.mark.parametrize("pct", ["p50", "p99"])
    def test_a_latency_rise_beyond_the_threshold_fails(self, artifact, pct):
        def edit(run):
            run["totals"]["latency_us"][pct] *= 1.15

        (violation,) = compare_serve(drifted(artifact, edit), artifact, 0.1)
        assert violation.startswith(f"{pct} latency inflated")
        assert compare_serve(drifted(artifact, edit), artifact, 0.2) == []

    def test_shed_may_grow_by_the_larger_of_the_threshold_and_five(self, artifact):
        def shed(count):
            def edit(run):
                run["totals"]["shed"] = count

            return edit

        baseline = drifted(artifact, shed(100))
        assert compare_serve(drifted(artifact, shed(110)), baseline, 0.1) == []
        (violation,) = compare_serve(drifted(artifact, shed(111)), baseline, 0.1)
        assert violation == "shed count grew: 111 vs baseline 100"
        baseline = drifted(artifact, shed(0))
        assert compare_serve(drifted(artifact, shed(5)), baseline, 0.1) == []
        assert compare_serve(drifted(artifact, shed(6)), baseline, 0.1) != []

    def test_any_growth_of_hard_slo_breaches_fails(self, artifact):
        def breaches(count):
            def edit(run):
                run["slo"] = {"hard_breaches": count}

            return edit

        baseline = drifted(artifact, breaches(1))
        assert compare_serve(drifted(artifact, breaches(1)), baseline, 0.5) == []
        (violation,) = compare_serve(drifted(artifact, breaches(2)), baseline, 0.5)
        assert "hard SLO breaches grew: 2 vs baseline 1" in violation
