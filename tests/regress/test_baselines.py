"""The serve-family baseline protocol: one reader, one writer, one gate.

Every committed serve-family baseline must re-run from what it embeds
and match itself exactly.  The CLI refusals of malformed files are in
``tests/test_cli.py::TestBaselineFiles``.
"""

import os

import pytest

from repro.regress.baselines import BASELINES, gate
from repro.scenarios import SCENARIO_NAMES
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
    assert gate(kind.rerun(baseline), path, threshold=0.0) == []


@pytest.mark.parametrize("artifact", sorted(BASELINES))
def test_writer_and_reader_round_trip_every_kind(artifact, tmp_path):
    document = {"meta": stamp(artifact), "totals": {"completed": 3, "p99": 1.5}}
    path = write_artifact(document, str(tmp_path / "nested" / "baseline.json"))
    assert read_artifact(path, BASELINES) == document
    foreign = next(kind for kind in sorted(BASELINES) if kind != artifact)
    with pytest.raises(SchemaMismatch, match=f"found {artifact!r}"):
        read_artifact(path, (foreign,))


def test_gate_refuses_a_run_its_kind_does_not_snapshot(tmp_path):
    sweep = {"meta": stamp("autoscale-sweep"), "scenario": "diurnal-kv"}
    path = write_artifact(sweep, str(tmp_path / "sweep.json"))
    serve_run = {"meta": stamp("serve-bench")}
    with pytest.raises(SchemaMismatch, match="baselines gate 'autoscale-sweep' runs"):
        gate(serve_run, path, threshold=0.1)


def test_a_baseline_without_a_spec_cannot_rerun():
    with pytest.raises(SchemaMismatch, match="no spec"):
        BASELINES["serve-bench"].rerun({"meta": stamp("serve-bench")})
