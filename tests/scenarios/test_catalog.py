"""Tests for the scenario catalog and its committed traces/baselines."""

import os

import pytest

from repro.scenarios import (
    CATALOG,
    SCENARIO_NAMES,
    baseline_path,
    generate_trace,
    get_scenario,
    load_trace,
    trace_path,
)
from repro.telemetry.schema import read_artifact


class TestCatalog:
    def test_names_unique_and_ordered(self):
        assert len(set(SCENARIO_NAMES)) == len(SCENARIO_NAMES)
        assert SCENARIO_NAMES == tuple(spec.name for spec in CATALOG)

    def test_every_spec_has_a_description(self):
        for spec in CATALOG:
            assert spec.description, spec.name

    def test_unknown_name_lists_the_choices(self):
        with pytest.raises(ValueError) as excinfo:
            get_scenario("nope")
        message = str(excinfo.value)
        for name in SCENARIO_NAMES:
            assert name in message

    def test_catalog_covers_the_interesting_regimes(self):
        arrivals = {spec.arrival for spec in CATALOG}
        assert arrivals == {"steady", "diurnal", "flash"}
        assert any(spec.hot_shift_at_s is not None for spec in CATALOG)
        assert any(len(spec.apps) >= 3 for spec in CATALOG)
        assert any(spec.tenants for spec in CATALOG)


class TestCommittedTraces:
    """The committed eval traces must match their specs byte-for-byte.

    A drifted trace means someone edited the file or the generator
    changed under it; either way the baselines are gating stale bytes.
    """

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_committed_trace_matches_regeneration(self, name):
        path = trace_path(name)
        assert os.path.exists(path), (
            f"missing committed trace {path}; run 'repro scenarios gen {name}'"
        )
        committed = load_trace(path)
        regenerated = generate_trace(get_scenario(name))
        assert committed.digest == regenerated.digest, (
            f"{name}: committed trace drifted from its spec; "
            f"regenerate with 'repro scenarios gen {name}'"
        )

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_committed_baseline_exists_and_points_at_the_trace(self, name):
        path = baseline_path(name)
        assert os.path.exists(path), (
            f"missing committed baseline {path}; run "
            f"'repro serve bench --scenario {name} --shards 4 --budget 16 --out {path}'"
        )
        baseline = read_artifact(path, ("serve-bench",))
        assert baseline["params"]["scenario"] == name
        assert baseline["spec"]["scenario"] == name
        committed = load_trace(trace_path(name))
        assert baseline["params"]["trace_digest"] == committed.digest
        assert baseline["params"]["trace_events"] == len(committed.events)
        assert baseline["totals"]["issued"] == len(committed.events)
