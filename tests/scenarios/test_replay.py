"""Tests for trace replay: loadgen-equivalent exactness guarantees.

The acceptance property of the scenario library: a slice-parallel
replay's per-shard outcomes are bit-identical to the unsliced replay's
(the same hedge :mod:`tests.serve.test_slices` pins for synthetic load —
latency percentiles may wiggle with host-contention modeling, outcomes
may not).
"""

import copy

import pytest

from repro.scenarios.generate import ScenarioSpec, generate_trace
from repro.api import BenchSpec, ServeSpec, SpecError
from repro.regress.baselines import BASELINES, compare_serve
from repro.scenarios.trace import write_trace
from repro.serve import bench
from repro.serve.bench import run_bench
from repro.telemetry.schema import read_artifact, write_artifact

LIGHT = ServeSpec(
    shards=2,
    backend="zc",
    queue_capacity=64,
    servers_per_shard=2,
)


def light_spec(*, trace=None, slices=1, clients=None, apps=None):
    serve = LIGHT if apps is None else ServeSpec(
        shards=2,
        backend="zc",
        queue_capacity=64,
        servers_per_shard=2,
        apps=apps,
    )
    # A replay takes its rate and run length from the trace.
    return BenchSpec(serve=serve, clients=clients, trace=trace, slices=slices)


def _light_trace():
    return generate_trace(
        ScenarioSpec(
            name="replay-light",
            seed=17,
            duration_s=0.06,
            rate_rps=2_000.0,
            apps=(("kv", 3.0), ("session", 1.0)),
            tenants=(("gold", 2.0), ("bronze", 1.0)),
        )
    )


def outcome_keys(entry):
    """Contention-independent per-shard outcomes (test_slices convention)."""
    return {
        "shard": entry["shard"],
        "completed": entry["completed"],
        "failed": entry["failed"],
        "ocalls": entry["switchless_ocalls"]
        + entry["regular_ocalls"]
        + entry["fallback_ocalls"],
    }


class TestReplayBasics:
    def test_replay_issues_exactly_the_trace(self):
        trace = _light_trace()
        result = run_bench(light_spec(), trace=trace)
        assert result["totals"]["issued"] == len(trace.events)
        assert result["totals"]["completed"] + result["totals"]["shed"] + \
            result["totals"]["failed"] == len(trace.events)

    def test_replay_is_deterministic(self):
        trace = _light_trace()
        one = run_bench(light_spec(), trace=trace)
        two = run_bench(light_spec(), trace=trace)
        assert one["totals"] == two["totals"]
        assert one["per_shard"] == two["per_shard"]
        assert one["per_app"] == two["per_app"]

    def test_replay_records_trace_provenance(self):
        trace = _light_trace()
        result = run_bench(light_spec(), trace=trace)
        params = result["params"]
        assert params["scenario"] == "replay-light"
        assert params["trace_digest"] == trace.digest
        assert params["trace_events"] == len(trace.events)
        assert params["rate"] is None
        assert params["seconds"] == trace.duration_s

    def test_tenant_and_app_tags_flow_through(self):
        trace = _light_trace()
        result = run_bench(light_spec(), trace=trace)
        assert set(result["per_app"]) == {"kv", "session"}
        assert set(result["per_tenant"]) == {"gold", "bronze"}
        by_app = {
            app: sum(1 for e in trace.events if e.app == app)
            for app in ("kv", "session")
        }
        for app, submitted in by_app.items():
            assert result["per_app"][app]["submitted"] == submitted

    def test_trace_replay_rejects_the_closed_loop(self):
        with pytest.raises(ValueError, match="open-loop"):
            run_bench(light_spec(clients=4), trace=_light_trace())

    def test_installed_apps_must_cover_the_trace(self):
        with pytest.raises(ValueError, match="not in"):
            run_bench(light_spec(apps=(("kv", 1.0),)), trace=_light_trace())


class TestTraceArgumentRefusals:
    """A trace passed beside a spec is refused as a spec-named one is,
    with BenchSpec's messages, before any cluster is built."""

    @pytest.fixture(autouse=True)
    def no_cluster(self, monkeypatch):
        def build_cluster(*args, **kwargs):
            raise AssertionError("a refused run built a cluster")

        monkeypatch.setattr(bench, "build_cluster", build_cluster)

    def test_load_fields_the_replay_ignores_are_refused(self):
        spec = BenchSpec(serve=LIGHT, seconds=0.3, seed=9)
        with pytest.raises(
            SpecError,
            match="^trace replay takes its load from the trace; drop seconds, seed$",
        ):
            run_bench(spec, trace=_light_trace())

    def test_the_closed_loop_is_refused_before_building(self):
        spec = BenchSpec(serve=LIGHT, clients=4)
        with pytest.raises(SpecError, match="^trace replay is open-loop; drop clients$"):
            run_bench(spec, trace=_light_trace())


class TestReplayAudit:
    def test_one_slice_replay_runs_the_auditors(self):
        spec = BenchSpec(serve=ServeSpec(shards=4, budget=16), scenario="steady-mixed")
        result = run_bench(spec, audit=True)
        assert result["audit"]["ok"] is True
        assert [cell["cell"] for cell in result["audit"]["cells"]] == ["serve-zcx4"]


class TestSliceEquivalence:
    def test_sliced_replay_matches_unsliced_per_shard(self, tmp_path):
        trace = _light_trace()
        path = write_trace(trace, str(tmp_path / "t.jsonl"))
        unsliced = run_bench(light_spec(), trace=trace)
        sliced = run_bench(light_spec(trace=path, slices=2))
        assert [outcome_keys(e) for e in sliced["per_shard"]] == [
            outcome_keys(e) for e in unsliced["per_shard"]
        ]
        for name in ("completed", "shed", "failed"):
            assert sliced["totals"][name] == unsliced["totals"][name]
        assert sliced["totals"]["issued"] == len(trace.events)

    def test_slice_partition_is_exhaustive_and_disjoint(self, tmp_path):
        trace = _light_trace()
        path = write_trace(trace, str(tmp_path / "t.jsonl"))
        sliced = run_bench(light_spec(trace=path, slices=2))
        # Each slice walks all arrivals and admits only its own: the two
        # slices' admitted counts sum to the trace length.
        admitted = [
            len(trace.events) - entry["skipped_arrivals"]
            for entry in sliced["slices"]
        ]
        assert sum(admitted) == len(trace.events)
        assert all(count > 0 for count in admitted)

    def test_sliced_replay_merges_per_app_sections(self, tmp_path):
        trace = _light_trace()
        path = write_trace(trace, str(tmp_path / "t.jsonl"))
        unsliced = run_bench(light_spec(), trace=trace)
        sliced = run_bench(light_spec(trace=path, slices=2))
        for app in ("kv", "session"):
            for name in ("submitted", "completed", "shed", "failed"):
                assert (
                    sliced["per_app"][app][name]
                    == unsliced["per_app"][app][name]
                )


class TestSnapshotGate:
    """A replay's artifact is its own baseline (``compare_serve``)."""

    def _result(self):
        return run_bench(light_spec(), trace=_light_trace())

    def test_snapshot_round_trips_through_the_gate(self, tmp_path):
        result = self._result()
        path = write_artifact(result, str(tmp_path / "scenario.json"))
        baseline = read_artifact(path, BASELINES)
        assert compare_serve(result, baseline, 0.0) == []

    def test_gate_catches_a_different_trace(self):
        result = self._result()
        baseline = copy.deepcopy(result)
        baseline["params"]["trace_digest"] = "0" * 64
        violations = compare_serve(result, baseline)
        assert any("trace_digest" in v for v in violations)

    def test_gate_catches_lost_completions(self):
        result = self._result()
        baseline = copy.deepcopy(result)
        baseline["totals"]["completed"] = int(
            baseline["totals"]["completed"] * 1.5
        )
        baseline["totals"]["throughput_rps"] *= 1.5
        violations = compare_serve(result, baseline)
        assert any("completed" in v for v in violations)

    def test_gate_catches_latency_inflation(self):
        result = self._result()
        baseline = copy.deepcopy(result)
        baseline["totals"]["latency_us"]["p99"] /= 2.0
        violations = compare_serve(result, baseline)
        assert any("p99" in v for v in violations)

    def test_gate_tolerates_drift_inside_the_threshold(self):
        result = self._result()
        baseline = copy.deepcopy(result)
        baseline["totals"]["throughput_rps"] *= 1.05
        assert compare_serve(result, baseline) == []
