"""Acceptance tests for the serving bench: scaling, faults, baselines."""

import copy

import pytest

from repro.api import BenchSpec, ServeSpec
from repro.faults import FaultPlan, FaultSpec, activate_plan
from repro.regress import attach_auditor
from repro.regress.baselines import compare_serve
from repro.serve.bench import run_bench
from repro.telemetry import TelemetrySession
from repro.telemetry.schema import read_artifact, write_artifact

#: Small open-loop spec most artifact tests share.
OPEN_LOOP = BenchSpec(
    serve=ServeSpec(shards=2, budget=4), seconds=0.01, rate=2_000.0
)


#: Closed-loop saturation spec: offered load scales with the shard
#: count, so throughput measures capacity, not the generator.
def saturating(shards):
    spec = BenchSpec(
        serve=ServeSpec(shards=shards, policy="round-robin", budget=8),
        seconds=0.005,
        rate=None,
        clients=2 * shards,
        requests_per_client=400,
    )
    return run_bench(spec, telemetry=False)


ONE_LOST = FaultPlan(
    name="one-lost",
    seed=11,
    faults=(FaultSpec(kind="enclave-lost", at_ms=2.0),),
)

#: Same fault, early enough to hit the audit test's shorter run.
EARLY_LOST = FaultPlan(
    name="early-lost",
    seed=11,
    faults=(FaultSpec(kind="enclave-lost", at_ms=0.5),),
)


class TestArtifact:
    def test_deterministic(self):
        first = run_bench(OPEN_LOOP, telemetry=False)
        second = run_bench(OPEN_LOOP, telemetry=False)
        assert first == second

    def test_shape_and_conservation(self):
        result = run_bench(OPEN_LOOP, telemetry=False)
        assert result["meta"]["artifact"] == "serve-bench"
        totals = result["totals"]
        accounted = totals["completed"] + totals["shed"] + totals["failed"]
        assert totals["submitted"] == accounted
        assert totals["completed"] > 0
        assert totals["throughput_rps"] > 0
        assert len(result["per_shard"]) == 2
        assert sum(s["completed"] for s in result["per_shard"]) == totals["completed"]
        assert result["budget"]["cap"] == 4
        # The zc shards serve their WAL appends switchlessly.
        assert sum(s["switchless_ocalls"] for s in result["per_shard"]) > 0

    def test_artifact_embeds_the_spec(self):
        result = run_bench(OPEN_LOOP, telemetry=False)
        assert BenchSpec.from_json(result["spec"]) == OPEN_LOOP

    def test_baseline_round_trip(self, tmp_path):
        spec = OPEN_LOOP.replace(
            serve=ServeSpec(shards=1, budget=4), seconds=0.005
        )
        result = run_bench(spec, telemetry=False)
        path = write_artifact(result, str(tmp_path / "serve.json"))
        baseline = read_artifact(path, ("serve-bench",))
        assert compare_serve(result, baseline) == []

    def test_gate_catches_regressions(self, tmp_path):
        spec = OPEN_LOOP.replace(
            serve=ServeSpec(shards=1, budget=4), seconds=0.005
        )
        result = run_bench(spec, telemetry=False)
        path = write_artifact(result, str(tmp_path / "serve.json"))
        baseline = read_artifact(path, ("serve-bench",))
        worse = copy.deepcopy(result)
        worse["totals"]["throughput_rps"] *= 0.5
        worse["totals"]["latency_us"]["p99"] *= 2.0
        worse["totals"]["shed"] += 50
        violations = compare_serve(worse, baseline)
        assert len(violations) == 3


class TestScaling:
    def test_four_shards_at_least_doubles_one(self):
        one = saturating(1)["totals"]
        four = saturating(4)["totals"]
        assert four["throughput_rps"] >= 2.0 * one["throughput_rps"]
        assert four["latency_us"]["p99"] <= 3.0 * one["latency_us"]["p99"]

    def test_budget_respected_under_saturation(self):
        result = saturating(4)
        assert result["budget"]["cap"] == 8
        assert result["budget"]["in_use"] <= 8


class TestPrometheusExport:
    def test_serve_metrics_reach_the_session_registry(self):
        from repro.telemetry.exporters import render_prometheus

        spec = OPEN_LOOP.replace(
            serve=ServeSpec(
                shards=2,
                budget=4,
                tenants=(("bronze", 1.0), ("gold", 3.0)),
            )
        )
        captures = []
        session = TelemetrySession(on_attach=captures.append)
        with session:
            run_bench(spec)
        assert captures, "the serve kernel was not captured"
        text = render_prometheus(captures[0].registry)
        # Request counters, one family for the router and one per tenant.
        assert "repro_serve_requests_total" in text
        assert 'outcome="completed"' in text
        assert 'tenant="gold"' in text and 'tenant="bronze"' in text
        assert "repro_serve_tenant_latency_cycles" in text
        # Per-shard gauges, labelled by shard index.
        assert "repro_serve_shard_queue_depth" in text
        assert "repro_serve_shard_workers_active" in text
        assert 'shard="0"' in text and 'shard="1"' in text
        # The exporter's usual conventions still apply.
        assert text.startswith("# ") or "repro_build_info" in text
        assert "repro_build_info" in text


class TestFaultTolerance:
    FAULT_SPEC = BenchSpec(
        serve=ServeSpec(shards=4, policy="round-robin", budget=8),
        seconds=0.02,
        rate=None,
        clients=8,
        requests_per_client=1_000,
    )

    def test_losing_one_shard_degrades_at_most_proportionally(self):
        healthy = run_bench(self.FAULT_SPEC, telemetry=False)["totals"]
        with activate_plan(ONE_LOST):
            faulty = run_bench(self.FAULT_SPEC, telemetry=False)["totals"]
        # Every request still completes: the router re-homes, nothing is lost.
        assert faulty["completed"] == healthy["completed"] == 8_000
        assert faulty["failed"] == 0
        # One of four shards out for the outage: throughput must keep at
        # least the proportional 3/4 share.
        ratio = faulty["throughput_rps"] / healthy["throughput_rps"]
        assert ratio >= 0.75, f"fault degraded throughput {ratio:.2f}x"
        assert faulty["quarantines"] >= 1
        assert faulty["readmissions"] >= 1
        assert faulty["dead"] == []

    def test_fault_run_passes_the_invariant_audit(self):
        spec = BenchSpec(
            serve=ServeSpec(shards=2, policy="round-robin", budget=4),
            seconds=0.01,
            rate=None,
            clients=4,
            requests_per_client=200,
        )
        auditors = []
        session = TelemetrySession(
            on_attach=lambda capture: auditors.append(attach_auditor(capture))
        )
        with session, activate_plan(EARLY_LOST):
            result = run_bench(spec)
        assert result["totals"]["quarantines"] >= 1
        assert auditors, "the serve kernel was not captured"
        for auditor in auditors:
            auditor.finish()
            assert auditor.ok, "\n".join(str(v) for v in auditor.violations)
