"""Slice-parallel serving: partition correctness and deterministic merge.

The guarantee under test (see :mod:`repro.serve.slices`): with rendezvous
placement, every slice regenerates the identical seeded arrival stream,
serves exactly the arrivals whose owner shard it hosts, and the merged
artifact is a deterministic superposition of the slice timelines.  Under
light load (no cross-request CPU contention) a sliced run reproduces the
unsliced per-shard outcomes exactly.
"""

import dataclasses
import json

import pytest

from repro.api import BenchSpec, ServeSpec, SpecError
from repro.serve.bench import run_bench
from repro.serve.router import _rendezvous_score
from repro.serve.slices import (
    make_admit,
    merge_outcomes,
    owner_shard,
    slice_shard_ids,
    split_budget,
)
from repro.sim import server_machine
from repro.telemetry import TelemetrySession


def light(shards, slices=1, *, tenants=None, budget=None, plan=None, fault_shard=0):
    """The light-load spec the equivalence tests share."""
    return BenchSpec(
        serve=ServeSpec(
            shards=shards,
            tenants=tenants,
            budget=budget,
            plan=plan,
            fault_shard=fault_shard,
        ),
        seconds=0.04,
        rate=3_000.0,
        seed=11,
        slices=slices,
    )


def outcome_keys(entry):
    """The contention-independent per-shard outcome fields."""
    return {
        "shard": entry["shard"],
        "completed": entry["completed"],
        "failed": entry["failed"],
        "mutations": entry["mutations"],
        # Worker wake state is machine-local, so the switchless/fallback
        # split legitimately differs between one host and N modeled
        # hosts — but every request still issues the same ocalls.
        "ocalls": entry["switchless_ocalls"]
        + entry["regular_ocalls"]
        + entry["fallback_ocalls"],
    }


class TestPartition:
    def test_round_robin_partition(self):
        assert slice_shard_ids(4, 2) == [(0, 2), (1, 3)]
        assert slice_shard_ids(5, 3) == [(0, 3), (1, 4), (2,)]
        assert slice_shard_ids(3, 1) == [(0, 1, 2)]

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            slice_shard_ids(4, 5)
        with pytest.raises(ValueError):
            slice_shard_ids(4, 0)

    def test_owner_matches_router_pick(self):
        shards = 7
        for index in range(64):
            key = f"key-{index}".encode()
            expected = max(
                range(shards), key=lambda s: _rendezvous_score(key, s)
            )
            assert owner_shard(key, shards) == expected

    def test_admit_predicates_partition_keyspace(self):
        shards, slices = 6, 3
        admits = [
            make_admit(ids, shards) for ids in slice_shard_ids(shards, slices)
        ]
        for index in range(128):
            key = f"key-{index}".encode()
            assert sum(admit(key) for admit in admits) == 1

    def test_split_budget_apportions_whole_budget(self):
        partitions = slice_shard_ids(5, 3)  # 2 + 2 + 1 shards
        budgets = split_budget(12, partitions, 5)
        assert sum(budgets) == 12
        assert budgets[2] < budgets[0]
        assert split_budget(None, partitions, 5) == [None, None, None]


class TestEquivalence:
    def test_sliced_matches_unsliced_per_shard(self):
        base = run_bench(light(4), telemetry=False)
        sliced = run_bench(light(4, 2), jobs=1)
        assert [outcome_keys(e) for e in base["per_shard"]] == [
            outcome_keys(e) for e in sliced["per_shard"]
        ]
        for field in ("submitted", "completed", "shed", "failed", "issued"):
            assert base["totals"][field] == sliced["totals"][field]

    def test_tenant_streams_survive_slicing(self):
        tenants = (("bronze", 1.0), ("gold", 3.0))
        base = run_bench(light(4, tenants=tenants), telemetry=False)
        sliced = run_bench(light(4, 2, tenants=tenants), jobs=1)
        for tenant, _ in tenants:
            for field in ("submitted", "completed", "shed", "failed"):
                assert (
                    base["per_tenant"][tenant][field]
                    == sliced["per_tenant"][tenant][field]
                ), (tenant, field)

    def test_merge_conserves_counts(self):
        sliced = run_bench(light(5, 3), jobs=1)
        assert sliced["totals"]["completed"] == sum(
            entry["completed"] for entry in sliced["slices"]
        )
        assert sorted(e["shard"] for e in sliced["per_shard"]) == list(range(5))
        owned = [index for entry in sliced["slices"] for index in entry["shard_ids"]]
        assert sorted(owned) == list(range(5))

    def test_fork_pool_matches_serial(self):
        serial = run_bench(light(4, 2), jobs=1)
        pooled = run_bench(light(4, 2), jobs=2)
        assert json.dumps(serial, sort_keys=True) == json.dumps(
            pooled, sort_keys=True
        )

    def test_run_bench_dispatches_sliced_specs(self):
        # Runtime.serve / run_bench on a slices>1 spec IS the slice
        # runner: one entry point, identical artifact.
        direct = run_bench(light(4, 2), jobs=1)
        dispatched = run_bench(light(4, 2))
        assert json.dumps(direct, sort_keys=True) == json.dumps(
            dispatched, sort_keys=True
        )

    def test_sliced_artifact_has_every_unsliced_section(self):
        # One builder writes both artifacts: the sliced one carries every
        # key the unsliced one does, plus only its slicing provenance.
        base = run_bench(light(4), telemetry=False)
        sliced = run_bench(light(4, 2), jobs=1)
        assert set(sliced) == set(base) | {"slices"}
        assert set(sliced["params"]) == set(base["params"]) | {"slices", "slice_shards"}
        for section in ("totals", "fleet", "per_tenant"):
            assert set(sliced[section]) == set(base[section]), section
        for tenant, entry in base["per_tenant"].items():
            assert set(sliced["per_tenant"][tenant]) == set(entry), tenant

    def test_artifact_shape_and_provenance(self):
        spec = light(4, 2)
        sliced = run_bench(spec, jobs=1)
        assert sliced["meta"]["artifact"] == "serve-bench"
        assert sliced["params"]["slices"] == 2
        assert sliced["params"]["slice_shards"] == [[0, 2], [1, 3]]
        assert "latency_us" in sliced["totals"]
        assert sliced["totals"]["latency_us"]["count"] == float(
            sliced["totals"]["completed"]
        )
        # The merged artifact records the *original* sliced spec.
        assert BenchSpec.from_json(sliced["spec"]) == spec


class TestAudit:
    def test_audit_section_aggregates_slice_verdicts(self):
        sliced = run_bench(light(4, 2), jobs=1, audit=True)
        assert sliced["audit"]["ok"] is True
        assert len(sliced["audit"]["cells"]) == 2
        assert sliced["audit"]["violations"] == 0

    def test_one_slice_audit_is_the_plain_artifact_plus_audit(self):
        plain = run_bench(light(4), telemetry=False)
        audited = run_bench(light(4), audit=True)
        audit = audited.pop("audit")
        assert audit["ok"] is True
        assert [cell["cell"] for cell in audit["cells"]] == ["serve-zcx4"]
        assert json.dumps(audited, sort_keys=True) == json.dumps(
            plain, sort_keys=True
        )


class TestValidation:
    def test_requires_hash_policy(self):
        with pytest.raises(SpecError, match="hash"):
            BenchSpec(
                serve=ServeSpec(shards=4, policy="round-robin"),
                seconds=0.04,
                rate=3_000.0,
                slices=2,
            )

    def test_merge_rejects_empty(self):
        with pytest.raises(ValueError, match="nothing to merge"):
            merge_outcomes([])

    def test_fault_plan_attaches_only_in_owning_slice(self):
        sliced = run_bench(
            light(4, 2, plan="enclave-lost", fault_shard=1, budget=8), jobs=1
        )
        assert sliced["params"]["plan"] == "enclave-lost"
        # Shard 1 lives in slice 1; its quarantine shows up post-merge.
        assert sliced["totals"]["quarantines"] >= 1

    @pytest.mark.parametrize(
        "plumbing",
        [
            {"trace": "some.trace.jsonl"},
            {"span_sink": []},
            {"obs_on_window": print},
        ],
        ids=lambda plumbing: next(iter(plumbing)),
    )
    def test_sliced_run_refuses_in_process_plumbing(self, plumbing):
        (name,) = plumbing
        with pytest.raises(SpecError, match=name):
            run_bench(light(4, 2), jobs=1, **plumbing)

    def test_sliced_run_never_captures(self):
        # telemetry=True (the default) reaches one in-process cluster
        # only; slice kernels stay unobserved under an active session.
        with TelemetrySession() as session:
            run_bench(light(4, 2), jobs=1)
        assert session.captures == []

    def test_refusal_names_every_dropped_argument(self):
        with pytest.raises(
            SpecError, match="drop trace, span_sink, obs_on_window"
        ):
            run_bench(
                light(4, 2),
                trace="some.trace.jsonl",
                span_sink=[],
                obs_on_window=print,
            )

    def test_slices_simulate_on_the_given_machine(self):
        # The intel backend is layout-invariant, so a sliced run on a
        # slower machine matches the unsliced run on that same machine.
        def intel(slices):
            spec = light(4, slices)
            return spec.replace(serve=dataclasses.replace(spec.serve, backend="intel"))

        machine = server_machine(freq_hz=1.3e9)
        unsliced = run_bench(intel(1), machine=machine, telemetry=False)
        sliced = run_bench(intel(2), machine=machine, jobs=1)
        for name in ("count", "p50", "p99", "max"):
            assert (
                sliced["totals"]["latency_us"][name]
                == unsliced["totals"]["latency_us"][name]
            ), name
        assert sliced["totals"]["elapsed_s"] == unsliced["totals"]["elapsed_s"]
