"""Validation and serialization of the declarative serve specs.

One error path (:class:`repro.api.SpecError`) for every invalid field
*combination*, and a stamped ``to_json()``/``from_json()`` round-trip so
evidence packs and scenario baselines can record — and re-run — the full
serve configuration.
"""

import json
import os

import pytest

import repro.serve.bench
import repro.serve.slices
from repro.api import (
    AutoscaleSpec,
    BenchSpec,
    Runtime,
    ServeSpec,
    SpecError,
)
from repro.telemetry.schema import SchemaMismatch, read_artifact

BASELINES_DIR = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "..", "baselines"
)


class TestServeSpecValidation:
    def test_defaults_are_valid(self):
        spec = ServeSpec()
        assert spec.shards == 2
        assert spec.backend == "zc"

    def test_backend_aliases_normalize(self):
        assert ServeSpec(backend="zc-switchless").backend == "zc"
        assert ServeSpec(backend="no_sl").backend == "baseline"

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(shards=0), "shards must be >= 1"),
            (dict(policy="random"), "policy must be one of"),
            (dict(admission="drop"), "admission must be one of"),
            (dict(queue_capacity=0), "queue_capacity"),
            (dict(servers_per_shard=0), "servers_per_shard"),
            (dict(budget=-1), "budget"),
            (dict(batch=0), "batch must be >= 1"),
            (dict(dispatch_cycles=-1.0), "dispatch_cycles"),
            (dict(apps=()), "at least one"),
            (dict(apps=(("kv", 1.0), ("kv", 2.0))), "unique"),
            (dict(apps=(("redis", 1.0),)), "unknown apps"),
            (dict(tenants=(("gold", 0.0),)), "weights must be positive"),
            (dict(shards=2, fault_shard=2), "fault_shard"),
            (dict(tenants=(("gold", 1.0), ("t", -2.0))), "weights must be positive"),
        ],
    )
    def test_invalid_fields_raise_spec_error(self, kwargs, message):
        with pytest.raises(SpecError, match=message):
            ServeSpec(**kwargs)

    def test_autoscale_requires_zc_and_hash(self):
        with pytest.raises(SpecError, match="zc backend"):
            ServeSpec(backend="intel", autoscale=AutoscaleSpec())
        with pytest.raises(SpecError, match="hash"):
            ServeSpec(policy="round-robin", autoscale=AutoscaleSpec())

    def test_autoscale_band_must_contain_initial_shards(self):
        with pytest.raises(SpecError, match="band"):
            ServeSpec(shards=9, autoscale=AutoscaleSpec(max_shards=8))

    def test_tenants_are_kept_sorted_by_name(self):
        # The load generator's RNG stream follows the mix order.
        spec = ServeSpec(tenants=(("gold", 3.0), ("bronze", 1.0)))
        assert spec.tenants == (("bronze", 1.0), ("gold", 3.0))


class TestAutoscaleSpecValidation:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(min_shards=0), "min_shards"),
            (dict(min_shards=4, max_shards=2), "max_shards"),
            (dict(worker_options=()), "not be empty"),
            (dict(worker_options=(2, 1)), "strictly increasing"),
            (dict(worker_options=(1, 1)), "strictly increasing"),
            (dict(batch_options=(0,)), "positive integers"),
            (dict(alpha=0.0), "alpha"),
            (dict(alpha=1.5), "alpha"),
            (dict(headroom=0.5), "headroom"),
        ],
    )
    def test_invalid_fields_raise_spec_error(self, kwargs, message):
        with pytest.raises(SpecError, match=message):
            AutoscaleSpec(**kwargs)


class TestBenchSpecValidation:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(seconds=0.0), "seconds"),
            (dict(rate=0.0), "rate"),
            (dict(clients=0), "clients"),
            (dict(requests_per_client=10), "needs clients"),
            (dict(keydist="hot"), "keydist"),
            (dict(keyspace=0), "keyspace"),
            (dict(set_fraction=1.5), "set_fraction"),
            (dict(scenario="a", trace="b"), "exclusive"),
            (dict(scenario="a", clients=2), "open-loop"),
            (dict(slices=0), "slices must be >= 1"),
            (dict(slices=4), "must not exceed shards"),
            (dict(obs_interval=0.0), "obs_interval"),
            (dict(rate=None), "the open loop needs a rate"),
            # A field the chosen load ignores would still be recorded.
            (
                dict(scenario="a", rate=9_000.0, seconds=0.3, seed=5, keydist="zipf"),
                "from the trace; drop seconds, rate, keydist, seed$",
            ),
            (dict(trace="t.jsonl", keyspace=7), "from the trace; drop keyspace$"),
            (dict(scenario="a", set_fraction=0.5), "from the trace; drop set_fraction$"),
            (dict(clients=2, rate=9_000.0), "no offered rate; drop rate$"),
        ],
    )
    def test_invalid_combinations_raise_spec_error(self, kwargs, message):
        with pytest.raises(SpecError, match=message):
            BenchSpec(serve=ServeSpec(shards=2), **kwargs)

    def test_defaults_the_load_ignores_are_accepted(self):
        # A default rate under the closed loop is recorded as None, and a
        # replay accepts every load field at its default (or rate=None).
        assert BenchSpec(serve=ServeSpec(), clients=2).rate is None
        assert BenchSpec(serve=ServeSpec(), clients=2, rate=None).rate is None
        assert BenchSpec(serve=ServeSpec(), scenario="a").rate == 2_000.0
        assert BenchSpec(serve=ServeSpec(), scenario="a", rate=None).rate is None

    def test_sliced_run_constraints(self):
        with pytest.raises(SpecError, match="hash"):
            BenchSpec(
                serve=ServeSpec(shards=4, policy="round-robin"), slices=2
            )
        with pytest.raises(SpecError, match="single-process"):
            BenchSpec(
                serve=ServeSpec(shards=4, autoscale=AutoscaleSpec()), slices=2
            )

    def test_autoscale_rejects_the_closed_loop(self):
        with pytest.raises(SpecError, match="closed"):
            BenchSpec(
                serve=ServeSpec(shards=2, autoscale=AutoscaleSpec()),
                rate=None,
                clients=4,
            )

    def test_obs_interval_implies_obs(self):
        spec = BenchSpec(serve=ServeSpec(), obs_interval=1_000.0)
        assert spec.obs is True

    def test_replace_revalidates(self):
        spec = BenchSpec(serve=ServeSpec(shards=4))
        assert spec.replace(slices=4).slices == 4
        with pytest.raises(SpecError, match="must not exceed"):
            spec.replace(serve=ServeSpec(shards=2), slices=4)


FULL = BenchSpec(
    serve=ServeSpec(
        shards=4,
        backend="zc",
        policy="hash",
        admission="block",
        queue_capacity=32,
        servers_per_shard=3,
        budget=12,
        batch=2,
        dispatch_cycles=90.0,
        apps=(("kv", 2.0), ("session", 1.0)),
        tenants=(("bronze", 1.0), ("gold", 3.0)),
        plan="enclave-lost",
        fault_shard=1,
        autoscale=AutoscaleSpec(
            min_shards=2,
            max_shards=6,
            worker_options=(1, 2, 4),
            batch_options=(1, 4),
            alpha=0.4,
            headroom=1.5,
        ),
    ),
    seconds=0.25,
    rate=4_000.0,
    keydist="zipf",
    keyspace=512,
    set_fraction=0.25,
    seed=42,
    obs=True,
    obs_interval=50_000.0,
    contracts=None,
)


class TestJsonRoundTrip:
    def test_serve_spec_round_trips(self):
        assert ServeSpec.from_json(FULL.serve.to_json()) == FULL.serve

    def test_bench_spec_round_trips(self):
        assert BenchSpec.from_json(FULL.to_json()) == FULL

    def test_round_trip_survives_json_text(self):
        # The artifact path: serialized specs travel as JSON text inside
        # evidence packs / baselines, not as live Python objects.
        text = json.dumps(FULL.to_json(), sort_keys=True)
        assert BenchSpec.from_json(json.loads(text)) == FULL

    def test_specs_carry_a_schema_stamp(self):
        serve_doc = FULL.serve.to_json()
        bench_doc = FULL.to_json()
        assert serve_doc["meta"]["artifact"] == "serve-spec"
        assert serve_doc["meta"]["kind"] == "serve"
        assert bench_doc["meta"]["kind"] == "bench"

    def test_from_json_refuses_a_wrong_stamp(self):
        doc = FULL.to_json()
        doc["meta"]["artifact"] = "serve-bench"
        with pytest.raises(SchemaMismatch):
            BenchSpec.from_json(doc)

    def test_from_json_revalidates_fields(self):
        doc = FULL.to_json()
        doc["slices"] = 99
        with pytest.raises(SpecError, match="must not exceed"):
            BenchSpec.from_json(doc)

    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            (None, "seedd", 9, "BenchSpec: unknown field(s) seedd"),
            ("serve", "budgett", 3, "ServeSpec: unknown field(s) budgett"),
            ("autoscale", "alphaa", 0.1, "AutoscaleSpec: unknown field(s) alphaa"),
            (None, "keyspace", None, "BenchSpec: missing field(s) keyspace"),
            ("serve", "batch", None, "ServeSpec: missing field(s) batch"),
            ("autoscale", "headroom", None, "AutoscaleSpec: missing field(s) headroom"),
        ],
        ids=["unknown", "unknown-nested", "unknown-autoscale",
             "missing", "missing-nested", "missing-autoscale"],
    )
    def test_from_json_refuses_unknown_and_missing_keys(
        self, section, key, value, message
    ):
        doc = FULL.to_json()
        target = {
            None: doc, "serve": doc["serve"], "autoscale": doc["serve"]["autoscale"]
        }[section]
        if value is None:
            del target[key]
        else:
            target[key] = value
        with pytest.raises(SpecError) as excinfo:
            BenchSpec.from_json(doc)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "name",
        ["serve-quick", "obs-quick", "scenario-diurnal-kv", "scenario-flash-crowd",
         "scenario-hotkey-shift", "scenario-multiapp-soak", "scenario-steady-mixed"],
    )
    def test_every_committed_embedded_spec_reads_back(self, name):
        doc = read_artifact(os.path.join(BASELINES_DIR, f"{name}.json"))
        spec = BenchSpec.from_json(doc["spec"])  # no key unknown or missing
        assert BenchSpec.from_json(spec.to_json()) == spec


class TestRuntimeServe:
    def test_serve_spec_builds_a_live_cluster(self):
        with Runtime.serve(
            ServeSpec(shards=2, budget=4), telemetry=False
        ) as cluster:
            assert len(cluster.shards) == 2
            assert cluster.router is not None

    def test_bench_spec_runs_the_benchmark(self):
        result = Runtime.serve(
            BenchSpec(serve=ServeSpec(shards=2), seconds=0.005),
            telemetry=False,
        )
        assert result["meta"]["artifact"] == "serve-bench"
        assert result["totals"]["completed"] > 0

    def test_anything_else_is_refused(self):
        with pytest.raises(SpecError, match="ServeSpec or BenchSpec"):
            Runtime.serve({"shards": 2})

    @pytest.mark.parametrize("slices", [1, 2])
    def test_bad_contracts_are_refused_before_the_run(
        self, tmp_path, monkeypatch, slices
    ):
        def never(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(repro.serve.bench, "build_cluster", never)
        monkeypatch.setattr(repro.serve.slices, "CellRunner", never)
        bad = tmp_path / "contracts.json"
        bad.write_text("not json\n")
        spec = BenchSpec(
            serve=ServeSpec(shards=2), seconds=0.005, slices=slices,
            contracts=str(bad),
        )
        with pytest.raises(SchemaMismatch, match="not JSON"):
            Runtime.serve(spec, telemetry=False)
