"""The benchmark's five workloads.

Each workload has three steps, so that a repetition can time exactly
the program's work:

- ``prepare(seed, scale)`` builds the inputs (counted as set-up);
- ``run(inputs)`` calls the program through its public entry points
  and returns the raw artifacts (the timed region);
- ``summarize(inputs, raw)`` reads the artifacts into an outcome: the
  unit of useful work (``ops``), kernel events, simulated metrics,
  exact layer counters, a digest of the simulated outcome and the
  failed correctness checks.

``scale`` shrinks a workload's simulated length (1.0 is the benchmark
size; the warm-up and ``--quick`` use 1/20 of it).  The program only
ever sees the generated inputs, never the seed itself.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import astuple, dataclass
from typing import Any, Callable

from repro.analysis.metrics import LatencyRecorder
from repro.api import AutoscaleSpec, BenchSpec, Runtime, ServeSpec
from repro.apps import CryptoFileApp
from repro.crypto import RealAesCbcEngine
from repro.experiments import fig11
from repro.experiments.common import intel_spec, no_sl_spec, zc_spec
from repro.scenarios.generate import ScenarioSpec, generate_trace
from repro.serve.bench import run_bench
from repro.sim import server_machine
from repro.workloads.dynamic import DynamicSpec

#: The NIST SP 800-38A CBC-AES256 example key and IV.
AES_KEY = bytes.fromhex(
    "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4"
)
AES_IV = bytes(range(16))
AES_PLAINTEXT_BYTES = 32 * 1024

#: Per-layer counters every workload reports: a layer the workload does
#: not run reads 0.  ``sim.kernel.*`` and ``sgx.*`` are reported only
#: where the artifacts expose them (not by ``fig11.run_one``).
COMMON_COUNTERS = (
    "serve.router.submitted",
    "serve.router.completed",
    "serve.router.shed",
    "serve.router.preempted",
    "serve.router.spans_dropped",
    "serve.router.queue_wait_p99_us",
    "serve.shard.exec_p99_us",
    "apps.kv_mutations",
    "apps.session_evictions",
    "apps.session_misses",
    "apps.crypto_chunks",
    "core.worker_budget_mcycles",
    "obs.windows",
    "obs.records",
    "obs.dropped_records",
    "obs.anomalies",
    "autoscale.spawns",
    "autoscale.retires",
    "autoscale.windows",
    "crypto.blocks",
)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload (see the module docstring)."""

    name: str
    #: What one unit of ``ops_per_host_s`` is on this workload.
    op: str
    prepare: Callable[[int, float], Any]
    run: Callable[[Any], Any]
    summarize: Callable[[Any, Any], dict[str, Any]]


def digest(payload: Any) -> str:
    """SHA-256 over the canonical JSON form of ``payload``."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _outcome(
    ops: float,
    events: int | None,
    sim: dict[str, float],
    counters: dict[str, float],
    sim_payload: Any,
    failures: list[str],
) -> dict[str, Any]:
    full = dict.fromkeys(COMMON_COUNTERS, 0)
    full.update(counters)
    return {
        "ops": ops,
        "events": events,
        "sim": sim,
        "counters": full,
        "digest": digest(sim_payload),
        "failures": failures,
    }


# ----------------------------------------------------------------------
# lmbench-dynamic: paper Fig. 11 through fig11.run_one
# ----------------------------------------------------------------------
LMBENCH_CONFIGS = (
    no_sl_spec(),
    zc_spec(),
    intel_spec("all", fig11.LMBENCH_OCALL_SETS["all"], 2),
    intel_spec("write", fig11.LMBENCH_OCALL_SETS["write"], 2),
)


def _lmbench_prepare(seed: int, scale: float) -> DynamicSpec:
    # A closed loop on a fixed schedule: the seed does not apply.  Scaling
    # shortens the period and the batch sizes together, which keeps the
    # offered rate (and so the saturation shape) of the full run.
    return DynamicSpec(
        tau_seconds=0.000625 * scale,
        periods_per_phase=4,
        base_ops=max(1, round(64 * scale)),
        peak_ops=max(1, round(1024 * scale)),
    )


def _lmbench_run(spec: DynamicSpec) -> list[fig11.LmbenchRun]:
    return [fig11.run_one(backend, spec) for backend in LMBENCH_CONFIGS]


def _lmbench_summarize(spec: DynamicSpec, runs: list[fig11.LmbenchRun]) -> dict[str, Any]:
    zc = next(run for run in runs if run.label == "zc")
    ops = sum(
        period.completed_ops
        for run in runs
        for period in (*run.reader_periods, *run.writer_periods)
    )
    sim = {
        "sim_zc_peak_kops": (zc.reader_peak(spec) + zc.writer_peak(spec)) / 1e3,
        "sim_zc_cpu_pct": zc.mean_cpu(),
    }
    payload = [
        {
            "label": run.label,
            "reader": [astuple(p) for p in run.reader_periods],
            "writer": [astuple(p) for p in run.writer_periods],
            "cpu": run.cpu_series,
        }
        for run in runs
    ]
    failures = [] if ops > 0 else ["lmbench completed no ocalls"]
    return _outcome(ops, None, sim, {}, payload, failures)


# ----------------------------------------------------------------------
# Serve workloads: open-loop trace replay through run_bench
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ServeInputs:
    trace: Any
    bench: BenchSpec


#: The ScenarioSpec times that ``scale`` shrinks.
_SCALED_FIELDS = ("duration_s", "flash_at_s", "flash_width_s")


def _serve_workload(name: str, scenario: dict[str, Any], bench: BenchSpec) -> Workload:
    def prepare(seed: int, scale: float) -> ServeInputs:
        fields = {
            key: value * scale if key in _SCALED_FIELDS else value
            for key, value in scenario.items()
        }
        trace = generate_trace(ScenarioSpec(name=name, seed=seed, **fields))
        return ServeInputs(trace, bench)

    return Workload(name, "completed request", prepare, _serve_run, _serve_summarize)


def _serve_run(inputs: ServeInputs) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    spans: list[dict[str, Any]] = []
    result = run_bench(
        inputs.bench, trace=inputs.trace, telemetry=False, span_sink=spans
    )
    return result, spans


def _p99_us(samples: list[float], freq_hz: float) -> float:
    recorder = LatencyRecorder()
    recorder.record_many(samples)
    return recorder.percentile(99) / freq_hz * 1e6


def _serve_summarize(
    inputs: ServeInputs, raw: tuple[dict[str, Any], list[dict[str, Any]]]
) -> dict[str, Any]:
    result, spans = raw
    totals = result["totals"]
    fleet = result["fleet"]
    obs = result.get("obs") or {}
    autoscale = result.get("autoscale") or {}
    per_shard = result["per_shard"]
    freq_hz = server_machine().freq_hz
    issued = totals["issued"]
    completed_spans = [s for s in spans if s["t_result"] is not None]

    def app_total(app: str, key: str) -> int:
        return sum(shard["apps"].get(app, {}).get(key, 0) for shard in per_shard)

    switchless = sum(shard["switchless_ocalls"] for shard in per_shard)
    regular = sum(shard["regular_ocalls"] for shard in per_shard)
    fallback = sum(shard["fallback_ocalls"] for shard in per_shard)
    attempts = switchless + regular + fallback
    counters = {
        "sim.kernel.events": result["host"]["events_processed"],
        "sim.kernel.events_per_op": (
            result["host"]["events_processed"] / totals["completed"]
        ),
        "sgx.ocalls_switchless": switchless,
        "sgx.ocalls_regular": regular,
        "sgx.ocalls_fallback": fallback,
        "sgx.switchless_frac": switchless / attempts if attempts else 0.0,
        "serve.router.issued": issued,
        "serve.router.submitted": totals["submitted"],
        "serve.router.completed": totals["completed"],
        "serve.router.shed": totals["shed"],
        "serve.router.failed": totals["failed"],
        "serve.router.preempted": totals["preempted"],
        "serve.router.spans_dropped": result["spans"]["dropped"],
        "serve.router.queue_wait_p99_us": _p99_us(
            [s["t_dequeue"] - s["t_enqueue"] for s in completed_spans], freq_hz
        ),
        "serve.shard.exec_p99_us": _p99_us(
            [s["t_result"] - s["t_dequeue"] for s in completed_spans], freq_hz
        ),
        "apps.kv_mutations": app_total("kv", "mutations"),
        "apps.session_evictions": app_total("session", "evictions"),
        "apps.session_misses": app_total("session", "misses"),
        "apps.crypto_chunks": (
            app_total("crypto", "chunks_encrypted")
            + app_total("crypto", "chunks_decrypted")
        ),
        "core.worker_budget_mcycles": fleet["worker_budget_cycles"] / 1e6,
        "obs.windows": obs.get("windows", 0),
        "obs.records": len(obs.get("records", ())),
        "obs.dropped_records": obs.get("dropped_records", 0),
        "obs.anomalies": len(obs.get("anomalies", ())),
        "autoscale.spawns": autoscale.get("spawns", 0),
        "autoscale.retires": autoscale.get("retires", 0),
        "autoscale.windows": autoscale.get("windows", 0),
    }
    latency = totals["latency_us"]
    sim = {
        "sim_p50_us": latency["p50"],
        "sim_p99_us": latency["p99"],
        "sim_latency_samples": latency["count"],
        "sim_mcycles_per_req": fleet["cycles_per_request"] / 1e6,
        "sim_fail_frac": (totals["shed"] + totals["failed"]) / issued,
    }
    payload = {
        key: result.get(key)
        for key in ("totals", "per_tenant", "per_app", "per_shard", "fleet", "autoscale")
    }
    payload["obs_records"] = obs.get("records")
    # Request conservation is checked by the parent, from the counters.
    return _outcome(
        totals["completed"],
        result["host"]["events_processed"],
        sim,
        counters,
        payload,
        [],
    )


# ----------------------------------------------------------------------
# aes-file: real AES-256-CBC through CryptoFileApp on the baseline backend
# ----------------------------------------------------------------------
_PLAIN, _CIPHER, _ROUNDTRIP = "/plain.bin", "/cipher.bin", "/roundtrip.bin"


def _aes_prepare(seed: int, scale: float) -> bytes:
    return random.Random(seed).randbytes(max(16, round(AES_PLAINTEXT_BYTES * scale)))


def _aes_run(plaintext: bytes) -> tuple[Runtime, CryptoFileApp]:
    runtime = Runtime.create(
        backend="baseline", files={_PLAIN: plaintext}, telemetry=False, faults=False
    )
    app = CryptoFileApp(
        runtime.enclave, lambda: RealAesCbcEngine(AES_KEY, AES_IV), chunk_bytes=4096
    )

    def pipeline() -> Any:
        yield from app.encrypt_file(_PLAIN, _CIPHER, AES_IV)
        yield from app.decrypt_file(_CIPHER, _ROUNDTRIP)

    runtime.run_program(pipeline(), name="aes-file")
    runtime.close()
    return runtime, app


def _aes_summarize(plaintext: bytes, raw: tuple[Runtime, CryptoFileApp]) -> dict[str, Any]:
    runtime, app = raw
    ciphertext = runtime.fs.contents(_CIPHER)
    stats = runtime.enclave.stats
    events = runtime.kernel.events_processed
    ops = 2 * len(plaintext) / 1024
    attempts = stats.total_calls
    # Each chunk is CBC-encrypted with its own PKCS#7 pad after the IV
    # header; decryption runs the same blocks back.
    blocks = 2 * (len(ciphertext) - len(AES_IV)) // 16
    counters = {
        "sim.kernel.events": events,
        "sim.kernel.events_per_op": events / ops,
        "sgx.ocalls_switchless": stats.total_switchless,
        "sgx.ocalls_regular": stats.total_regular,
        "sgx.ocalls_fallback": stats.total_fallback,
        "sgx.switchless_frac": stats.total_switchless / attempts if attempts else 0.0,
        "apps.crypto_chunks": app.chunks_encrypted + app.chunks_decrypted,
        "crypto.blocks": blocks,
    }
    ciphertext_sha = hashlib.sha256(ciphertext).hexdigest()
    payload = {
        "ciphertext_sha256": ciphertext_sha,
        "sim_end_cycles": runtime.kernel.now,
        "events": events,
        "ocalls": stats.summary(),
    }
    failures = []
    if runtime.fs.contents(_ROUNDTRIP) != plaintext:
        failures.append("AES-256-CBC round trip is not bit-exact")
    outcome = _outcome(ops, events, {}, counters, payload, failures)
    outcome["ciphertext_sha256"] = ciphertext_sha
    return outcome


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "lmbench-dynamic",
            "completed ocall",
            _lmbench_prepare,
            _lmbench_run,
            _lmbench_summarize,
        ),
        _serve_workload(
            "serve-zc-mixed",
            dict(
                duration_s=0.5,
                rate_rps=3_000.0,
                keydist="zipf",
                keyspace=256,
                apps=(("kv", 5.0), ("session", 4.0), ("crypto", 1.0)),
                tenants=(("bronze", 1.0), ("gold", 2.0), ("silver", 1.0)),
            ),
            BenchSpec(
                serve=ServeSpec(
                    shards=4,
                    backend="zc",
                    budget=16,
                    queue_capacity=64,
                    servers_per_shard=2,
                )
            ),
        ),
        _serve_workload(
            "serve-intel-writes",
            dict(
                duration_s=0.8,
                rate_rps=8_000.0,
                arrival="flash",
                flash_at_s=0.4,
                flash_width_s=0.08,
                flash_factor=6.0,
                keyspace=4096,
                set_fraction=0.8,
                apps=(("kv", 3.0), ("session", 1.0)),
                tenants=(("bronze", 1.0), ("gold", 3.0)),
            ),
            BenchSpec(serve=ServeSpec(shards=4, backend="intel")),
        ),
        _serve_workload(
            "elastic-diurnal",
            dict(
                duration_s=1.0,
                rate_rps=6_000.0,
                arrival="diurnal",
                diurnal_amplitude=0.6,
                keydist="zipf",
                apps=(("kv", 1.0),),
            ),
            BenchSpec(
                serve=ServeSpec(
                    shards=2,
                    backend="zc",
                    autoscale=AutoscaleSpec(min_shards=1, max_shards=6),
                ),
                obs=True,
            ),
        ),
        Workload("aes-file", "KiB through the cipher", _aes_prepare, _aes_run, _aes_summarize),
    )
}
