"""Repetition records fold into error_rate: tampered records count as failures."""

import copy

import pytest

from benchmarks.e2e.cli import aggregate, check_record

PINS = {
    "seed": 1,
    "sim_digest": {"serve-zc-mixed": "d" * 64},
    "aes_ciphertext_sha256": {"1": "c" * 64},
}


def serve_record(**changes):
    record = {
        "workload": "serve-zc-mixed",
        "op": "completed request",
        "seed": 1,
        "scale": 1.0,
        "profiled": False,
        "setup_s": 0.5,
        "wall_s": 2.0,
        "peak_rss_mb": 40.0,
        "ops": 3000,
        "events": 180_000,
        "sim": {"sim_p99_us": 100.0},
        "counters": {
            "serve.router.issued": 3000,
            "serve.router.completed": 2990,
            "serve.router.shed": 8,
            "serve.router.failed": 2,
        },
        "digest": "d" * 64,
        "failures": [],
    }
    record.update(changes)
    return record


def fold(records, traced=None, seed=1):
    return aggregate(
        "serve-zc-mixed", records, traced, seed=seed, scale=1.0, pins=PINS
    )


def test_clean_records_pass():
    result = fold([serve_record() for _ in range(3)])
    assert result["failed"] == 0
    assert result["error_rate"] == 0
    assert result["sim_digest_match"] is True
    assert result["host"]["ops_per_host_s"]["value"] == pytest.approx(1500.0)
    assert result["host"]["events_per_host_s"]["value"] == pytest.approx(90_000.0)


def test_speeds_come_from_the_fastest_repetition_setup_from_the_median():
    records = [
        serve_record(wall_s=3.0, setup_s=0.4),
        serve_record(wall_s=2.0, setup_s=0.9),
        serve_record(wall_s=2.5, setup_s=0.5),
    ]
    host = fold(records)["host"]
    assert host["wall_s"]["value"] == 2.0
    assert host["wall_s"]["median"] == 2.5
    assert host["ops_per_host_s"]["value"] == pytest.approx(1500.0)
    assert host["setup_s"]["value"] == 0.5


def test_tampered_digest_fails_every_repetition():
    records = [serve_record() for _ in range(3)]
    records[1]["digest"] = "e" * 64
    result = fold(records)
    assert result["failed"] == 3
    assert result["error_rate"] == 1.0
    assert "simulated digest differs between repetitions" in result["failures"]


def test_traced_run_digest_is_checked_too():
    traced = serve_record(profiled=True, digest="e" * 64, layers={})
    result = fold([serve_record() for _ in range(3)], traced)
    assert result["attempted"] == 4
    assert result["failed"] == 4


def test_tampered_counters_break_conservation():
    records = [serve_record() for _ in range(3)]
    records[2]["counters"] = copy.deepcopy(records[2]["counters"])
    records[2]["counters"]["serve.router.completed"] += 1
    result = fold(records)
    assert result["failed"] == 1
    assert result["error_rate"] == pytest.approx(1 / 3)


def test_pinned_digest_mismatch_is_reported_not_failed():
    result = fold([serve_record(digest="f" * 64) for _ in range(3)])
    assert result["failed"] == 0
    assert result["sim_digest_match"] is False
    assert fold([serve_record()], seed=2)["sim_digest_match"] is None


def test_crashed_repetition_counts_as_failed():
    crashed = {"workload": "serve-zc-mixed", "failures": ["exited with code 1"]}
    result = fold([serve_record(), crashed, serve_record()])
    assert result["failed"] == 1
    assert len(result["host"]["wall_s"]["values"]) == 2


def test_aes_ciphertext_pin():
    record = {"scale": 1.0, "ciphertext_sha256": "c" * 64, "failures": []}
    assert check_record(record, PINS, seed=1) == []
    assert check_record(dict(record, ciphertext_sha256="0" * 64), PINS, seed=1)
    # No pin for this seed, or not the benchmark size: only the round trip checks.
    assert check_record(dict(record, ciphertext_sha256="0" * 64), PINS, seed=7) == []
    assert check_record(dict(record, scale=0.05, ciphertext_sha256="0" * 64), PINS, seed=1) == []


def test_child_reported_failures_are_kept():
    record = serve_record(failures=["AES-256-CBC round trip is not bit-exact"])
    assert check_record(record, PINS, seed=1) == record["failures"]
