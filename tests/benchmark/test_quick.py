"""``--quick`` smoke run: every declared metric is emitted with its unit."""

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from benchmarks.e2e import metrics
from benchmarks.e2e.cli import WORKLOAD_NAMES, parse_args
from benchmarks.e2e.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_benchmark_json_matches_the_catalogue():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOAD_NAMES)
    assert tuple(WORKLOADS) == WORKLOAD_NAMES
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in BENCHMARK[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for entry in BENCHMARK["end_to_end"]:
        assert (entry["unit"], entry["better"]) == metrics.HOST[entry["name"]][:2]
        assert 0 < entry["bound"] <= 0.25
    for entry in BENCHMARK["per_layer"]:
        assert entry["unit"] == metrics.PER_LAYER[entry["name"]]


def test_trace_flag_forms():
    assert parse_args([]).trace is False
    assert parse_args(["--trace"]).trace is True
    assert parse_args(["--trace", "1"]).trace is True
    assert parse_args(["--trace", "0"]).trace is False
    assert parse_args(["--workload", "aes-file"]).workloads == ["aes-file"]
    with pytest.raises(SystemExit):
        parse_args(["--workloads", "nope"])


def test_quick_run_emits_every_declared_metric(tmp_path):
    out = tmp_path / "BENCH_e2e.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--quick", "--trace", "--out", str(out)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stderr
    assert elapsed <= 20
    document = json.loads(out.read_text())
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True and summary["failed"] == 0
    for name in WORKLOAD_NAMES:
        result = document["workloads"][name]
        assert result["error_rate"] == 0, result["failures"]
        for entry in BENCHMARK["end_to_end"]:
            assert result["host"][entry["name"]]["value"] > 0
            printed = rf"^\s+{re.escape(entry['name'])}\s+\S+\s+{re.escape(entry['unit'])}\s"
            assert re.search(printed, done.stdout, re.MULTILINE)
        for entry in BENCHMARK["per_layer"]:
            assert entry["name"] in result["per_layer"]
            assert summary["metrics"][f"{name}.{entry['name']}"]["unit"] == entry["unit"]
