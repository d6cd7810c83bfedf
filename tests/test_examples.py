"""Smoke tests for the runnable examples.

Each example must run to completion and print its headline result.  The
heavier scripts (200k-call square waves) are exercised here through
their fast entry points only.  The file-encryption example runs the real
table-driven AES-256-CBC in full; it takes a few seconds.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, timeout: int = 240) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, f"{name} failed:\n{result.stderr}"
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "ZC-SWITCHLESS" in out
        assert "switchless=4004" in out

    def test_secure_counter_service(self):
        out = run_example("secure_counter_service.py")
        assert "switchless ecalls" in out
        assert "faster" in out

    def test_kissdb_store(self):
        out = run_example("kissdb_store.py")
        assert "zc speedup over no_sl" in out
        assert "hash-table pages" in out

    @pytest.mark.slow
    def test_file_encryption(self):
        out = run_example("file_encryption.py")
        assert "bit-exact" in out

    @pytest.mark.slow
    def test_profile_and_advise(self):
        out = run_example("profile_and_advise.py")
        assert "advised EDL switchless set" in out

    @pytest.mark.slow
    def test_adaptive_workers(self):
        out = run_example("adaptive_workers.py", timeout=400)
        assert "lifetime share per worker count" in out
