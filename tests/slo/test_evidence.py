"""Evidence packs: build/verify round-trip, tamper detection, CLI."""

import json
import os
import tarfile

import pytest

from repro.cli import main
from repro.slo import (
    SloContract,
    build_evidence_pack,
    pack_tarball,
    save_contracts,
    verify_evidence_pack,
)
from repro.telemetry.schema import SchemaMismatch, read_artifact

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
CONTRACTS = os.path.join(ROOT, "contracts", "quick.json")

CONTENTS = {
    "bench.json": {"totals": {"completed": 42}},
    "notes.txt": "plain text body\n",
    "raw.bin": b"\x00\x01\x02",
    "nested/audit.json": {"ok": True},
}


def build_pack(tmp_path, name="pack"):
    pack_dir = str(tmp_path / name)
    manifest = build_evidence_pack(pack_dir, CONTENTS)
    return pack_dir, manifest


class TestBuild:
    def test_manifest_lists_every_file(self, tmp_path):
        _, manifest = build_pack(tmp_path)
        assert set(manifest["files"]) == set(CONTENTS)
        for entry in manifest["files"].values():
            assert len(entry["sha256"]) == 64
            assert entry["bytes"] > 0
        assert manifest["meta"]["artifact"] == "evidence-pack"

    def test_rejects_empty_pack(self, tmp_path):
        with pytest.raises(ValueError):
            build_evidence_pack(str(tmp_path / "empty"), {})

    def test_rejects_reserved_manifest_name(self, tmp_path):
        with pytest.raises(ValueError, match="reserved"):
            build_evidence_pack(
                str(tmp_path / "p"), {"manifest.json": {"nope": 1}}
            )

    def test_rejects_escaping_names(self, tmp_path):
        for name in ("../outside.json", "/abs.json", "a/../../b.json"):
            with pytest.raises(ValueError, match="escapes the pack"):
                build_evidence_pack(str(tmp_path / "p"), {name: "x"})


class TestVerify:
    def test_round_trip_is_clean(self, tmp_path):
        pack_dir, _ = build_pack(tmp_path)
        assert verify_evidence_pack(pack_dir) == []

    def test_tampered_file_fails_sha256(self, tmp_path):
        pack_dir, _ = build_pack(tmp_path)
        target = tmp_path / "pack" / "bench.json"
        target.write_text(target.read_text().replace("42", "43"))
        errors = verify_evidence_pack(pack_dir)
        assert len(errors) == 1
        assert "bench.json" in errors[0] and "SHA-256 mismatch" in errors[0]

    def test_missing_file_reported(self, tmp_path):
        pack_dir, _ = build_pack(tmp_path)
        (tmp_path / "pack" / "notes.txt").unlink()
        errors = verify_evidence_pack(pack_dir)
        assert any("missing" in e for e in errors)

    def test_unmanifested_file_reported(self, tmp_path):
        pack_dir, _ = build_pack(tmp_path)
        (tmp_path / "pack" / "smuggled.txt").write_text("extra")
        errors = verify_evidence_pack(pack_dir)
        assert any("smuggled.txt" in e and "not in the manifest" in e for e in errors)

    def test_refuses_schema_mismatch_before_hashing(self, tmp_path):
        pack_dir, _ = build_pack(tmp_path)
        manifest_path = tmp_path / "pack" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["meta"]["schema_version"] = 999
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(SchemaMismatch):
            verify_evidence_pack(pack_dir)

    def test_directory_without_manifest_is_not_a_pack(self, tmp_path):
        (tmp_path / "stray.txt").write_text("not a pack")
        errors = verify_evidence_pack(str(tmp_path))
        assert errors and "not an evidence pack" in errors[0]


class TestTarball:
    def test_tarball_round_trip(self, tmp_path):
        pack_dir, _ = build_pack(tmp_path)
        tar_path = pack_tarball(pack_dir, str(tmp_path / "pack.tar.gz"))
        assert verify_evidence_pack(tar_path) == []

    def test_tampered_tarball_fails(self, tmp_path):
        pack_dir, _ = build_pack(tmp_path)
        target = tmp_path / "pack" / "bench.json"
        target.write_text(target.read_text().replace("42", "43"))
        tar_path = pack_tarball(pack_dir, str(tmp_path / "pack.tar.gz"))
        errors = verify_evidence_pack(tar_path)
        assert any("SHA-256 mismatch" in e for e in errors)

    def test_escaping_member_refused(self, tmp_path):
        evil = str(tmp_path / "evil.tar.gz")
        payload = tmp_path / "payload.txt"
        payload.write_text("x")
        with tarfile.open(evil, "w:gz") as archive:
            archive.add(str(payload), arcname="../escape.txt")
        with pytest.raises(SchemaMismatch, match="escapes the pack"):
            verify_evidence_pack(evil)


class TestCli:
    """Acceptance demo: ``serve bench --evidence`` packs, verify, tamper →
    failure."""

    FILES = {"bench.json", "trace.json", "spans.jsonl", "contracts.json", "manifest.json"}

    def serve_args(self, tmp_path, evidence, contracts=CONTRACTS):
        return [
            "serve", "bench", "--shards", "1", "--seconds", "0.05",
            "--rate", "2000", "--budget", "4", "--tenants", "gold:3,bronze:1",
            "--contracts", contracts, "--evidence", str(evidence),
            "--out", str(tmp_path / f"{evidence.name}.out.json"),
        ]

    def test_build_verify_tamper_cycle(self, tmp_path, capsys):
        pack_dir, tarball = tmp_path / "evidence", tmp_path / "evidence.tar.gz"
        for pack in (pack_dir, tarball):
            assert main(self.serve_args(tmp_path, pack)) == 0
            assert f"[evidence pack: 5 file(s) in {pack}]" in capsys.readouterr().out
        assert {p.name for p in pack_dir.rglob("*")} == self.FILES
        with tarfile.open(tarball) as archive:
            assert set(archive.getnames()) == self.FILES
        out = (tmp_path / "evidence.out.json").read_bytes()
        assert (pack_dir / "bench.json").read_bytes() == out
        assert (tmp_path / "evidence.tar.gz.out.json").read_bytes() == out

        # Both forms verify clean...
        assert main(["evidence", "verify", str(pack_dir)]) == 0
        assert main(["evidence", "verify", str(tarball)]) == 0
        capsys.readouterr()

        # ...until one byte of the bench artifact changes.
        bench = pack_dir / "bench.json"
        bench.write_text(bench.read_text().replace(": ", " : ", 1))
        assert main(["evidence", "verify", str(pack_dir)]) == 1
        out = capsys.readouterr().out
        assert "SHA-256 mismatch" in out

    def test_sliced_run_is_refused_before_anything_is_written(self, tmp_path):
        pack = tmp_path / "evidence"
        argv = self.serve_args(tmp_path, pack)
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--shards", "2", "--slices", "2"])
        assert str(excinfo.value) == (
            "--evidence is unavailable with --slices "
            "(span records stay in the slice processes)"
        )
        assert list(tmp_path.iterdir()) == []

    def test_hard_breach_exits_1_and_still_packs(self, tmp_path, capsys):
        contracts = save_contracts(
            [SloContract(tenant="gold", min_throughput_rps=1e9)],
            str(tmp_path / "tight.json"),
        )
        pack = tmp_path / "evidence"
        assert main(self.serve_args(tmp_path, pack, contracts)) == 1
        bench = read_artifact(str(pack / "bench.json"))
        assert bench["slo"]["hard_breaches"] == 1
        assert (pack / "contracts.json").read_text() == (tmp_path / "tight.json").read_text()
        assert main(["evidence", "verify", str(pack)]) == 0

    def test_verify_refuses_foreign_schema(self, tmp_path, capsys):
        pack_dir, _ = build_pack(tmp_path)
        manifest_path = tmp_path / "pack" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["meta"]["schema_version"] = 999
        manifest_path.write_text(json.dumps(manifest))
        assert main(["evidence", "verify", pack_dir]) == 1
        assert "refused" in capsys.readouterr().out
