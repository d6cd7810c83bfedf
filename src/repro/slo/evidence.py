"""Evidence packs: a self-verifying bundle of run proof.

An evidence pack is a directory (optionally tarred) holding everything
needed to audit one serving run — the stamped bench artifact
(its spec, audit and SLO verdicts included), the tenant-lane trace, span
samples, the contracts and any baseline-gate output — plus a
``manifest.json`` listing the SHA-256 of every file.  The manifest is
itself schema-stamped (``schema_version`` / ``repro_version`` via the
shared stamping helper), so :func:`verify_evidence_pack` refuses packs
from an incompatible schema *before* it starts re-hashing, and a
tampered file (or a file added/removed after packing) fails
verification with a named error.

``repro serve bench --evidence PATH`` produces a pack; ``repro evidence
verify`` re-checks one (directory or tarball) long after the run.
"""

from __future__ import annotations

import hashlib
import os
import tarfile
import tempfile
from typing import Any, Mapping

from repro.telemetry.schema import SchemaMismatch, read_artifact, stamp, write_artifact

#: The manifest's own filename (never listed inside itself).
MANIFEST_NAME = "manifest.json"

#: Stamp of a pack's manifest.
PACK_ARTIFACT = "evidence-pack"


def file_sha256(path: str) -> str:
    """Hex SHA-256 of one file, streamed."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_entry(path: str, content: Any) -> None:
    if isinstance(content, bytes):
        with open(path, "wb") as handle:
            handle.write(content)
    elif isinstance(content, str):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(content)
    else:  # JSON document
        write_artifact(content, path)


def build_evidence_pack(
    out_dir: str, contents: Mapping[str, Any]
) -> dict[str, Any]:
    """Write ``contents`` into ``out_dir`` and manifest every byte.

    ``contents`` maps pack-relative filenames to file bodies: ``bytes``
    are written raw, ``str`` as UTF-8 text (JSONL streams arrive as
    :func:`~repro.telemetry.schema.render_stream` text), anything else
    through :func:`~repro.telemetry.schema.write_artifact`.  Returns the manifest document (already written as
    ``manifest.json``).
    """
    if not contents:
        raise ValueError("an evidence pack needs at least one file")
    os.makedirs(out_dir, exist_ok=True)
    files: dict[str, dict[str, Any]] = {}
    for name, content in sorted(contents.items()):
        if name == MANIFEST_NAME:
            raise ValueError(f"{MANIFEST_NAME} is reserved for the manifest")
        if os.path.isabs(name) or ".." in name.split("/"):
            raise ValueError(f"pack filename {name!r} escapes the pack")
        path = os.path.join(out_dir, name)
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        _write_entry(path, content)
        files[name] = {"sha256": file_sha256(path), "bytes": os.path.getsize(path)}
    manifest = {"meta": stamp(PACK_ARTIFACT), "files": files}
    _write_entry(os.path.join(out_dir, MANIFEST_NAME), manifest)
    return manifest


def pack_tarball(pack_dir: str, tar_path: str) -> str:
    """Tar (gzipped) an evidence-pack directory; returns ``tar_path``."""
    os.makedirs(os.path.dirname(tar_path) or ".", exist_ok=True)
    with tarfile.open(tar_path, "w:gz") as archive:
        for root, _, names in sorted(os.walk(pack_dir)):
            for name in sorted(names):
                full = os.path.join(root, name)
                archive.add(full, arcname=os.path.relpath(full, pack_dir))
    return tar_path


def _verify_dir(pack_dir: str) -> list[str]:
    manifest_path = os.path.join(pack_dir, MANIFEST_NAME)
    if not os.path.exists(manifest_path):
        return [f"{pack_dir}: no {MANIFEST_NAME} — not an evidence pack"]
    # Refusal is a raise, not an error entry: a pack whose manifest is
    # malformed or from another schema version must not be half-verified.
    manifest = read_artifact(manifest_path, (PACK_ARTIFACT,))
    errors: list[str] = []
    files = manifest.get("files", {})
    for name, expected in sorted(files.items()):
        path = os.path.join(pack_dir, name)
        if not os.path.exists(path):
            errors.append(f"{name}: listed in the manifest but missing")
            continue
        digest = file_sha256(path)
        if digest != expected.get("sha256"):
            errors.append(
                f"{name}: SHA-256 mismatch — manifest says "
                f"{expected.get('sha256', '?')[:12]}…, file hashes {digest[:12]}…"
            )
        elif os.path.getsize(path) != expected.get("bytes"):
            errors.append(f"{name}: size changed since packing")
    on_disk = {
        os.path.relpath(os.path.join(root, name), pack_dir)
        for root, _, names in os.walk(pack_dir)
        for name in names
    }
    for name in sorted(on_disk - set(files) - {MANIFEST_NAME}):
        errors.append(f"{name}: present in the pack but not in the manifest")
    return errors


def verify_evidence_pack(path: str) -> list[str]:
    """Re-check a pack (directory or ``.tar.gz``); returns error strings.

    Empty list = every manifested file present and hash-identical, and
    nothing unmanifested smuggled in.  Raises
    :class:`~repro.telemetry.schema.SchemaMismatch` when ``path`` does
    not exist or the manifest is malformed, unstamped or from an
    incompatible schema version — verification refuses to even start on
    such packs.
    """
    if os.path.isdir(path):
        return _verify_dir(path)
    if not os.path.exists(path):
        raise SchemaMismatch(f"{path}: no such file or directory")
    with tempfile.TemporaryDirectory(prefix="evidence-verify-") as scratch:
        with tarfile.open(path, "r:*") as archive:
            for member in archive.getmembers():
                target = os.path.realpath(os.path.join(scratch, member.name))
                if not target.startswith(os.path.realpath(scratch) + os.sep):
                    raise SchemaMismatch(
                        f"{path}: archive member {member.name!r} escapes the pack"
                    )
            archive.extractall(scratch)
        return _verify_dir(scratch)
