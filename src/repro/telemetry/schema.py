"""Artifact schema stamps: make every export self-identifying.

Every artifact the repo emits — the JSONL event log, the Chrome trace,
the Prometheus text file, ``BENCH_meta.json`` and the regression
baselines under ``baselines/`` — carries the same two fields:

- ``schema_version``: bumped whenever the *shape* of an artifact changes
  (new required fields, renamed events, different nesting);
- ``repro_version``: the package version that produced the artifact, for
  provenance only (it never gates parsing).

Consumers (``repro diff``, the JSONL replay auditor) call
:func:`check_stamp` before parsing and refuse mismatched inputs instead
of silently misreading them.  Stamped JSON documents are written by
:func:`write_artifact` and read back by :func:`read_artifact`, which
turns every way a file can be wrong into one :class:`SchemaMismatch`.
"""

from __future__ import annotations

import json
import os
from typing import Any, Collection, Mapping

from repro import __version__

#: Version of every exported artifact's schema.  Bump on shape changes.
SCHEMA_VERSION = 1


class SchemaMismatch(ValueError):
    """An artifact's stamp is missing or from an incompatible schema."""


def stamp(artifact: str) -> dict[str, Any]:
    """The stamp fields for one artifact kind (e.g. ``events-jsonl``)."""
    return {
        "artifact": artifact,
        "schema_version": SCHEMA_VERSION,
        "repro_version": __version__,
    }


def check_stamp(meta: Mapping[str, Any], artifact: str, source: str = "artifact") -> None:
    """Validate a parsed stamp; raises :class:`SchemaMismatch` on failure.

    ``source`` names the input (usually a file path) for the error text.
    """
    found_artifact = meta.get("artifact")
    if found_artifact != artifact:
        raise SchemaMismatch(
            f"{source}: expected a {artifact!r} stamp, found {found_artifact!r} "
            "(unstamped artifacts predate the regression schema; re-export them)"
        )
    version = meta.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaMismatch(
            f"{source}: schema_version {version!r} is not the supported "
            f"{SCHEMA_VERSION} (written by repro {meta.get('repro_version', '?')})"
        )


def _stamp_fields(document: Mapping[str, Any]) -> Mapping[str, Any]:
    """The stamp fields of a JSON document.

    Most artifacts nest their stamp under ``meta``; run snapshots and
    ``BENCH_meta.json`` carry it at the top level.
    """
    meta = document.get("meta")
    return meta if isinstance(meta, Mapping) else document


def artifact_of(document: Mapping[str, Any]) -> Any:
    """The artifact kind a JSON document is stamped with (None if unstamped)."""
    return _stamp_fields(document).get("artifact")


def write_artifact(document: Mapping[str, Any], path: str) -> str:
    """Write a JSON artifact (indented, sorted keys); returns ``path``."""
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def read_artifact(path: str, kinds: Collection[str] | None = None) -> dict[str, Any]:
    """Read a stamped JSON artifact, accepting only ``kinds`` when given.

    A missing or unreadable file, non-JSON text, a document that is not
    a JSON object, a missing or foreign stamp and a schema-version
    mismatch each raise one :class:`SchemaMismatch` naming ``path``.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    except FileNotFoundError:
        raise SchemaMismatch(f"{path}: no such file") from None
    except OSError as exc:
        raise SchemaMismatch(f"{path}: unreadable ({exc.strerror})") from None
    except ValueError as exc:
        raise SchemaMismatch(f"{path}: not JSON ({exc})") from None
    if not isinstance(document, dict):
        raise SchemaMismatch(
            f"{path}: expected a stamped JSON object, found a JSON "
            f"{type(document).__name__}"
        )
    found = artifact_of(document)
    if not isinstance(found, str) or (kinds is not None and found not in kinds):
        expected = " or ".join(repr(kind) for kind in kinds) if kinds else "an artifact"
        raise SchemaMismatch(f"{path}: expected {expected} stamp, found {found!r}")
    check_stamp(_stamp_fields(document), found, source=path)
    return document
