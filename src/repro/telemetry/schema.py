"""Artifact schema stamps: make every export self-identifying.

Every artifact the repo emits — the JSONL event log, the Chrome trace,
the Prometheus text file, ``BENCH_meta.json`` and the regression
baselines under ``baselines/`` — carries the same two fields:

- ``schema_version``: bumped whenever the *shape* of an artifact changes
  (new required fields, renamed events, different nesting);
- ``repro_version``: the package version that produced the artifact, for
  provenance only (it never gates parsing).

Every artifact the repo writes or reads goes through one of two pairs:

- JSON documents: :func:`write_artifact` / :func:`read_artifact`;
- JSONL streams (telemetry events, request spans, obs windows, scenario
  traces): :func:`write_stream` / :func:`read_stream`.  Line 1 is the
  stamped header; every line is in the canonical :func:`encode_line`
  form.

Both readers check the stamp before handing back any content and turn
every way a file can be wrong into one :class:`SchemaMismatch` naming
it, so no consumer ever works from a half-read or misread input.
"""

from __future__ import annotations

import json
import os
from typing import Any, Collection, Iterable, Iterator, Mapping, TextIO

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


def _make_parent(path: str) -> None:
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)


def _open(path: str) -> TextIO:
    """Open an input file; a missing or unreadable path is a SchemaMismatch."""
    try:
        return open(path, encoding="utf-8")
    except FileNotFoundError:
        raise SchemaMismatch(f"{path}: no such file") from None
    except OSError as exc:  # a directory, a permission error, ...
        raise SchemaMismatch(f"{path}: unreadable ({exc.strerror})") from None


def write_artifact(document: Mapping[str, Any], path: str) -> str:
    """Write a JSON artifact (indented, sorted keys); returns ``path``."""
    _make_parent(path)
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
    with _open(path) as handle:
        try:
            document = json.load(handle)
        except ValueError as exc:  # a JSONDecodeError, or bad UTF-8
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


def encode_line(record: Mapping[str, Any]) -> str:
    """One stream line in the canonical form: sorted keys, no spaces.

    The scenario-trace digest hashes exactly these bytes, so the form is
    fixed: changing it would make every committed trace fail to verify.
    """
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def render_stream(header: Mapping[str, Any], records: Iterable[Mapping[str, Any]]) -> str:
    """A stamped stream as in-memory text (the bytes :func:`write_stream` writes)."""
    return "".join(encode_line(line) + "\n" for line in (header, *records))


def write_stream(
    path: str, header: Mapping[str, Any], records: Iterable[Mapping[str, Any]]
) -> int:
    """Write ``header`` on line 1, then one line per record; returns the record count."""
    _make_parent(path)
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(encode_line(header) + "\n")
        for record in records:
            handle.write(encode_line(record) + "\n")
            count += 1
    return count


def read_stream(
    path: str, kind: str
) -> tuple[dict[str, Any], Iterator[dict[str, Any]]]:
    """Read a stamped stream of ``kind``: ``(header, records)``.

    The line-1 stamp is checked before this returns.  Records are parsed
    lazily, one line at a time, so a caller can fold a stream far larger
    than the records it keeps.  A missing or unreadable path (a directory
    included), an empty file, a line that is not a JSON object (named by
    its number), a missing or foreign stamp and a schema-version mismatch
    each raise one :class:`SchemaMismatch` naming ``path``.  A bad line
    raises from the record iterator, so no caller returns a partial result.
    """
    lines = _stream(path, kind)
    return next(lines), lines


def _stream(path: str, kind: str) -> Iterator[dict[str, Any]]:
    """Yield the checked header, then each record of a stamped stream."""
    number = 0
    with _open(path) as handle:
        try:
            for number, line in enumerate(handle, start=1):
                if number > 1 and line.isspace():
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise SchemaMismatch(
                        f"{path}: line {number} is not JSON ({exc.msg})"
                    ) from None
                if not isinstance(record, dict):
                    raise SchemaMismatch(
                        f"{path}: line {number} is a JSON {type(record).__name__}, not an object"
                    )
                if number == 1:
                    check_stamp(record, kind, source=path)
                yield record
        except UnicodeDecodeError as exc:  # decoded ahead of the lines: no line number
            raise SchemaMismatch(f"{path}: not UTF-8 text ({exc.reason})") from None
    if not number:
        raise SchemaMismatch(f"{path}: empty file (expected a {kind!r} stamp on line 1)")
