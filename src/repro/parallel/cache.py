"""Content-addressed result cache for experiment cells.

A cell's row is a pure function of (source tree, repro version,
experiment id, cell parameters, machine/cost-model defaults) — the
simulator is deterministic — so re-running ``repro run`` can skip any
cell whose key was computed before.  The key is a SHA-256 over the
canonical form (:func:`repro.parallel.cells.canonical`) of exactly those
inputs:

- ``repro.__version__`` plus a **source fingerprint** (size + mtime of
  every module under ``repro``), so editing any simulator/experiment
  source invalidates the whole cache rather than serving stale rows;
- the default :class:`~repro.sim.machine.MachineSpec` (via
  ``paper_machine()``), :class:`~repro.sgx.costmodel.SgxCostModel` and
  :class:`~repro.hostos.syscalls.SyscallCostModel` — cells that override
  them carry the override in their params already;
- the cell's ``exp_id`` and canonicalised params (its grid ``index`` is
  deliberately excluded: equal work hits one entry regardless of
  position, which is how fig9/fig12/fig13 share fig8/fig11/fig7 rows).

Rows are stored with :mod:`pickle` and written atomically (tmp +
``os.replace``) so concurrent pool workers and parallel suites never
observe torn entries; a warm hit returns byte-identical rows.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from functools import lru_cache
from typing import Any

from repro.parallel.cells import CellSpec, canonical

#: Default cache location, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro_cache"


@lru_cache(maxsize=1)
def source_fingerprint() -> str:
    """Digest of the installed ``repro`` source tree (path, size, mtime).

    Computed once per process; cheap (one ``stat`` per module).  A rebuilt
    or edited tree yields a different fingerprint, so cached rows can
    never outlive the code that produced them.
    """
    import repro

    root = os.path.dirname(os.path.abspath(repro.__file__))
    entries = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            stat = os.stat(path)
            entries.append(
                (os.path.relpath(path, root), stat.st_size, stat.st_mtime_ns)
            )
    digest = hashlib.sha256(repr(entries).encode("utf-8"))
    return digest.hexdigest()


@lru_cache(maxsize=1)
def environment_fingerprint() -> str:
    """Digest of the default machine and cost-model parameters."""
    import repro
    from repro.hostos import SyscallCostModel
    from repro.sgx import SgxCostModel
    from repro.sim import paper_machine

    payload = {
        "version": repro.__version__,
        "source": source_fingerprint(),
        "machine": canonical(paper_machine()),
        "sgx_cost": canonical(SgxCostModel()),
        "syscall_cost": canonical(SyscallCostModel()),
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()


class ResultCache:
    """Pickle-backed store of cell rows, keyed by content address.

    Args:
        directory: Where entries live (created on first store).

    Attributes:
        hits / misses: Cumulative lookup counters over this instance.
    """

    def __init__(self, directory: str = DEFAULT_CACHE_DIR) -> None:
        self.directory = directory
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    # Keys
    # ------------------------------------------------------------------
    def key(self, spec: CellSpec) -> str:
        """The content address of one cell spec (hex SHA-256)."""
        payload = {
            "env": environment_fingerprint(),
            "exp_id": spec.exp_id,
            "params": canonical(spec.params),
        }
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode("utf-8")
        ).hexdigest()

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.pkl")

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------
    def load(self, spec: CellSpec) -> tuple[bool, Any]:
        """``(hit, row)`` for the spec; counts the lookup."""
        try:
            with open(self._path(self.key(spec)), "rb") as handle:
                row = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError):
            self.misses += 1
            return False, None
        self.hits += 1
        return True, row

    def store(self, spec: CellSpec, row: Any) -> None:
        """Persist one row atomically (concurrent writers are safe)."""
        os.makedirs(self.directory, exist_ok=True)
        path = self._path(self.key(spec))
        fd, tmp_path = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(row, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        if not os.path.isdir(self.directory):
            return removed
        for name in os.listdir(self.directory):
            if name.endswith(".pkl"):
                try:
                    os.unlink(os.path.join(self.directory, name))
                    removed += 1
                except OSError:
                    pass
        return removed
