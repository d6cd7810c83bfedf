"""An in-enclave key/value server: ecalls in, ocalls out.

A request/response service in the deployment style the paper's
introduction motivates (sensitive state lives in the enclave; untrusted
request threads call in):

- untrusted handler threads **ecall** ``kv_get`` / ``kv_set`` /
  ``kv_delete``;
- the trusted side keeps the store in enclave memory and appends every
  mutation to a write-ahead log on the host filesystem via **ocalls**
  (records are MACed — modelled as cycles — since the host is untrusted);
- recovery replays the log through ocalls into a fresh enclave.

Both boundaries can run switchless: install
``repro.api.make_backend("zc")`` for the ocall side and a
:class:`repro.core.ecalls.ZcEcallRuntime` for the ecall side.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING

from repro.sim.instructions import Compute
from repro.sim.kernel import Program

if TYPE_CHECKING:
    from repro.sgx.enclave import Enclave

#: WAL record: op(1) key_len(2) value_len(4) + payloads.
_RECORD_HEADER = struct.Struct("<BHI")
_OP_SET = 1
_OP_DELETE = 2

#: Enclave-side cycle costs.
_LOOKUP_CYCLES = 400.0
_MAC_CYCLES_PER_BYTE = 1.5
_MAC_BASE_CYCLES = 600.0


class KvServerEnclave:
    """Trusted state machine of the KV service.

    Args:
        enclave: Enclave hosting the state; the constructor registers the
            ``kv_get``/``kv_set``/``kv_delete``/``kv_size`` ecalls.
        wal_path: Host path of the write-ahead log.
    """

    def __init__(self, enclave: "Enclave", wal_path: str = "/kv.wal") -> None:
        self.enclave = enclave
        self.wal_path = wal_path
        self._store: dict[bytes, bytes] = {}
        self._wal_fd: int | None = None
        self.mutations = 0
        enclave.trts.register_many(
            {
                "kv_get": self.ecall_get,
                "kv_set": self.ecall_set,
                "kv_delete": self.ecall_delete,
                "kv_size": self.ecall_size,
            }
        )

    # ------------------------------------------------------------------
    # Lifecycle (run from an enclave-side thread)
    # ------------------------------------------------------------------
    def start(self, recover: bool = True) -> Program:
        """Open (and optionally replay) the WAL; returns replayed count."""
        replayed = 0
        if recover and self.enclave.urts is not None:
            try:
                replayed = yield from self._replay()
            except FileNotFoundError:
                replayed = 0
        self._wal_fd = yield from self.enclave.ocall("fopen", self.wal_path, "a")
        return replayed

    def stop(self) -> Program:
        """Close the WAL."""
        if self._wal_fd is not None:
            yield from self.enclave.ocall("fclose", self._wal_fd)
            self._wal_fd = None
        return None

    def _replay(self) -> Program:
        fd = yield from self.enclave.ocall("fopen", self.wal_path, "r")
        replayed = 0
        while True:
            header = yield from self.enclave.ocall(
                "fread", fd, _RECORD_HEADER.size, out_bytes=_RECORD_HEADER.size
            )
            if len(header) < _RECORD_HEADER.size:
                break
            op, key_len, value_len = _RECORD_HEADER.unpack(header)
            body = yield from self.enclave.ocall(
                "fread", fd, key_len + value_len, out_bytes=key_len + value_len
            )
            yield Compute(
                _MAC_BASE_CYCLES + len(body) * _MAC_CYCLES_PER_BYTE, tag="wal-verify"
            )
            key = body[:key_len]
            if op == _OP_SET:
                self._store[key] = body[key_len:]
            elif op == _OP_DELETE:
                self._store.pop(key, None)
            else:
                raise ValueError(f"corrupt WAL record op={op}")
            replayed += 1
        yield from self.enclave.ocall("fclose", fd)
        return replayed

    def _append_wal(self, op: int, key: bytes, value: bytes) -> Program:
        if self._wal_fd is None:
            raise RuntimeError("server not started")
        record = _RECORD_HEADER.pack(op, len(key), len(value)) + key + value
        yield Compute(
            _MAC_BASE_CYCLES + len(record) * _MAC_CYCLES_PER_BYTE, tag="wal-mac"
        )
        yield from self.enclave.ocall(
            "fwrite", self._wal_fd, record, in_bytes=len(record)
        )
        return None

    # ------------------------------------------------------------------
    # Trusted handlers (run via ecalls)
    # ------------------------------------------------------------------
    def ecall_get(self, key: bytes) -> Program:
        """Trusted handler: read one key."""
        yield Compute(_LOOKUP_CYCLES, tag="kv-lookup")
        return self._store.get(key)

    def ecall_set(self, key: bytes, value: bytes) -> Program:
        """Trusted handler: set one key (WAL-appended)."""
        if not key:
            raise ValueError("empty key")
        yield Compute(_LOOKUP_CYCLES, tag="kv-lookup")
        yield from self._append_wal(_OP_SET, key, value)
        self._store[key] = value
        self.mutations += 1
        return True

    def ecall_delete(self, key: bytes) -> Program:
        """Trusted handler: delete one key (WAL-appended)."""
        yield Compute(_LOOKUP_CYCLES, tag="kv-lookup")
        existed = key in self._store
        if existed:
            yield from self._append_wal(_OP_DELETE, key, b"")
            self._store.pop(key)
            self.mutations += 1
        return existed

    def ecall_size(self) -> Program:
        """Trusted handler: number of live keys."""
        yield Compute(_LOOKUP_CYCLES, tag="kv-lookup")
        return len(self._store)


class KvClient:
    """Untrusted client: thin ecall wrappers for request threads."""

    def __init__(self, enclave: "Enclave") -> None:
        self.enclave = enclave

    def get(self, key: bytes) -> Program:
        """Look up one entry by label/key."""
        result = yield from self.enclave.ecall_named(
            "kv_get", key, in_bytes=len(key), out_bytes=64
        )
        return result

    def set(self, key: bytes, value: bytes) -> Program:
        """Set ``key`` to ``value``."""
        result = yield from self.enclave.ecall_named(
            "kv_set", key, value, in_bytes=len(key) + len(value), out_bytes=1
        )
        return result

    def delete(self, key: bytes) -> Program:
        """Delete ``key``; returns whether it existed."""
        result = yield from self.enclave.ecall_named(
            "kv_delete", key, in_bytes=len(key), out_bytes=1
        )
        return result

    def size(self) -> Program:
        """Number of live keys in the store."""
        result = yield from self.enclave.ecall_named("kv_size", out_bytes=8)
        return result
