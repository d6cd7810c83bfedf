#!/usr/bin/env python
"""kissdb demo: a key/value store doing all its I/O through ocalls.

Populates a KISSDB database from inside the enclave, reads it back, and
compares SET latency across the three execution modes the paper evaluates
(regular ocalls, Intel switchless with a static config, ZC-SWITCHLESS).

Run:  python examples/kissdb_store.py
"""

from repro.apps import KissDB
from repro.api import Runtime, SwitchlessConfig

N_KEYS = 1500
#: The static Intel configuration: the three kissdb ocalls, two workers.
INTEL_CONFIG = SwitchlessConfig(
    switchless_ocalls=frozenset({"fseeko", "fread", "fwrite"}), num_uworkers=2
)


def run_mode(mode: str) -> float:
    with Runtime.create(mode, INTEL_CONFIG if mode == "intel" else None) as rt:
        db = KissDB(rt.enclave, "/demo.db", hash_table_size=128)

        def client():
            yield from db.open()
            for i in range(N_KEYS):
                yield from db.put(i.to_bytes(8, "big"), (i * i).to_bytes(8, "little"))
            # Verify a few round trips while still inside the enclave.
            for i in (0, 7, N_KEYS - 1):
                value = yield from db.get(i.to_bytes(8, "big"))
                assert value == (i * i).to_bytes(8, "little"), "lookup mismatch!"
            missing = yield from db.get((10**9).to_bytes(8, "big"))
            assert missing is None
            yield from db.close()

        rt.run_program(client(), name="kissdb-client")
        elapsed_ms = rt.kernel.seconds(rt.kernel.now) * 1e3
        seeks = rt.enclave.stats.by_name["fseeko"].calls
        writes = rt.enclave.stats.by_name["fwrite"].calls
        print(
            f"{mode:>6}: {N_KEYS} SETs in {elapsed_ms:7.2f} ms  "
            f"({elapsed_ms * 1e3 / N_KEYS:6.1f} us/SET, "
            f"{seeks} fseeko / {writes} fwrite ocalls, "
            f"{db.table_count} hash-table pages)"
        )
    return elapsed_ms


def main():
    print(f"kissdb: inserting {N_KEYS} 8-byte key/value pairs per mode\n")
    results = {mode: run_mode(mode) for mode in ("no_sl", "intel", "zc")}
    print(f"\nzc speedup over no_sl: {results['no_sl'] / results['zc']:.2f}x")


if __name__ == "__main__":
    main()
