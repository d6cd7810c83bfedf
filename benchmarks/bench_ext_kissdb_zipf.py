"""Extension bench: kissdb under skewed (Zipf) key distributions.

The paper writes sequential keys; production KV workloads are skewed.
Skew changes kissdb's ocall mix: hot keys are overwritten in place
(fseeko+fread compare, fseeko+fwrite value — no appends, no hash-table
growth), while uniform traffic keeps inserting fresh keys (appends +
table-slot writes).  This bench quantifies how the per-op cost and the
seek/write mix move with skew, under zc.
"""

from benchmarks.conftest import emit
from repro.analysis.report import format_table
from repro.apps import KissDB
from repro.experiments.common import build_stack, zc_spec
from repro.workloads.keydist import UniformKeys, ZipfKeys

N_OPS = 2_500
KEYSPACE = 2_000


def run_distribution(name: str) -> dict[str, float]:
    generator = (
        ZipfKeys(KEYSPACE, s=0.99, seed=11)
        if name == "zipf"
        else UniformKeys(KEYSPACE, seed=11)
    )
    stack = build_stack(zc_spec())
    kernel = stack.kernel
    enclave = stack.enclave
    db = KissDB(enclave, "/db", hash_table_size=256)

    def client():
        yield from db.open()
        for _ in range(N_OPS):
            yield from db.put(generator.next_key(), bytes(8))
        yield from db.close()

    kernel.join(kernel.spawn(client(), name="client"))
    elapsed_us_per_op = kernel.seconds(kernel.now) * 1e6 / N_OPS
    stats = enclave.stats.by_name
    stack.close()
    return {
        "distribution": name,
        "op_us": elapsed_us_per_op,
        "fseeko": stats["fseeko"].calls,
        "fread": stats["fread"].calls,
        "fwrite": stats["fwrite"].calls,
        "pages": db.table_count,
        "db_bytes": stack.fs.size("/db"),
    }


def test_skewed_workloads(benchmark):
    rows = benchmark.pedantic(
        lambda: [run_distribution(n) for n in ("uniform", "zipf")],
        rounds=1,
        iterations=1,
    )
    emit(
        "Extension: kissdb PUT workload under key skew (zc backend)",
        format_table(
            ["distribution", "op_us", "fseeko", "fread", "fwrite", "pages", "db_bytes"],
            [
                [r["distribution"], r["op_us"], r["fseeko"], r["fread"], r["fwrite"], r["pages"], r["db_bytes"]]
                for r in rows
            ],
            precision=2,
        ),
    )
    uniform, zipf = rows
    # Skew means mostly overwrites: fewer bytes on disk, fewer fwrites
    # (no slot-pointer writes for existing keys).
    assert zipf["db_bytes"] < uniform["db_bytes"]
    assert zipf["fwrite"] < uniform["fwrite"]
    # But more read-compares along collision chains of the hot slots.
    assert zipf["fread"] > 0
