"""Extension bench: kissdb GET-heavy workloads.

The paper's Fig. 8 measures SET commands only.  GETs have a different
ocall mix — pure fseeko+fread chains, no writes — so this bench checks
that zc's advantage carries over to read-heavy and mixed workloads, and
that the ocall profile shifts the way the KISSDB design predicts.
"""

from benchmarks.conftest import emit
from repro.analysis.report import format_table
from repro.apps import KissDB
from repro.experiments.common import build_stack, intel_spec, no_sl_spec, zc_spec

N_KEYS = 800
N_READS = 2_400


def run_mode(spec, read_fraction: float) -> dict[str, float]:
    stack = build_stack(spec)
    kernel = stack.kernel
    enclave = stack.enclave
    db = KissDB(enclave, "/db", hash_table_size=128)

    def client():
        yield from db.open()
        for i in range(N_KEYS):
            yield from db.put(i.to_bytes(8, "big"), i.to_bytes(8, "little"))
        t_reads_start = kernel.now
        n_gets = int(N_READS * read_fraction)
        n_sets = N_READS - n_gets
        for i in range(n_gets):
            value = yield from db.get((i % N_KEYS).to_bytes(8, "big"))
            assert value is not None
        for i in range(n_sets):
            yield from db.put((i % N_KEYS).to_bytes(8, "big"), bytes(8))
        yield from db.close()
        return t_reads_start

    thread = kernel.spawn(client(), name="client")
    kernel.join(thread)
    phase_cycles = kernel.now - thread.result
    stats = enclave.stats.by_name
    reads = stats["fread"].calls
    writes = stats["fwrite"].calls
    stack.close()
    return {
        "config": spec.label,
        "read_frac": read_fraction,
        "op_us": kernel.seconds(phase_cycles) * 1e6 / N_READS,
        "fread_per_fwrite": reads / max(writes, 1),
    }


def test_get_heavy_workloads(benchmark):
    specs = [no_sl_spec(), zc_spec(), intel_spec("all", {"fseeko", "fread", "fwrite", "ftell"}, 2)]

    def sweep():
        return [
            run_mode(spec, frac)
            for frac in (1.0, 0.5)
            for spec in specs
        ]

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(
        "Extension: kissdb GET-heavy workloads",
        format_table(
            ["config", "read_frac", "op_us", "fread_per_fwrite"],
            [[r["config"], r["read_frac"], r["op_us"], r["fread_per_fwrite"]] for r in rows],
            precision=2,
        ),
    )
    by_key = {(r["config"], r["read_frac"]): r for r in rows}
    for frac in (1.0, 0.5):
        no_sl = by_key[("no_sl", frac)]["op_us"]
        zc = by_key[("zc", frac)]["op_us"]
        assert zc < no_sl, f"zc must beat no_sl at read fraction {frac}"
    # GET-only workloads read far more than they write (population writes
    # only); mixed workloads write again.
    assert (
        by_key[("no_sl", 1.0)]["fread_per_fwrite"]
        > by_key[("no_sl", 0.5)]["fread_per_fwrite"]
    )
