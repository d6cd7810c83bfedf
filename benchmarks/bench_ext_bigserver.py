"""Extension bench: the switchless trade-offs on a modern 16C/32T server.

The paper's machine has 8 logical CPUs, so 4 static workers are half the
machine — the CPU-waste story is stark.  On an Ice-Lake-class 32-thread
server the same 4 workers are 12.5% of capacity, many more callers fit,
and zc's cap rises to N/2 = 16.  This bench re-runs the kissdb workload
with 8 client threads on both machines and reports how the zc scheduler
sizes its pool and what the static configurations cost, normalised per
machine.
"""

from benchmarks.conftest import emit
from repro.analysis.report import format_table
from repro.apps import KissDB
from repro.experiments.common import build_stack, intel_spec, no_sl_spec, zc_spec
from repro.sim import paper_machine, server_machine

KISSDB_OCALLS = frozenset({"fseeko", "fread", "fwrite", "ftell"})
N_CLIENTS = 8
KEYS_PER_CLIENT = 400


def run_cell(machine_name: str, spec) -> dict[str, float]:
    machine = paper_machine() if machine_name == "paper-4C8T" else server_machine()
    stack = build_stack(spec, machine=machine)
    kernel = stack.kernel
    enclave = stack.enclave

    def client(index: int):
        db = KissDB(enclave, f"/db-{index}", hash_table_size=128)
        yield from db.open()
        for i in range(KEYS_PER_CLIENT):
            yield from db.put(i.to_bytes(8, "big"), bytes(8))
        yield from db.close()

    stack.start_measuring()
    threads = [
        kernel.spawn(client(i), name=f"client-{i}", kind="app")
        for i in range(N_CLIENTS)
    ]
    kernel.join(*threads)
    cpu = stack.cpu_usage_pct()
    elapsed_ms = kernel.seconds(kernel.now) * 1e3
    backend = enclave.backend
    mean_workers = 0.0
    if hasattr(backend, "stats") and hasattr(backend.stats, "mean_worker_count"):
        mean_workers = backend.stats.mean_worker_count(kernel.now)
    stack.close()
    return {
        "machine": machine_name,
        "config": spec.label,
        "elapsed_ms": elapsed_ms,
        "cpu_pct": cpu,
        "zc_mean_workers": mean_workers,
    }


def test_big_server_tradeoffs(benchmark):
    specs = [no_sl_spec(), intel_spec("all", KISSDB_OCALLS, 4), zc_spec()]

    def sweep():
        return [
            run_cell(machine, spec)
            for machine in ("paper-4C8T", "server-16C32T")
            for spec in specs
        ]

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(
        "Extension: switchless trade-offs, paper machine vs 16C/32T server "
        f"({N_CLIENTS} kissdb clients)",
        format_table(
            ["machine", "config", "elapsed_ms", "cpu_pct", "zc_mean_workers"],
            [
                [r["machine"], r["config"], r["elapsed_ms"], r["cpu_pct"], r["zc_mean_workers"]]
                for r in rows
            ],
            precision=2,
        ),
    )
    by_key = {(r["machine"], r["config"]): r for r in rows}
    for machine in ("paper-4C8T", "server-16C32T"):
        zc = by_key[(machine, "zc")]
        no_sl = by_key[(machine, "no_sl")]
        assert zc["elapsed_ms"] < no_sl["elapsed_ms"]
    # With 8 hot clients, zc provisions a larger pool on the big server
    # (it has the CPUs to spend) than on the paper's 8-thread machine.
    small = by_key[("paper-4C8T", "zc")]["zc_mean_workers"]
    big = by_key[("server-16C32T", "zc")]["zc_mean_workers"]
    assert big > small
    # And the same static 4-worker Intel config is a far smaller share of
    # the big machine's capacity.
    assert (
        by_key[("server-16C32T", "i-all-4")]["cpu_pct"]
        < by_key[("paper-4C8T", "i-all-4")]["cpu_pct"]
    )