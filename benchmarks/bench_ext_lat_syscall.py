"""Extension bench: the lmbench lat_syscall family across backends.

lmbench's latency microbenchmarks (null, read, write, stat, fstat,
open+close) are the canonical "how expensive is a syscall" table.  Inside
an enclave every one of them is an ocall, so the table directly exposes
the transition tax and what each switchless design recovers — per
operation class, not just for read/write.
"""

from benchmarks.conftest import emit
from repro.analysis.report import format_table
from repro.apps import LmbenchSyscalls
from repro.experiments.common import build_stack, intel_spec, no_sl_spec, zc_spec

ALL_SYSCALLS = frozenset({"getppid", "read", "write", "stat", "fstat", "open", "close"})
OPS = 150


def run_config(spec) -> dict[str, float]:
    stack = build_stack(spec)
    kernel = stack.kernel
    bench = LmbenchSyscalls(stack.enclave)
    latencies: dict[str, float] = {"config": spec.label}

    def program():
        yield from bench.setup()
        latencies["null"] = yield from bench.measure_latency(bench.null_op, OPS)
        latencies["read"] = yield from bench.measure_latency(bench.read_op, OPS)
        latencies["write"] = yield from bench.measure_latency(bench.write_op, OPS)
        latencies["stat"] = yield from bench.measure_latency(bench.stat_op, OPS)
        latencies["fstat"] = yield from bench.measure_latency(bench.fstat_op, OPS)
        latencies["open+close"] = yield from bench.measure_latency(
            bench.open_close_op, OPS
        )
        yield from bench.teardown()

    kernel.join(kernel.spawn(program(), name="lat", kind="app"))
    stack.close()
    return latencies


def test_lat_syscall_table(benchmark):
    specs = [no_sl_spec(), intel_spec("all", ALL_SYSCALLS, 2), zc_spec()]
    rows = benchmark.pedantic(
        lambda: [run_config(spec) for spec in specs], rounds=1, iterations=1
    )
    columns = ["null", "read", "write", "stat", "fstat", "open+close"]
    emit(
        "Extension: lmbench lat_syscall family (mean cycles per op)",
        format_table(
            ["config"] + columns,
            [[r["config"]] + [r[c] for c in columns] for r in rows],
            precision=0,
        ),
    )
    by_config = {r["config"]: r for r in rows}
    no_sl = by_config["no_sl"]
    zc = by_config["zc"]
    for column in columns:
        # Every syscall class benefits from switchless execution; the
        # double-ocall open+close benefits twice.
        assert zc[column] < no_sl[column], f"zc must beat no_sl on {column}"
    # The transition tax dominates the null syscall: ~T_es of the ~14.5k
    # regular-path cycles disappear.
    assert no_sl["null"] - zc["null"] > 9_000
