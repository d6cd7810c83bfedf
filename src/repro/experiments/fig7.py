"""Fig. 7: write-ocall throughput, aligned vs unaligned (vanilla memcpy).

100,000 ``write`` syscalls to ``/dev/null`` from the enclave, each
marshalling a buffer of 512 B..32 kB through the SDK's tlibc ``memcpy``.
The paper observes aligned buffers consistently faster and the unaligned
curve plateauing around 0.4 GB/s (the byte-by-byte copy path).

Shape requirements:

- aligned > unaligned at every size;
- unaligned throughput plateaus in the 0.3-0.5 GB/s band at 32 kB;
- throughput grows with buffer size (the per-op transition amortises).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import format_table
from repro.experiments.common import build_stack, no_sl_spec
from repro.parallel import CellSpec, cell
from repro.sgx.memcpy import MemcpyModel, VanillaMemcpy

SIZES = (512, 1024, 2048, 4096, 8192, 16_384, 32_768)


@dataclass(frozen=True)
class ThroughputPoint:
    """One data point of the figure."""
    size_bytes: int
    aligned: bool
    gbps: float


@dataclass
class Fig7Result:
    """Structured result of this experiment."""
    points: list[ThroughputPoint]
    ops: int

    def gbps(self, size: int, aligned: bool) -> float:
        """Throughput in GB/s for the given cell."""
        for p in self.points:
            if p.size_bytes == size and p.aligned == aligned:
                return p.gbps
        raise KeyError((size, aligned))

    def series(self, aligned: bool) -> list[tuple[int, float]]:
        """The (x, y) series for one configuration line."""
        return [
            (p.size_bytes, p.gbps) for p in self.points if p.aligned == aligned
        ]


def measure_write_throughput(
    size: int,
    aligned: bool,
    memcpy_model: MemcpyModel,
    ops: int = 300,
) -> float:
    """GB/s of ``ops`` write ocalls of ``size`` bytes to /dev/null."""
    stack = build_stack(no_sl_spec(), memcpy_model=memcpy_model)
    enclave = stack.enclave
    kernel = stack.kernel
    payload = bytes(size)

    def app():
        fd = yield from enclave.ocall("open", "/dev/null", "w")
        for _ in range(ops):
            yield from enclave.ocall(
                "write", fd, payload, in_bytes=size, aligned=aligned
            )
        yield from enclave.ocall("close", fd)

    start = kernel.now
    thread = kernel.spawn(app(), name="writer")
    kernel.join(thread)
    elapsed_s = kernel.seconds(kernel.now - start)
    stack.close()
    return size * ops / elapsed_s / 1e9


def cells(
    sizes: tuple[int, ...] = SIZES,
    ops: int = 300,
    memcpy_model: MemcpyModel | None = None,
) -> list[CellSpec]:
    """The experiment's grid as data: one cell per (size, alignment).

    The memcpy model rides along as a cell parameter, which is how
    Fig. 13 reuses these cells (and their cache entries) for both the
    vanilla and the zc variant.
    """
    model = memcpy_model if memcpy_model is not None else VanillaMemcpy()
    return [
        cell("fig7", index, size=size, aligned=aligned, memcpy_model=model, ops=ops)
        for index, (size, aligned) in enumerate(
            (size, aligned) for size in sizes for aligned in (True, False)
        )
    ]


def run_cell(spec: CellSpec) -> ThroughputPoint:
    """Execute one cell of the grid."""
    kw = spec.kwargs
    gbps = measure_write_throughput(
        kw["size"], kw["aligned"], kw["memcpy_model"], kw["ops"]
    )
    return ThroughputPoint(kw["size"], kw["aligned"], gbps)


def assemble(
    points: list[ThroughputPoint],
    sizes: tuple[int, ...] = SIZES,
    ops: int = 300,
    memcpy_model: MemcpyModel | None = None,
) -> Fig7Result:
    """Build the structured result from rows in ``cells()`` order."""
    return Fig7Result(points=list(points), ops=ops)


def table(result: Fig7Result) -> tuple[list[str], list[list]]:
    """(headers, rows) of the figure's data, for reports and CSV export."""
    sizes = sorted({p.size_bytes for p in result.points})
    rows = [
        [size, result.gbps(size, True), result.gbps(size, False)]
        for size in sizes
    ]
    return ["size_B", "aligned_GBps", "unaligned_GBps"], rows


def report(result: Fig7Result) -> str:
    """Render the figure's series as an aligned text table."""
    headers, rows = table(result)
    return format_table(
        headers,
        rows,
        title=f"Fig. 7: /dev/null write-ocall throughput, vanilla memcpy ({result.ops} ops)",
    )


def check_shape(result: Fig7Result) -> list[str]:
    """Return the violated paper-shape expectations (empty = reproduced)."""
    violations = []
    sizes = sorted({p.size_bytes for p in result.points})
    for size in sizes:
        if not result.gbps(size, True) > result.gbps(size, False):
            violations.append(f"expected aligned > unaligned at {size} B")
    plateau = result.gbps(sizes[-1], False)
    if not 0.3 < plateau < 0.5:
        violations.append(
            f"expected unaligned plateau near 0.4 GB/s, got {plateau:.3f}"
        )
    for aligned in (True, False):
        series = [g for _, g in result.series(aligned)]
        if not all(a < b for a, b in zip(series, series[1:])):
            violations.append(
                f"expected throughput to grow with size (aligned={aligned})"
            )
    return violations
