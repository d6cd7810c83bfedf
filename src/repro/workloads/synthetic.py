"""The §III synthetic f/g ocall benchmark.

``n`` ocalls are issued by 8 in-enclave threads: a fraction α/n to ``f``
(an empty function — the canonical switchless-friendly call) and β/n to
``g`` (a busy-wait of ``asm("pause")`` instructions — a *long* call).
The paper sets α = 3β.

Because the Intel SDK selects switchless routines by *name*, the "half of
the f calls switchless" configuration C3 is expressed by issuing calls
under two aliases per function (``f``/``f2``, ``g``/``g2``) that share one
host handler; a configuration is then just the set of switchless names:

====  ==========================  =================================
name  switchless set              meaning (paper §III-A)
====  ==========================  =================================
C1    f, f2                       all f switchless, g regular
C2    g, g2                       all g switchless, f regular
C3    f, g                        half of f and half of g switchless
C4    f, f2, g, g2                everything switchless
C5    (empty)                     everything regular
====  ==========================  =================================
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api import Runtime, SwitchlessConfig
from repro.sgx import SgxCostModel
from repro.sim import Compute, MachineSpec
from repro.sim.kernel import Program

SYNTHETIC_CONFIGS: dict[str, frozenset[str]] = {
    "C1": frozenset({"f", "f2"}),
    "C2": frozenset({"g", "g2"}),
    "C3": frozenset({"f", "g"}),
    "C4": frozenset({"f", "f2", "g", "g2"}),
    "C5": frozenset(),
}


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of the synthetic benchmark.

    Attributes:
        total_calls: Total ocalls (paper: 100,000).
        f_fraction: Fraction going to ``f`` (paper: α = 3β, i.e. 0.75).
        g_pauses: Duration of ``g`` in pause instructions (Fig. 3 sweeps
            0..500; Fig. 2 uses 500).
        n_threads: In-enclave caller threads (paper: 8).
        f_host_cycles: Host cost of the empty function (call glue only).
    """

    total_calls: int = 100_000
    f_fraction: float = 0.75
    g_pauses: int = 500
    n_threads: int = 8
    f_host_cycles: float = 50.0

    def __post_init__(self) -> None:
        if self.total_calls < 1:
            raise ValueError("total_calls must be >= 1")
        if not 0 <= self.f_fraction <= 1:
            raise ValueError("f_fraction must be in [0, 1]")
        if self.g_pauses < 0:
            raise ValueError("g_pauses must be >= 0")
        if self.n_threads < 1:
            raise ValueError("n_threads must be >= 1")


@dataclass(frozen=True)
class SyntheticResult:
    """Outcome of one synthetic-benchmark run."""

    config: str
    workers: int
    elapsed_seconds: float
    cpu_usage_pct: float
    switchless_calls: int
    fallback_calls: int
    regular_calls: int


def _call_plan(spec: SyntheticSpec, thread_index: int) -> list[str]:
    """The deterministic per-thread call sequence.

    Calls follow a repeating f,f,f,g pattern (α = 3β); successive calls to
    the same function alternate between the two aliases so that C3 runs
    exactly half of each function switchlessly.
    """
    per_thread = spec.total_calls // spec.n_threads
    if thread_index < spec.total_calls % spec.n_threads:
        per_thread += 1
    f_period = round(1 / (1 - spec.f_fraction)) if spec.f_fraction < 1 else 0
    plan: list[str] = []
    f_count = g_count = 0
    for i in range(per_thread):
        is_g = f_period and (i % f_period == f_period - 1)
        if is_g:
            plan.append("g" if g_count % 2 == 0 else "g2")
            g_count += 1
        else:
            plan.append("f" if f_count % 2 == 0 else "f2")
            f_count += 1
    return plan


def run_synthetic(
    config: str,
    workers: int,
    spec: SyntheticSpec | None = None,
    machine: MachineSpec | None = None,
    cost: SgxCostModel | None = None,
) -> SyntheticResult:
    """Run one configuration cell of Fig. 2 / Fig. 3.

    ``config`` is one of the paper's static Intel configurations C1–C5,
    or the extension modes ``"zc"`` (ZC-SWITCHLESS decides at runtime;
    ``workers`` is ignored) and ``"no_sl"``.
    """
    if config not in SYNTHETIC_CONFIGS and config not in ("zc", "no_sl"):
        raise ValueError(f"unknown config {config!r}; pick C1..C5, 'zc' or 'no_sl'")
    spec = spec if spec is not None else SyntheticSpec()
    cost = cost if cost is not None else SgxCostModel()
    if config == "zc":
        kind, backend_config = "zc", None
    elif config == "no_sl":
        kind, backend_config = "baseline", None
    else:
        kind = "intel"
        backend_config = SwitchlessConfig(
            switchless_ocalls=SYNTHETIC_CONFIGS[config], num_uworkers=workers
        )
    g_cycles = spec.g_pauses * cost.pause_cycles

    def f_handler() -> Program:
        yield Compute(spec.f_host_cycles, tag="host-f")
        return None

    def g_handler() -> Program:
        yield Compute(g_cycles, tag="host-g")
        return None

    with Runtime.create(
        kind, backend_config, machine=machine, cost=cost, label=f"{config}-w{workers}"
    ) as rt:
        rt.urts.register_many(
            {"f": f_handler, "f2": f_handler, "g": g_handler, "g2": g_handler}
        )
        enclave = rt.enclave

        def caller(thread_index: int) -> Program:
            for name in _call_plan(spec, thread_index):
                yield from enclave.ocall(name)

        rt.start_measuring()
        threads = [
            rt.spawn(caller(i), name=f"enclave-{i}", kind="app")
            for i in range(spec.n_threads)
        ]
        rt.join(*threads)
        usage = rt.cpu_usage_pct()
        elapsed = rt.kernel.seconds(rt.kernel.now)

    stats = enclave.stats
    return SyntheticResult(
        config=config,
        workers=workers,
        elapsed_seconds=elapsed,
        cpu_usage_pct=usage,
        switchless_calls=stats.total_switchless,
        fallback_calls=stats.total_fallback,
        regular_calls=stats.total_regular,
    )
