"""Shared system-under-test builders for the experiments.

An experiment run builds one full simulated machine per (configuration,
parameter) cell: kernel, host filesystem with devices, POSIX ocall
handlers, one enclave, and the call backend named by a
:class:`BackendSpec` — exactly the three modes the paper evaluates
(``no_sl``, Intel switchless with a static configuration, and zc).

Construction is delegated to :meth:`repro.api.Runtime.create`:
:func:`build_stack` returns the :class:`~repro.api.Runtime`, which the
cell runs on and closes with ``close()``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api import Runtime, SwitchlessConfig, ZcConfig
from repro.hostos import SyscallCostModel
from repro.sgx import SgxCostModel
from repro.sim import MachineSpec


@dataclass(frozen=True)
class BackendSpec:
    """Names one of the paper's execution modes.

    ``label`` follows the paper's legend conventions, e.g. ``no_sl``,
    ``zc``, ``i-fseeko-2``, ``i-frwoc-4``.
    """

    label: str
    kind: str  # "no_sl" | "intel" | "zc"
    switchless: frozenset[str] = frozenset()
    workers: int = 2
    zc_config: ZcConfig | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("no_sl", "intel", "zc"):
            raise ValueError(f"unknown backend kind {self.kind!r}")

    def backend_config(self) -> ZcConfig | SwitchlessConfig | None:
        """The :func:`repro.api.make_backend` config for this spec."""
        if self.kind == "intel":
            return SwitchlessConfig(
                switchless_ocalls=self.switchless, num_uworkers=self.workers
            )
        if self.kind == "zc":
            return self.zc_config  # None → configless defaults
        return None


def no_sl_spec() -> BackendSpec:
    """The paper's ``no_sl`` mode: every ocall transitions."""
    return BackendSpec(label="no_sl", kind="no_sl")


def intel_spec(tag: str, names: frozenset[str] | set[str], workers: int) -> BackendSpec:
    """An Intel switchless configuration, labelled ``i-<tag>-<workers>``."""
    return BackendSpec(
        label=f"i-{tag}-{workers}",
        kind="intel",
        switchless=frozenset(names),
        workers=workers,
    )


def zc_spec(config: ZcConfig | None = None) -> BackendSpec:
    """ZC-SWITCHLESS with its default (configless) runtime parameters."""
    return BackendSpec(label="zc", kind="zc", zc_config=config)


def build_stack(
    spec: BackendSpec,
    machine: MachineSpec | None = None,
    cost: SgxCostModel | None = None,
    syscall_costs: SyscallCostModel | None = None,
    files: dict[str, bytes] | None = None,
    monitor_interval_s: float | None = None,
    memcpy_model: object | None = None,
) -> Runtime:
    """Build a machine + enclave + backend for one experiment cell.

    ``memcpy_model`` overrides the enclave's marshalling memcpy (used by
    the Fig. 7 / Fig. 13 experiments); note the zc backend installs its
    own ``rep movsb`` model on attach regardless.
    """
    return Runtime.create(
        backend=spec.kind,
        config=spec.backend_config(),
        machine=machine,
        cost=cost,
        syscall_costs=syscall_costs,
        files=files,
        monitor_interval_s=monitor_interval_s,
        memcpy_model=memcpy_model,
        label=spec.label,
    )
