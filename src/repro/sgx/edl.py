"""EDL-style enclave interface definitions.

The Intel SDK defines an enclave's boundary in an ``.edl`` file: trusted
(ecall) and untrusted (ocall) functions, with switchless execution opted
in per function via ``transition_using_threads`` — fixed when edger8r
generates the bridges, i.e. at build time.  That static opt-in is the
paper's core pain point (§III-A).

This module reproduces that workflow declaratively: an
:class:`EnclaveInterface` lists the boundary functions with their
attributes, validates the definition, and "generates the bridges" —
registering handlers into the trusted/untrusted runtimes and deriving the
:class:`repro.switchless.SwitchlessConfig` for the Intel backend.  The zc
backends ignore the switchless flags entirely, which is the point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.switchless.config import SwitchlessConfig

if TYPE_CHECKING:
    from repro.sgx.enclave import Enclave


class EdlError(ValueError):
    """Raised for invalid interface definitions."""


@dataclass(frozen=True)
class BoundaryFunction:
    """One function crossing the enclave boundary.

    Attributes:
        name: The ocall/ecall name.
        handler: Generator coroutine implementing it (host side for
            untrusted functions, enclave side for trusted ones).
        switchless: The EDL ``transition_using_threads`` attribute.
    """

    name: str
    handler: Callable
    switchless: bool = False


@dataclass
class EnclaveInterface:
    """A declarative enclave boundary (the ``.edl`` file equivalent).

    Example::

        interface = EnclaveInterface(name="storage")
        interface.untrusted("fwrite", fwrite_handler, switchless=True)
        interface.trusted("seal", seal_handler)
        interface.bind(enclave)   # registers handlers
        backend = make_backend("intel", interface.switchless_config())
    """

    name: str
    trusted_functions: list[BoundaryFunction] = field(default_factory=list)
    untrusted_functions: list[BoundaryFunction] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Declaration
    # ------------------------------------------------------------------
    def trusted(
        self, name: str, handler: Callable, switchless: bool = False
    ) -> "EnclaveInterface":
        """Declare an ecall (returns self for chaining)."""
        self._check_fresh(name)
        self.trusted_functions.append(BoundaryFunction(name, handler, switchless))
        return self

    def untrusted(
        self, name: str, handler: Callable, switchless: bool = False
    ) -> "EnclaveInterface":
        """Declare an ocall (returns self for chaining)."""
        self._check_fresh(name)
        self.untrusted_functions.append(BoundaryFunction(name, handler, switchless))
        return self

    def _check_fresh(self, name: str) -> None:
        if not name or not name.isidentifier():
            raise EdlError(f"function name {name!r} is not a valid identifier")
        if name in self.names():
            raise EdlError(f"duplicate boundary function {name!r}")

    def names(self) -> set[str]:
        """Every declared boundary-function name."""
        return {f.name for f in self.trusted_functions} | {
            f.name for f in self.untrusted_functions
        }

    # ------------------------------------------------------------------
    # "edger8r": bridge generation
    # ------------------------------------------------------------------
    def bind(self, enclave: "Enclave") -> "EnclaveInterface":
        """Register every handler into the enclave's runtimes."""
        for function in self.untrusted_functions:
            enclave.urts.register(function.name, function.handler)
        for function in self.trusted_functions:
            enclave.trts.register(function.name, function.handler)
        return self

    def switchless_config(self, **overrides) -> SwitchlessConfig:
        """Derive the Intel SDK configuration from the EDL attributes."""
        return SwitchlessConfig(
            switchless_ocalls=frozenset(
                f.name for f in self.untrusted_functions if f.switchless
            ),
            switchless_ecalls=frozenset(
                f.name for f in self.trusted_functions if f.switchless
            ),
            **overrides,
        )

    def describe(self) -> str:
        """A human-readable rendering, in loose ``.edl`` syntax."""
        lines = [f"enclave {self.name} {{"]
        lines.append("    trusted {")
        for function in self.trusted_functions:
            attr = " transition_using_threads" if function.switchless else ""
            lines.append(f"        public void {function.name}(){attr};")
        lines.append("    };")
        lines.append("    untrusted {")
        for function in self.untrusted_functions:
            attr = " transition_using_threads" if function.switchless else ""
            lines.append(f"        void {function.name}(){attr};")
        lines.append("    };")
        lines.append("};")
        return "\n".join(lines)
