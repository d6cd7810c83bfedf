"""Cell specifications: an experiment's grid, as data.

Every experiment is a grid of independent *cells* — one (backend,
parameter) point, each of which builds its own simulated machine.  A
:class:`CellSpec` names one such point declaratively, which is what lets
one interface feed every consumer:

- the cell runner (:mod:`repro.parallel.runner`), serial or over a
  process pool, behind :func:`repro.experiments.suite.run_experiment`;
- the content-addressed result cache (:mod:`repro.parallel.cache`);
- ``repro run``'s reuse of an earlier experiment's rows when two
  experiments' cell lists are equal.

Experiment modules expose ``cells(**kwargs) -> list[CellSpec]``,
``run_cell(spec) -> row`` and ``assemble(rows, **kwargs) -> Result``; see
``docs/extending.md``.  Parameters may be plain values or (frozen)
dataclasses such as ``BackendSpec`` / ``SyntheticSpec`` — anything
picklable with a stable field set, so a spec can cross a process boundary
and be canonicalised into a cache key.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class CellSpec:
    """One cell of an experiment grid.

    Attributes:
        exp_id: Registry id of the module whose ``run_cell`` executes this
            spec (``repro.experiments.EXPERIMENTS``).  Derived figures
            reuse another experiment's cells — e.g. ``fig9`` returns
            ``fig8`` specs — so identical work shares one cache entry, and
            a derived figure has no ``run_cell`` of its own.
        index: Position in the grid, for labelling/diagnostics only; the
            runner preserves list order and the cache key excludes it.
        params: The cell's keyword parameters, sorted by name.
    """

    exp_id: str
    index: int
    params: tuple[tuple[str, Any], ...]

    @property
    def kwargs(self) -> dict[str, Any]:
        """The parameters as a keyword dict."""
        return dict(self.params)

    def label(self) -> str:
        """Short display label, e.g. ``fig8[3]``."""
        return f"{self.exp_id}[{self.index}]"


def cell(exp_id: str, index: int, **params: Any) -> CellSpec:
    """Build a :class:`CellSpec` with deterministically ordered params."""
    return CellSpec(exp_id, index, tuple(sorted(params.items())))


def canonical(value: Any) -> Any:
    """Reduce ``value`` to a JSON-serialisable canonical form.

    Used for cache keys: two parameter values hash equal iff their
    canonical forms are equal.  Dataclasses flatten to a type-tagged field
    mapping, sets sort, tuples become lists; anything else falls back to
    ``repr`` (stable for the simple value objects experiments use).
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {
            f.name: canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
        return {"__type__": type(value).__qualname__, **fields}
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (set, frozenset)):
        return {"__set__": sorted(canonical(v) for v in value)}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return {"__repr__": repr(value)}
