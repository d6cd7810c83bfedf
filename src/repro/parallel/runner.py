"""The cell runner: fan independent simulation cells over processes.

Every experiment cell builds its own :class:`~repro.sim.kernel.Kernel`
and simulated machine, so cells share no state and the grid is
embarrassingly parallel.  :class:`CellRunner` executes a list of
:class:`~repro.parallel.cells.CellSpec` either in-process (``jobs=1``,
platforms without ``fork``, when at most one cell misses the cache, or
when the run is observed by something that lives in this process — see
below) or over a ``concurrent.futures.ProcessPoolExecutor``, and always
returns outcomes **in spec order** regardless of completion order —
which is what keeps ``jobs=N`` output bit-identical to ``jobs=1``.

Telemetry crosses the process boundary explicitly: when the parent has an
active :class:`~repro.telemetry.session.TelemetrySession`, each worker
opens its own session, runs the cell, and ships a
:class:`~repro.telemetry.session.SessionPayload` back; the parent absorbs
payloads in cell order, so capture labels and metrics match a serial run.
Callbacks do not cross processes, so a session with an ``on_attach`` hook
(the live invariant auditors) keeps every cell in-process, and so does an
active fault plan (:func:`repro.faults.activate_plan`), whose stack is
process state.

A :class:`~repro.parallel.cache.ResultCache` (optional) is consulted
before any execution and fed after; hits skip the cell entirely.  An
observed run — under an active session or fault plan — bypasses it: a hit
would capture nothing, and a row computed under a fault plan must not be
stored under its healthy key.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Sequence

from repro.faults import active_fault_plan
from repro.parallel.cache import ResultCache
from repro.parallel.cells import CellSpec
from repro.telemetry.session import SessionPayload, TelemetrySession, active_session


def resolve_jobs(jobs: int | str | None) -> int:
    """Normalise a ``--jobs`` value: ``"auto"``/None means the CPU count."""
    if jobs is None or jobs == "auto":
        return os.cpu_count() or 1
    count = int(jobs)
    if count < 1:
        raise ValueError("jobs must be >= 1")
    return count


def fork_available() -> bool:
    """Whether this platform can fork pool workers (Linux/macOS: yes)."""
    return "fork" in multiprocessing.get_all_start_methods()


@dataclass(frozen=True)
class CellOutcome:
    """One executed (or cache-served) cell."""

    spec: CellSpec
    row: Any
    wall_seconds: float
    cached: bool


def _run_cell_inline(spec: CellSpec) -> Any:
    """Execute one cell in this process (under any active session)."""
    # Imported lazily: repro.experiments imports the experiment modules,
    # which import repro.parallel for run_cells — resolving the registry
    # at call time breaks the cycle.
    from repro.experiments import CELL_PROVIDERS, EXPERIMENTS

    module = EXPERIMENTS.get(spec.exp_id) or CELL_PROVIDERS[spec.exp_id]
    return module.run_cell(spec)


def _pool_run_cell(
    spec: CellSpec, telemetry: bool
) -> tuple[Any, float, SessionPayload | None]:
    """Pool-worker entry point: run one cell, return (row, wall, payload).

    Module-level (not a closure) so the fork context can pickle it.  With
    telemetry requested, the worker opens its own session — innermost
    wins over any session inherited through fork — and ships the captures
    back as plain data.
    """
    started = time.perf_counter()
    if telemetry:
        with TelemetrySession() as session:
            row = _run_cell_inline(spec)
        payload = session.to_payload()
    else:
        row = _run_cell_inline(spec)
        payload = None
    return row, time.perf_counter() - started, payload


class CellRunner:
    """Executes cell specs with optional parallelism and caching.

    Args:
        jobs: Worker count; ``"auto"`` resolves to the host CPU count.
        cache: A :class:`ResultCache`, or None to always execute.  An
            observed run (active session or fault plan) bypasses it.
    """

    def __init__(self, jobs: int | str = 1, cache: ResultCache | None = None) -> None:
        self.jobs = resolve_jobs(jobs)
        self.cache = cache

    def run(self, specs: Sequence[CellSpec]) -> list[CellOutcome]:
        """Execute the specs; outcomes come back in spec order."""
        session = active_session()
        plan = active_fault_plan()
        cache = self.cache if session is None and plan is None else None
        outcomes: list[CellOutcome | None] = [None] * len(specs)
        pending: list[int] = []
        for i, spec in enumerate(specs):
            if cache is not None:
                hit, row = cache.load(spec)
                if hit:
                    outcomes[i] = CellOutcome(spec, row, 0.0, cached=True)
                    continue
            pending.append(i)

        in_process = plan is not None or (
            session is not None and session.on_attach is not None
        )
        # The pool only pays off with >= 2 cells to overlap; a platform
        # without fork falls back to the identical in-process path.
        use_pool = (
            self.jobs > 1 and len(pending) > 1 and fork_available() and not in_process
        )
        if not use_pool:
            for i in pending:
                started = time.perf_counter()
                row = _run_cell_inline(specs[i])
                outcomes[i] = CellOutcome(
                    specs[i], row, time.perf_counter() - started, cached=False
                )
                if cache is not None:
                    cache.store(specs[i], row)
        else:
            context = multiprocessing.get_context("fork")
            workers = min(self.jobs, len(pending))
            with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
                futures = {
                    i: pool.submit(_pool_run_cell, specs[i], session is not None)
                    for i in pending
                }
                # Collect — and absorb telemetry — in spec order, so rows,
                # capture labels and metrics match the serial run exactly.
                for i in pending:
                    row, wall, payload = futures[i].result()
                    outcomes[i] = CellOutcome(specs[i], row, wall, cached=False)
                    if cache is not None:
                        cache.store(specs[i], row)
                    if session is not None and payload is not None:
                        session.absorb(payload)
        return [outcome for outcome in outcomes if outcome is not None]

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    @property
    def cache_hits(self) -> int:
        """Cache hits observed so far (0 without a cache)."""
        return self.cache.hits if self.cache is not None else 0

    @property
    def cache_misses(self) -> int:
        """Cache misses observed so far (0 without a cache)."""
        return self.cache.misses if self.cache is not None else 0


def run_cells(
    specs: Sequence[CellSpec],
    jobs: int | str = 1,
    cache: ResultCache | None = None,
) -> list[Any]:
    """Convenience: execute specs and return just the rows, in spec order.

    With the defaults it degenerates to a plain serial loop.
    """
    return [outcome.row for outcome in CellRunner(jobs, cache).run(specs)]
