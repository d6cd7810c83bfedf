"""Trace replay: feed a committed timeline through the serve router.

:class:`TraceReplayer` is a drop-in for the open-loop
:class:`repro.serve.loadgen.LoadGenerator` — same ``run()`` entry point,
same ``issued``/``skipped`` counters, same absolute arrival schedule,
same per-arrival request threads — except the arrivals come from a
:class:`repro.scenarios.trace.ScenarioTrace` instead of seeded draws.
Because a trace is pure data, every slice of a slice-parallel replay
walks the *identical* global timeline and only gates the spawn through
its ``admit`` predicate, which is exactly the invariant the loadgen's
guarantee rests on — so sliced replays merge bit-identical to unsliced
ones (the acceptance test of the scenario library).

A replay is a serve bench whose :class:`repro.api.BenchSpec` names a
``scenario`` or a ``trace``: :func:`repro.serve.bench.run_bench` (and
``repro serve bench --scenario NAME``) drive the replayer and write the
stamped ``serve-bench`` artifact, which is also the committed baseline
of a catalog replay (``baselines/scenario-<name>.json``).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.scenarios.trace import ScenarioTrace
from repro.serve.router import Router
from repro.sim.instructions import Compute, Sleep
from repro.sim.kernel import Kernel, Program, SimThread


class TraceReplayer:
    """Replays a :class:`ScenarioTrace` against a router.

    Mirrors the open-loop :class:`repro.serve.loadgen.LoadGenerator`
    contract: ``run()`` drives the kernel until every replayed request
    completes, ``issued`` counts every trace event (including ones a
    slice's ``admit`` predicate skipped), ``skipped`` counts the skips.
    """

    def __init__(
        self,
        kernel: Kernel,
        router: Router,
        trace: ScenarioTrace,
        *,
        admit: "Callable[[bytes], bool] | None" = None,
        parse_cycles: float = 1_200.0,
    ) -> None:
        self.kernel = kernel
        self.router = router
        self.trace = trace
        self._admit = admit
        self.parse_cycles = parse_cycles
        #: Trace events walked — every arrival, admitted or not.
        self.issued = 0
        #: Arrivals skipped by the ``admit`` predicate.
        self.skipped = 0

    def run(self) -> None:
        """Replay the whole trace and run the kernel until it drains."""
        request_threads: list[SimThread] = []
        arrivals = self.kernel.spawn(
            self._arrival_process(request_threads),
            name="trace-arrivals",
            kind="serve-client",
        )
        self.kernel.join(arrivals)
        if request_threads:
            self.kernel.join(*request_threads)

    def _arrival_process(self, request_threads: list[SimThread]) -> Program:
        # Absolute schedule anchored at replay start: each event is due
        # at t0 + its trace timestamp, independent of how long this
        # thread waited in the ready queue — the same rule as the
        # loadgen's open loop, and for the same reason (queue delay must
        # not stretch the offered timeline).
        t0 = self.kernel.now
        for event in self.trace.events:
            due = t0 + self.kernel.cycles(event.t)
            delay = due - self.kernel.now
            if delay > 0:
                yield Sleep(delay)
            index = self.issued
            self.issued += 1
            if self._admit is not None and not self._admit(event.key):
                self.skipped += 1
                continue
            request_threads.append(
                self.kernel.spawn(
                    self._one_request(event),
                    name=f"req-{index}",
                    kind="serve-client",
                )
            )

    def _one_request(self, event: Any) -> Program:
        yield Compute(self.parse_cycles, tag="request-parse")
        yield from self.router.request(
            event.op,
            event.key,
            event.value,
            tenant=event.tenant,
            app=event.app,
        )
