"""Load generation for the serving layer: one generator, two loops.

:class:`LoadGenerator` drives a :class:`repro.serve.router.Router` with
the load a :class:`repro.api.BenchSpec` describes:

- **Closed loop** (``spec.clients`` set) — that many request threads,
  each issuing its next request the moment the previous one completes,
  until ``spec.requests_per_client`` or ``spec.seconds`` runs out.
  Offered load tracks service capacity; use it for saturation/scaling
  measurements.
- **Open loop** — one arrival program walks an arrival iterator and
  spawns a request thread per arrival at its due time, regardless of
  how the previous requests are doing.  The arrivals are seeded Poisson
  draws at ``spec.rate`` until ``spec.seconds``, or the events of a
  :class:`repro.scenarios.ScenarioTrace` (a replay).  Offered load is
  independent of the system, so queues actually build and shed/latency
  tails mean something.  This is the ``repro serve bench`` default.

Synthetic keys come from the seeded YCSB-style generators of
:mod:`repro.workloads.keydist`; everything is deterministic per
``spec.seed`` (or per trace).
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable, Iterator

from repro.api import BenchSpec, SpecError
from repro.serve.router import Router
from repro.sim.instructions import Compute, Sleep
from repro.sim.kernel import Kernel, Program, SimThread
from repro.workloads.keydist import SequentialKeys, UniformKeys, ZipfKeys

if TYPE_CHECKING:
    from repro.scenarios.trace import ScenarioTrace

#: Key-distribution names a :class:`repro.api.BenchSpec` accepts.
KEYDIST_CHOICES = ("uniform", "zipf", "seq")

#: Untrusted request-parse cost charged per request, in cycles.
PARSE_CYCLES = 1_200.0

#: Payload size of a synthetic ``set`` value, in bytes.
VALUE_BYTES = 8


def _mix(pairs: tuple[tuple[str, float], ...] | None) -> tuple[list, list] | None:
    """A weighted ``(name, weight)`` mix as ``rng.choices`` arguments."""
    if pairs is None:
        return None
    return [name for name, _ in pairs], [weight for _, weight in pairs]


class LoadGenerator:
    """Drives a router with a :class:`repro.api.BenchSpec`'s load.

    ``trace`` replays a loaded :class:`repro.scenarios.ScenarioTrace`
    through the open loop instead of seeded draws: each event is due at
    the replay's start plus its timestamp.  ``admit`` is the
    slice-parallel hook (see :mod:`repro.serve.slices`): a
    ``key -> bool`` predicate consulted per open-loop arrival.  The
    generator always walks the *complete* arrival stream — every seeded
    gap, op, key and tenant, or every trace event — and only gates the
    spawn, so every slice of a partitioned run reproduces the identical
    global schedule and serves exactly the arrivals it owns.  The closed
    loop takes neither (a closed client's next arrival depends on its
    previous completion, which a trace cannot script and a filtered
    slice cannot reproduce).
    """

    def __init__(
        self,
        kernel: Kernel,
        router: Router,
        spec: BenchSpec,
        *,
        trace: "ScenarioTrace | None" = None,
        admit: Callable[[bytes], bool] | None = None,
    ) -> None:
        if spec.clients is not None:
            if trace is not None:
                raise SpecError("trace replay is open-loop; drop clients")
            if admit is not None:
                raise SpecError("admit filtering requires the open loop")
        self.kernel = kernel
        self.router = router
        self.spec = spec
        self.trace = trace
        self._admit = admit
        # Weighted draws happen only for a real mix: without tenants, or
        # with a single app, a request consumes no RNG for them, so the
        # seeded streams of runs without a mix stay what they were
        # before mixes existed.
        self._tenants = _mix(spec.serve.tenants)
        apps = spec.serve.apps
        self._apps = _mix(apps) if apps is not None and len(apps) > 1 else None
        #: Requests issued — for the open loop every arrival, including
        #: the ones ``admit`` skipped.
        self.issued = 0
        #: Arrivals skipped by the ``admit`` predicate.
        self.skipped = 0

    def run(self) -> None:
        """Generate the load and run the kernel until it completes."""
        if self.spec.clients is not None:
            self.kernel.join(
                *(
                    self.kernel.spawn(
                        self._closed_client(index),
                        name=f"client-{index}",
                        kind="serve-client",
                    )
                    for index in range(self.spec.clients)
                )
            )
            return
        request_threads: list[SimThread] = []
        self.kernel.join(
            self.kernel.spawn(
                self._open_loop(request_threads),
                name="loadgen-arrivals" if self.trace is None else "trace-arrivals",
                kind="serve-client",
            )
        )
        if request_threads:
            self.kernel.join(*request_threads)

    # ------------------------------------------------------------------
    # Programs
    # ------------------------------------------------------------------
    def _closed_client(self, index: int) -> Program:
        spec = self.spec
        # Integer-derived stream: tuple seeds would go through the salted
        # hash() and break cross-process determinism.
        rng = random.Random(spec.seed * 1_000_003 + index)
        dist = self._make_dist(index)
        deadline = self.kernel.now + self.kernel.cycles(spec.seconds)
        budget = spec.requests_per_client
        issued = 0
        while (budget is None or issued < budget) and self.kernel.now < deadline:
            request = self._draw(rng, dist, issued)
            self.issued += 1
            issued += 1
            yield from self._request(*request)

    def _open_loop(self, request_threads: list[SimThread]) -> Program:
        # Absolute schedule anchored at the loop's start: each arrival is
        # *due* at its own time, independent of how long this thread
        # waited in the ready queue.  A relative sleep would silently
        # under-offer load whenever the system is busy (the queue delay
        # would stretch every gap) — and would make the arrival stream
        # depend on contention, which the slice-parallel runner's
        # identical-schedule guarantee cannot tolerate.
        t0 = self.kernel.now
        arrivals = self._poisson(t0) if self.trace is None else self._replay(t0)
        for due, request in arrivals:
            delay = due - self.kernel.now
            if delay > 0:
                yield Sleep(delay)
            index = self.issued
            self.issued += 1
            if self._admit is not None and not self._admit(request[1]):
                self.skipped += 1
                continue
            request_threads.append(
                self.kernel.spawn(
                    self._request(*request),
                    name=f"req-{index}",
                    kind="serve-client",
                )
            )

    def _request(
        self, op: str, key: bytes, value: bytes | None, tenant: str, app: str | None
    ) -> Program:
        yield Compute(PARSE_CYCLES, tag="request-parse")
        yield from self.router.request(op, key, value, tenant=tenant, app=app)

    # ------------------------------------------------------------------
    # Arrival iterators: (due cycle, (op, key, value, tenant, app)) pairs
    # ------------------------------------------------------------------
    def _poisson(self, t0: float) -> Iterator[tuple[float, tuple]]:
        """Seeded Poisson arrivals at ``spec.rate``; an arrival due at or
        after ``t0 + spec.seconds`` ends the stream."""
        spec = self.spec
        rng = random.Random(spec.seed * 1_000_003 + 999_331)
        dist = self._make_dist(0)
        deadline = t0 + self.kernel.cycles(spec.seconds)
        due = t0
        counter = 0
        while True:
            due += self.kernel.cycles(rng.expovariate(spec.rate))
            if due >= deadline:
                return
            yield due, self._draw(rng, dist, counter)
            counter += 1

    def _replay(self, t0: float) -> Iterator[tuple[float, tuple]]:
        """The trace's events, each due at ``t0`` plus its timestamp."""
        for event in self.trace.events:
            due = t0 + self.kernel.cycles(event.t)
            yield due, (event.op, event.key, event.value, event.tenant, event.app)

    # ------------------------------------------------------------------
    # Synthetic draws
    # ------------------------------------------------------------------
    def _make_dist(self, index: int):
        spec = self.spec
        if spec.keydist == "seq":
            return SequentialKeys()
        if spec.keydist == "zipf":
            return ZipfKeys(spec.keyspace, seed=spec.seed + index)
        return UniformKeys(spec.keyspace, seed=spec.seed + index)

    def _draw(self, rng: random.Random, dist, counter: int) -> tuple:
        """One synthetic request: the key, then ``rng.random()`` for the
        op, then the tenant (only with a mix), then the app (only with
        two or more apps) — the draw order every seeded run depends on."""
        key = dist.next_key()
        if rng.random() < self.spec.set_fraction:
            op, value = "set", (counter % 2**63).to_bytes(VALUE_BYTES, "big")
        else:
            op, value = "get", None
        tenant = rng.choices(*self._tenants)[0] if self._tenants else ""
        app = rng.choices(*self._apps)[0] if self._apps else None
        return op, key, value, tenant, app
