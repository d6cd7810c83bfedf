"""The unified runtime facade: one front door to the whole stack.

Historically every workload hand-assembled its system under test —
kernel, filesystem, host OS, enclave, and one of three backends, each
with a different construction incantation.  This module replaces those
incantations with a single factory:

    >>> from repro.api import Runtime
    >>> with Runtime.create(backend="zc") as rt:
    ...     def program():
    ...         result = yield from rt.enclave.ocall("fopen", "/dev/null", "w")
    ...         return result
    ...     fd = rt.run_program(program())
    >>> fd
    3

- :func:`Runtime.create` wires a complete simulated machine and returns
  a context-manager :class:`Runtime` owning the lifecycle: closing it
  detaches fault injection, stops backend threads, drains the kernel and
  finalizes telemetry, in the order the ledger requires.
- :func:`make_backend` is the one canonical construction point for the
  three call backends (``"zc"`` / ``"intel"`` / ``"baseline"``); nothing
  else in the repo instantiates backend classes directly.
- :func:`normalize_backend` maps the historical spelling zoo (``no_sl``,
  ``regular``, ``zc-switchless``, ...) onto :data:`BACKEND_CHOICES`, the
  single vocabulary the CLI's ``--backend`` flags use.

Two runtimes can share one kernel by passing ``kernel=``/``fs=`` (the
§V-D sender/receiver pair does): a runtime that does not own its kernel
neither attaches the ambient telemetry session or fault plan (the
kernel's owner does that exactly once) nor drains the kernel on close.
The serve cluster (:func:`repro.serve.bench.build_cluster`) is the one
other kernel owner: it puts N enclave shards on one kernel.

The *declarative* serving surface lives here too: :class:`ServeSpec`
describes a cluster, :class:`BenchSpec` describes a full benchmark run
over one, :class:`AutoscaleSpec` enables the elastic control plane, and
:meth:`Runtime.serve` is the single entry point that turns a spec into a
live cluster or a finished artifact.  Every spec validates its field
combinations centrally in one error path (:class:`SpecError`) and
round-trips through JSON with a schema stamp, so evidence packs and
scenario baselines record the complete serve configuration.  Each
field is declared once: :func:`flag` marks the ones the CLI sets, and
the flags, the flag→spec fold and the JSON form are all derived from
the dataclass fields.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import types
import typing
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any, Callable, ClassVar, Iterator, TypeVar

from repro.core.backend import ZcSwitchlessBackend
from repro.core.config import ZcConfig
from repro.faults import FaultInjector, active_fault_plan
from repro.hostos import (
    CpuUsageMonitor,
    DevNull,
    DevZero,
    HostFileSystem,
    PosixHost,
    ProcStat,
    SyscallCostModel,
)
from repro.sgx import Enclave, SgxCostModel, UntrustedRuntime
from repro.sgx.backend import CallBackend, RegularBackend
from repro.sim import Kernel, MachineSpec, paper_machine
from repro.switchless.backend import IntelSwitchlessBackend
from repro.switchless.config import SwitchlessConfig
from repro.telemetry.schema import check_stamp, stamp
from repro.telemetry.session import CellCapture, active_session

if TYPE_CHECKING:
    from repro.sim.kernel import Program, SimThread

__all__ = [
    "BACKEND_CHOICES",
    "AutoscaleSpec",
    "BenchSpec",
    "Runtime",
    "ServeSpec",
    "SpecError",
    "SwitchlessConfig",
    "ZcConfig",
    "base_type",
    "flag",
    "flag_choices",
    "make_backend",
    "normalize_backend",
    "parse_pairs",
    "spec_fields",
    "spec_flags",
]

#: The canonical backend vocabulary (the CLI's ``--backend`` choices).
BACKEND_CHOICES: tuple[str, ...] = ("zc", "intel", "baseline")

#: Historical spellings accepted by :func:`normalize_backend`.
_ALIASES: dict[str, str] = {
    "zc": "zc",
    "zc-switchless": "zc",
    "intel": "intel",
    "intel-switchless": "intel",
    "sdk": "intel",
    "baseline": "baseline",
    "no_sl": "baseline",
    "no-sl": "baseline",
    "regular": "baseline",
}


def normalize_backend(name: str) -> str:
    """Map a backend spelling onto :data:`BACKEND_CHOICES`.

    >>> normalize_backend("no_sl")
    'baseline'
    >>> normalize_backend("zc-switchless")
    'zc'
    """
    try:
        return _ALIASES[name.strip().lower()]
    except (KeyError, AttributeError):
        raise ValueError(
            f"unknown backend {name!r}; choose one of {', '.join(BACKEND_CHOICES)}"
        ) from None


def make_backend(
    kind: str, config: ZcConfig | SwitchlessConfig | None = None
) -> CallBackend:
    """Construct a call backend — the repo's single instantiation point.

    ``config`` must match the backend family: a :class:`ZcConfig` for
    ``"zc"``, a :class:`SwitchlessConfig` for ``"intel"``, and nothing
    for ``"baseline"`` (which has no knobs — every call transitions).
    Omitting the config gives each backend its documented defaults.
    """
    kind = normalize_backend(kind)
    if kind == "baseline":
        if config is not None:
            raise TypeError("the baseline backend takes no config")
        return RegularBackend()
    if kind == "intel":
        if config is not None and not isinstance(config, SwitchlessConfig):
            raise TypeError(
                f"intel backend needs a SwitchlessConfig, got {type(config).__name__}"
            )
        return IntelSwitchlessBackend(config)
    if config is not None and not isinstance(config, ZcConfig):
        raise TypeError(f"zc backend needs a ZcConfig, got {type(config).__name__}")
    return ZcSwitchlessBackend(config)


# ----------------------------------------------------------------------
# Declarative serve specs
# ----------------------------------------------------------------------
#: Artifact kind stamped onto serialized specs.
SPEC_ARTIFACT = "serve-spec"


class SpecError(ValueError):
    """A declarative serve/bench spec failed validation.

    Every invalid field *combination* — not just an out-of-range single
    field — raises through this one type, so callers (the CLI included)
    have a single error path instead of per-flag ad-hoc checks.
    """


def flag(
    default: Any, help: str, *, metavar: str | None = None, choices: Any = None
) -> Any:
    """Declare a spec field that the serve-family CLI sets with a flag.

    The flag is ``--`` plus the field name with ``_`` replaced by ``-``;
    its default is ``default`` and its type follows the field's type
    hint.  ``choices`` (a tuple, or a callable returning one) bound the
    flag and the field alike.
    """
    meta = {"help": help, "metavar": metavar, "choices": choices}
    return field(default=default, metadata=meta)


def _serve_choices(module: str, name: str) -> Callable[[], tuple[str, ...]]:
    """Choices defined in :mod:`repro.serve`, which imports this module:
    looked up once, when first needed."""
    return functools.cache(lambda: getattr(importlib.import_module(module), name))


def flag_choices(spec_field: dataclasses.Field) -> tuple[str, ...] | None:
    """The choices a :func:`flag` field declares (None when unbounded)."""
    choices = spec_field.metadata.get("choices")
    return choices() if callable(choices) else choices


@functools.cache
def spec_fields(cls: type) -> tuple[tuple[dataclasses.Field, Any], ...]:
    """The fields of ``cls`` with their type hints, resolved once per class
    (``typing.get_type_hints`` costs more than a whole ``from_json``)."""
    hints = typing.get_type_hints(cls)
    return tuple((spec_field, hints[spec_field.name]) for spec_field in fields(cls))


@functools.cache
def base_type(hint: Any) -> Any:
    """A type hint with ``None`` dropped: ``int | None`` → ``int``."""
    args = [arg for arg in typing.get_args(hint) if arg is not type(None)]
    return args[0] if isinstance(hint, types.UnionType) and len(args) == 1 else hint


def spec_flags(cls: type) -> Iterator[tuple[dataclasses.Field, Any]]:
    """Every :func:`flag` field of ``cls`` and of the specs nested in it,
    in declaration order, with its :func:`base_type`."""
    for spec_field, hint in spec_fields(cls):
        base = base_type(hint)
        if "help" in spec_field.metadata:
            yield spec_field, base
        if dataclasses.is_dataclass(base):
            yield from spec_flags(base)


def parse_pairs(text: str, what: str) -> tuple[tuple[str, float], ...]:
    """``"gold:3,bronze"`` → ``(("gold", 3.0), ("bronze", 1.0))``.

    Only the syntax is checked here; the spec that receives the pairs
    validates names, uniqueness and weights.
    """
    pairs = []
    for part in filter(None, (part.strip() for part in text.split(","))):
        name, _, weight = (item.strip() for item in part.partition(":"))
        if not name:
            raise SpecError(f"{what}: empty name in {text!r}")
        try:
            pairs.append((name, float(weight) if weight else 1.0))
        except ValueError:
            raise SpecError(f"{what}: bad weight for {name!r} in {text!r}") from None
    return tuple(pairs)


def _check_pairs(
    pairs: "tuple[tuple[str, float], ...] | None", what: str
) -> None:
    """Validate a weighted ``(name, weight)`` tuple (tenants or apps)."""
    if pairs is None:
        return
    if not pairs:
        raise SpecError(f"{what} needs at least one (name, weight) pair")
    names = [name for name, _ in pairs]
    duplicates = ", ".join(sorted({n for n in names if names.count(n) > 1}))
    if duplicates:
        raise SpecError(f"{what} names must be unique; duplicate {duplicates}")
    if any(weight <= 0 for _, weight in pairs):
        raise SpecError(f"{what} weights must be positive")


def _to_plain(value: Any) -> Any:
    """One field value as JSON data: nested specs and tuples recurse."""
    if isinstance(value, _Spec):
        return value.to_json()
    if isinstance(value, tuple):
        return [_to_plain(item) for item in value]
    return value


def _from_plain(hint: Any, value: Any, where: str) -> Any:
    """One JSON value rebuilt as the field's type ``hint`` describes."""
    base = base_type(hint)
    if value is None and base is not hint:
        return None
    if typing.get_origin(base) is tuple:
        items = typing.get_args(base)
        if items[-1] is Ellipsis and isinstance(value, list):
            items = items[:1] * len(value)
        if not isinstance(value, list) or len(value) != len(items):
            raise SpecError(f"{where}: expected {len(items)} item(s), found {value!r}")
        return tuple(_from_plain(item, v, where) for item, v in zip(items, value))
    if issubclass(base, _Spec):
        return base.from_json(value)
    try:
        return base(value)
    except (TypeError, ValueError):
        expected = base.__name__
        raise SpecError(f"{where}: expected {expected}, found {value!r}") from None


_S = TypeVar("_S", bound="_Spec")


class _Spec:
    """What a spec dataclass derives from its field declarations: the
    JSON form (from the fields and their type hints, so a new field
    round-trips with no code; nested specs are written as their own
    documents, tuples as lists) and the choices check."""

    #: ``meta.kind`` of the stamped form; None writes no stamp (a spec
    #: that only travels nested inside another).
    JSON_KIND: ClassVar[str | None] = None

    def to_json(self) -> dict[str, Any]:
        """Plain-data form; round-trips via :meth:`from_json`."""
        doc: dict[str, Any] = {}
        if self.JSON_KIND is not None:
            doc["meta"] = {**stamp(SPEC_ARTIFACT), "kind": self.JSON_KIND}
        for spec_field, _ in spec_fields(type(self)):
            doc[spec_field.name] = _to_plain(getattr(self, spec_field.name))
        return doc

    @classmethod
    def from_json(cls: type[_S], data: Any) -> _S:
        """Rebuild a spec from :meth:`to_json` output (stamp-checked).

        Unknown and missing keys are refused at every nesting level, in
        one :class:`SpecError` naming the class and the keys.
        """
        name = cls.__name__
        if not isinstance(data, dict):
            raise SpecError(f"{name}: expected a JSON object, found {data!r}")
        keys = set(data)
        if cls.JSON_KIND is not None:
            check_stamp(data.get("meta", {}), SPEC_ARTIFACT, source=name)
            keys.discard("meta")
        hints = spec_fields(cls)
        names = {f.name for f, _ in hints}
        for problem, found in (("unknown", keys - names), ("missing", names - keys)):
            if found:
                found_text = ", ".join(sorted(found))
                raise SpecError(f"{name}: {problem} field(s) {found_text}")
        return cls(
            **{
                f.name: _from_plain(hint, data[f.name], f"{name}.{f.name}")
                for f, hint in hints
            }
        )

    def _check_choices(self) -> None:
        """Refuse any field value outside its flag's declared choices."""
        for spec_field in fields(self):  # type: ignore[arg-type]
            choices = flag_choices(spec_field)
            value = getattr(self, spec_field.name)
            if choices is not None and value not in choices:
                raise SpecError(f"{spec_field.name} must be one of {choices}")


@dataclass(frozen=True)
class AutoscaleSpec(_Spec):
    """Configuration of the elastic control plane (:mod:`repro.autoscale`).

    The controller watches the obs window stream, forecasts per-lane
    arrivals with an EWMA, and sweeps (shards × per-shard workers ×
    batching degree) against the wasted-cycle objective ``U`` — the
    paper's §IV-A argmin, one level up.  Scaling actions are charged the
    enclave-lifecycle cost model (:mod:`repro.sgx.lifecycle`).

    Attributes:
        min_shards: Never retire below this many live shards.
        max_shards: Never spawn above this many live shards.
        worker_options: Candidate per-shard switchless-worker budgets
            swept by the optimizer (the fleet cap becomes
            ``workers × live shards``).
        batch_options: Candidate per-shard dequeue batch sizes.
        alpha: EWMA smoothing factor for the arrival forecast, in
            ``(0, 1]`` (1 = trust only the last window).
        headroom: Capacity multiplier the predictive admission gate
            grants before shedding (≥ 1; higher sheds later).
    """

    min_shards: int = flag(1, "autoscale floor on the fleet size (default 1)")
    max_shards: int = flag(8, "autoscale ceiling on the fleet size (default 8)")
    worker_options: tuple[int, ...] = (1, 2, 4)
    batch_options: tuple[int, ...] = (1, 2, 4)
    alpha: float = 0.5
    headroom: float = 1.25

    def __post_init__(self) -> None:
        if self.min_shards < 1:
            raise SpecError("autoscale min_shards must be >= 1")
        if self.max_shards < self.min_shards:
            raise SpecError("autoscale max_shards must be >= min_shards")
        for name in ("worker_options", "batch_options"):
            options = tuple(getattr(self, name))
            object.__setattr__(self, name, options)
            if not options:
                raise SpecError(f"autoscale {name} must not be empty")
            if any(int(opt) != opt or opt < 1 for opt in options):
                raise SpecError(f"autoscale {name} must be positive integers")
            if list(options) != sorted(set(options)):
                raise SpecError(
                    f"autoscale {name} must be strictly increasing"
                )
        if not 0.0 < self.alpha <= 1.0:
            raise SpecError("autoscale alpha must be in (0, 1]")
        if self.headroom < 1.0:
            raise SpecError("autoscale headroom must be >= 1")


@dataclass(frozen=True)
class ServeSpec(_Spec):
    """Declarative description of one serving cluster.

    The single source of truth for cluster topology — what used to be
    the ``--shards/--backend/--budget/--apps/...`` flag sprawl.  Build a
    live cluster from it with ``Runtime.serve(spec)`` (returns a
    :class:`repro.serve.bench.ServeCluster`).

    >>> spec = ServeSpec(shards=4, budget=8)
    >>> spec.backend
    'zc'
    >>> ServeSpec(shards=0)
    Traceback (most recent call last):
        ...
    repro.api.SpecError: shards must be >= 1

    Attributes:
        shards: Initial enclave shard count (the *global* count for a
            sliced run; the fixed count without autoscaling).
        backend: One of :data:`BACKEND_CHOICES` (aliases accepted and
            normalized on construction).
        policy: Router placement policy (``hash`` | ``round-robin``).
        admission: Full-queue admission policy (``shed`` | ``block``).
        queue_capacity: Per-shard bound on queued requests.
        servers_per_shard: Untrusted server threads per shard.
        budget: Fleet-wide switchless-worker cap (None = no arbiter).
        batch: Requests a server thread drains per dispatch (≥ 1).
        dispatch_cycles: Untrusted dispatch cost charged once per drain
            burst (0 disables the dispatch cost model).
        apps: Weighted served-app mix as ``(name, weight)`` pairs; None
            keeps the classic single-app KV shard.
        tenants: Weighted tenant mix as ``(name, weight)`` pairs, kept
            sorted by name; also switches the router to weighted-fair
            shedding.
        plan: Fault-plan name to attach (None = ambient plan, if any).
        fault_shard: Global index of the shard the plan attaches to.
        autoscale: Elastic control-plane configuration (None = static).
    """

    JSON_KIND = "serve"

    shards: int = flag(2, "enclave shards (default 2)")
    backend: str = flag(
        "zc", "call backend per shard (default zc)", choices=BACKEND_CHOICES
    )
    policy: str = flag(
        "hash",
        "request placement (default hash = rendezvous)",
        choices=_serve_choices("repro.serve.router", "POLICY_CHOICES"),
    )
    admission: str = flag(
        "shed",
        "full-queue behaviour (default shed)",
        choices=_serve_choices("repro.serve.router", "ADMISSION_CHOICES"),
    )
    queue_capacity: int = flag(64, "per-shard queue bound (default 64)")
    servers_per_shard: int = flag(
        2, "untrusted server threads per shard (default 2)"
    )
    budget: int | None = flag(
        None, "global switchless-worker cap across all shards (default uncapped)"
    )
    batch: int = 1
    dispatch_cycles: float = 0.0
    apps: tuple[tuple[str, float], ...] | None = flag(
        None,
        "weighted served-app mix, e.g. 'kv:6,session:3,crypto:1' "
        "(installs every named app on every shard; first = default)",
        metavar="MIX",
    )
    tenants: tuple[tuple[str, float], ...] | None = flag(
        None,
        "weighted tenant mix, e.g. 'gold:3,bronze:1' "
        "(enables weighted-fair shedding and per-tenant stats)",
        metavar="MIX",
    )
    plan: str | None = flag(
        None,
        "fault plan (name or JSON file) injected into one shard",
        metavar="PLAN",
    )
    fault_shard: int = flag(0, "shard the fault plan targets (default 0)")
    autoscale: AutoscaleSpec | None = flag(
        None,
        "run the elastic control plane (repro.autoscale): spawn/retire "
        "shards, retune the worker cap and gate admission per obs window",
    )

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise SpecError("shards must be >= 1")
        object.__setattr__(self, "backend", normalize_backend(self.backend))
        self._check_choices()
        if self.queue_capacity < 1:
            raise SpecError("queue_capacity must be >= 1")
        if self.servers_per_shard < 1:
            raise SpecError("servers_per_shard must be >= 1")
        if self.budget is not None and self.budget < 0:
            raise SpecError("budget must be >= 0 (or None)")
        if self.batch < 1:
            raise SpecError("batch must be >= 1")
        if self.dispatch_cycles < 0:
            raise SpecError("dispatch_cycles must be >= 0")
        if self.apps is not None:
            object.__setattr__(
                self, "apps", tuple(tuple(pair) for pair in self.apps)
            )
            _check_pairs(self.apps, "apps")
            # Deferred import: the serve modules import this one at load
            # time; by spec-construction time they are always importable.
            from repro.serve.apps import APP_CHOICES

            unknown = [n for n, _ in self.apps if n not in APP_CHOICES]
            if unknown:
                raise SpecError(
                    f"unknown apps {unknown}; choices: {', '.join(APP_CHOICES)}"
                )
        if self.tenants is not None:
            # Sorted by name: the load generator's RNG stream follows the
            # mix order, which must not depend on how the mix was spelled.
            tenants = sorted(
                (tuple(pair) for pair in self.tenants), key=lambda pair: pair[0]
            )
            object.__setattr__(self, "tenants", tuple(tenants))
            _check_pairs(self.tenants, "tenants")
        if not 0 <= self.fault_shard < self.shards:
            raise SpecError(
                f"fault_shard {self.fault_shard} out of range for "
                f"{self.shards} shards"
            )
        if self.autoscale is not None:
            if not isinstance(self.autoscale, AutoscaleSpec):
                raise SpecError("autoscale must be an AutoscaleSpec")
            if self.backend != "zc":
                raise SpecError(
                    "autoscale requires the zc backend (the worker-budget "
                    "arbiter and §IV-A objective live there)"
                )
            if self.policy != "hash":
                raise SpecError(
                    "autoscale requires policy='hash' (rendezvous placement "
                    "is what makes shard add/retire re-home only the moved "
                    "keys)"
                )
            if not (
                self.autoscale.min_shards
                <= self.shards
                <= self.autoscale.max_shards
            ):
                raise SpecError(
                    f"initial shards ({self.shards}) must lie within the "
                    f"autoscale band [{self.autoscale.min_shards}, "
                    f"{self.autoscale.max_shards}]"
                )

    def app_names(self) -> tuple[str, ...] | None:
        """Installed served-app names, in mix order (None = default KV)."""
        if self.apps is None:
            return None
        return tuple(name for name, _ in self.apps)

    def tenant_weights(self) -> dict[str, float] | None:
        """The tenant mix as a name → weight dict (None without tenants)."""
        if self.tenants is None:
            return None
        return dict(self.tenants)


#: The synthetic-load fields a trace replay takes from the trace instead
#: (the arrival times, keys and ops are the trace's events, the run
#: length its declared duration).
TRACE_OWNED_FIELDS = ("seconds", "rate", "keydist", "keyspace", "set_fraction", "seed")


@dataclass(frozen=True)
class BenchSpec(_Spec):
    """Declarative description of one serve benchmark run.

    A :class:`ServeSpec` plus the offered load, observation windows and
    slicing — everything ``repro serve bench`` used to take as ~15 flags.
    Run it with ``Runtime.serve(spec)`` (returns the stamped
    ``serve-bench`` artifact).

    >>> bench = BenchSpec(serve=ServeSpec(shards=4), seconds=0.1)
    >>> BenchSpec(serve=ServeSpec(shards=2), slices=4)
    Traceback (most recent call last):
        ...
    repro.api.SpecError: slices (4) must not exceed shards (2)

    A replay takes :data:`TRACE_OWNED_FIELDS` from the trace — its
    events and declared duration — so it refuses any of them set to
    other than its default (``rate`` may also be None); the closed loop
    likewise refuses a ``rate`` and records it as None.

    Attributes:
        serve: The cluster under test.
        seconds: Offered-load duration in simulated seconds.
        rate: Open-loop Poisson arrival rate in requests/s (None under
            the closed loop, which has no offered rate).
        clients: Closed-loop request threads (None = open loop).
        requests_per_client: Closed-loop per-thread request budget.
        keydist: Key distribution (``uniform`` | ``zipf`` | ``seq``).
        keyspace: Distinct keys for the synthetic distributions.
        set_fraction: Fraction of requests that are ``set``.
        seed: Base RNG seed for the synthetic load.
        scenario: Catalog scenario name to replay (committed trace).
        trace: Trace-file path to replay (exclusive with ``scenario``).
        slices: Slice-parallel process count (1 = single process).
        obs: Attach the windowed metric sampler.
        obs_interval: Window width in simulated cycles (None = duration
            split into the default window count; setting it implies
            ``obs``).
        contracts: Path to an SLO contracts JSON file to evaluate; it is
            read before the cluster is built.
    """

    JSON_KIND = "bench"

    serve: ServeSpec = field(default_factory=ServeSpec)
    seconds: float = flag(
        2.0, "simulated run length in seconds (default %(default)s)"
    )
    rate: float | None = flag(
        2_000.0, "open-loop offered load in rps (default 2000)"
    )
    clients: int | None = flag(
        None, "switch to a closed loop with N client threads"
    )
    requests_per_client: int | None = flag(
        None, "closed-loop bound on requests per client"
    )
    keydist: str = flag(
        "uniform",
        "client key distribution (default uniform)",
        choices=_serve_choices("repro.serve.loadgen", "KEYDIST_CHOICES"),
    )
    keyspace: int = 256
    set_fraction: float = 1.0 / 3.0
    seed: int = flag(0, "load-generator seed (default 0)")
    scenario: str | None = flag(
        None,
        "replay a catalog scenario's committed trace instead of "
        "synthetic load (see 'repro scenarios list')",
        metavar="NAME",
    )
    trace: str | None = flag(
        None,
        "replay a scenario trace file instead of synthetic load",
        metavar="FILE",
    )
    slices: int = flag(
        1,
        "partition the shards across N slice processes, each simulating "
        "its subset, and merge deterministically (open loop only; "
        "default 1 = single process)",
    )
    obs: bool = flag(
        False,
        "attach the windowed metric sampler + anomaly detector; "
        "the windows are the artifact's obs section",
    )
    obs_interval: float | None = flag(
        None,
        "window length in simulated cycles (implies --obs; default: "
        "the run split into 10 windows)",
        metavar="CYCLES",
    )
    contracts: str | None = flag(
        None,
        "evaluate per-tenant SLO contracts; hard breaches exit 1",
        metavar="FILE",
    )

    def __post_init__(self) -> None:
        if not isinstance(self.serve, ServeSpec):
            raise SpecError("serve must be a ServeSpec")
        self._check_choices()
        if self.seconds <= 0:
            raise SpecError("seconds must be > 0")
        if self.clients is not None:
            if self.clients < 1:
                raise SpecError("clients must be >= 1 (or None for the open loop)")
            self._refuse_unused(("rate",), "the closed loop has no offered rate")
            object.__setattr__(self, "rate", None)
        if self.rate is not None and self.rate <= 0:
            raise SpecError("rate must be > 0 (or None for the closed loop)")
        if self.rate is None and self.clients is None and not self.replays_trace():
            raise SpecError("the open loop needs a rate (None only with clients or a trace)")
        if self.requests_per_client is not None and self.clients is None:
            raise SpecError("requests_per_client needs clients (closed loop)")
        if self.keyspace < 1:
            raise SpecError("keyspace must be >= 1")
        if not 0.0 <= self.set_fraction <= 1.0:
            raise SpecError("set_fraction must be in [0, 1]")
        if self.scenario is not None and self.trace is not None:
            raise SpecError("scenario and trace are mutually exclusive — pick one")
        if self.replays_trace():
            if self.clients is not None:
                raise SpecError("trace replay is open-loop; drop clients")
            self._refuse_unused(
                TRACE_OWNED_FIELDS, "trace replay takes its load from the trace"
            )
        if self.slices < 1:
            raise SpecError("slices must be >= 1")
        if self.slices > self.serve.shards:
            raise SpecError(
                f"slices ({self.slices}) must not exceed shards "
                f"({self.serve.shards})"
            )
        if self.slices > 1:
            if self.serve.policy != "hash":
                raise SpecError(
                    "slice-parallel serving requires policy='hash'"
                )
            if self.clients is not None:
                raise SpecError(
                    "slice-parallel serving is open-loop only; drop clients"
                )
            if self.serve.autoscale is not None:
                raise SpecError(
                    "autoscale needs the single-process runner; with a "
                    "fixed slices > 1 the shard set cannot change mid-run"
                )
        if self.serve.autoscale is not None and self.clients is not None:
            raise SpecError(
                "autoscale forecasts open-loop arrival windows; the closed "
                "loop has no offered-load signal to forecast"
            )
        if self.obs_interval is not None:
            if self.obs_interval <= 0:
                raise SpecError("obs_interval must be a positive cycle count")
            object.__setattr__(self, "obs", True)

    def _refuse_unused(self, names: tuple[str, ...], why: str) -> None:
        """Refuse, in one error, every field of ``names`` set to a value
        other than its default (or None) — a value the run would ignore
        while the artifact records it."""
        unused = [
            spec_field.name
            for spec_field in fields(self)
            if spec_field.name in names
            and getattr(self, spec_field.name) not in (spec_field.default, None)
        ]
        if unused:
            raise SpecError(f"{why}; drop {', '.join(unused)}")

    def replays_trace(self) -> bool:
        """True when the load comes from a committed/explicit trace."""
        return self.scenario is not None or self.trace is not None

    def replace(self, **changes: Any) -> "BenchSpec":
        """A copy with ``changes`` applied (re-validated on construction)."""
        return dataclasses.replace(self, **changes)


class Runtime:
    """One fully-wired system under test, with an owned lifecycle.

    Built by :meth:`create`; use as a context manager (or call
    :meth:`close` explicitly).  Attributes of interest:

    - ``kernel`` / ``fs`` / ``urts`` / ``enclave`` / ``backend`` — the
      wired simulation objects;
    - ``telemetry`` — the :class:`CellCapture` attached for this runtime
      (None when telemetry is off);
    - ``faults`` — the attached :class:`FaultInjector` (None on healthy
      runs);
    - ``procstat`` / ``monitor`` — the ``/proc/stat`` meter and optional
      usage monitor.
    """

    def __init__(
        self,
        *,
        kernel: Kernel,
        fs: HostFileSystem,
        urts: UntrustedRuntime,
        enclave: Enclave,
        backend: CallBackend,
        procstat: ProcStat,
        label: str,
        owns_kernel: bool,
        monitor: CpuUsageMonitor | None = None,
        telemetry: CellCapture | None = None,
        faults: FaultInjector | None = None,
    ) -> None:
        self.kernel = kernel
        self.fs = fs
        self.urts = urts
        self.enclave = enclave
        self.backend = backend
        self.procstat = procstat
        self.label = label
        self.owns_kernel = owns_kernel
        self.monitor = monitor
        self.telemetry = telemetry
        self.faults = faults
        self._closed = False
        self._start_sample: Any = None

    # ------------------------------------------------------------------
    # Factory
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        backend: str = "zc",
        config: ZcConfig | SwitchlessConfig | None = None,
        *,
        machine: MachineSpec | None = None,
        kernel: Kernel | None = None,
        fs: HostFileSystem | None = None,
        files: dict[str, bytes] | None = None,
        cost: SgxCostModel | None = None,
        syscall_costs: SyscallCostModel | None = None,
        memcpy_model: Any | None = None,
        monitor_interval_s: float | None = None,
        telemetry: bool = True,
        faults: bool = True,
        arbiter: Any | None = None,
        label: str | None = None,
        name: str = "enclave",
    ) -> "Runtime":
        """Wire kernel + host OS + enclave + backend and return a Runtime.

        Args:
            backend: One of :data:`BACKEND_CHOICES` (aliases accepted).
            config: Backend config (see :func:`make_backend`).
            machine: Simulated machine; default :func:`paper_machine`.
                Ignored when ``kernel`` is given.
            kernel: Attach to an existing kernel instead of creating one
                (shared-kernel mode, used by :mod:`repro.serve` and
                §V-D).  The runtime then neither drains the kernel on
                close nor attaches the ambient session or plan.
            fs: Share an existing host filesystem; by default a fresh one
                is created with ``/dev/null`` and ``/dev/zero`` mounted.
            files: Initial file contents to create in the filesystem.
            cost: SGX cycle-cost model override.
            syscall_costs: Host syscall cost model override.
            memcpy_model: Marshalling memcpy override (the zc backend
                installs its own ``rep movsb`` model on attach anyway).
            monitor_interval_s: When set, start a
                :class:`CpuUsageMonitor` sampling at this period.
            telemetry: ``True`` (default) attaches the ambient
                :func:`active_session`, if any, when this runtime owns
                its kernel; ``False`` never attaches.
            faults: ``True`` (default) attaches the ambient
                :func:`active_fault_plan`'s injector, if any, to this
                runtime's enclave when it owns its kernel; ``False``
                never attaches.
            arbiter: Cross-enclave worker-budget arbiter installed on the
                backend before attach (zc only; see
                :class:`repro.serve.budget.WorkerBudgetArbiter`).
            label: Telemetry cell label; defaults to the backend kind.
            name: Enclave name (distinguishes shards in fault events).
        """
        kind = normalize_backend(backend)
        label = label if label is not None else kind
        owns_kernel = kernel is None
        if kernel is None:
            kernel = Kernel(machine if machine is not None else paper_machine())

        session = active_session() if telemetry and owns_kernel else None
        capture = session.attach(kernel, label=label) if session is not None else None

        if fs is None:
            fs = HostFileSystem()
            fs.mount_device("/dev/null", DevNull())
            fs.mount_device("/dev/zero", DevZero())
        if files:
            for path, data in files.items():
                fs.create(path, data)

        urts = UntrustedRuntime()
        PosixHost(fs, syscall_costs, kernel=kernel).install(urts)
        enclave = Enclave(kernel, urts, cost=cost, memcpy_model=memcpy_model, name=name)

        if kind == "baseline":
            call_backend: CallBackend = enclave.backend  # the default RegularBackend
        else:
            call_backend = make_backend(kind, config)
            if arbiter is not None:
                call_backend.arbiter = arbiter  # type: ignore[attr-defined]
            enclave.set_backend(call_backend)

        monitor = None
        if monitor_interval_s is not None:
            monitor = CpuUsageMonitor(kernel, kernel.cycles(monitor_interval_s)).start()
        if capture is not None:
            capture.bind_enclave(enclave)

        plan = active_fault_plan() if faults and owns_kernel else None
        injector = (
            FaultInjector(plan).attach(kernel, enclave) if plan is not None else None
        )

        return cls(
            kernel=kernel,
            fs=fs,
            urts=urts,
            enclave=enclave,
            backend=call_backend,
            procstat=ProcStat(kernel),
            label=label,
            owns_kernel=owns_kernel,
            monitor=monitor,
            telemetry=capture,
            faults=injector,
        )

    @classmethod
    def serve(
        cls, spec: "ServeSpec | BenchSpec", **kwargs: Any
    ) -> Any:
        """The declarative serving entry point.

        - A :class:`ServeSpec` builds and returns a live, started
          :class:`repro.serve.bench.ServeCluster` (close it when done).
        - A :class:`BenchSpec` runs the full benchmark — synthetic load
          or trace replay, sliced or not, autoscaled or static — and
          returns the stamped ``serve-bench`` artifact.

        Keyword arguments are forwarded to
        :func:`repro.serve.bench.build_cluster` /
        :func:`repro.serve.bench.run_bench` (runner plumbing such as
        ``machine``, ``telemetry`` or ``span_sink`` — everything
        *declarative* belongs in the spec).
        """
        # Deferred import: repro.serve.bench imports this module.
        from repro.serve.bench import build_cluster, run_bench

        if isinstance(spec, BenchSpec):
            return run_bench(spec, **kwargs)
        if isinstance(spec, ServeSpec):
            return build_cluster(spec, **kwargs)
        raise SpecError(
            f"Runtime.serve takes a ServeSpec or BenchSpec, got "
            f"{type(spec).__name__}"
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run."""
        return self._closed

    def close(self) -> None:
        """Tear the runtime down in ledger order.  Idempotent.

        Fault timers are cancelled first (so teardown never advances
        simulated time to a future fault instant), then the monitor and
        backend threads stop, the kernel drains (owned kernels only —
        shared kernels are drained once by their owner), and finally the
        telemetry capture snapshots the ledger so exit-cleanup cycles are
        attributed.
        """
        if self._closed:
            return
        self._closed = True
        if self.faults is not None:
            self.faults.detach()
        if self.monitor is not None:
            self.monitor.stop()
        self.enclave.stop_backend()
        if self.owns_kernel:
            self.kernel.run()
            if self.telemetry is not None:
                self.telemetry.finalize()

    def __enter__(self) -> "Runtime":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Conveniences
    # ------------------------------------------------------------------
    def spawn(self, program: "Program", **kwargs: Any) -> "SimThread":
        """Spawn a simulated thread on this runtime's kernel."""
        return self.kernel.spawn(program, **kwargs)

    def join(self, *threads: "SimThread") -> None:
        """Run the kernel until the given threads complete."""
        self.kernel.join(*threads)

    def run_program(self, program: "Program", name: str = "program") -> Any:
        """Spawn ``program``, run it to completion, return its result."""
        thread = self.kernel.spawn(program, name=name)
        self.kernel.join(thread)
        return thread.result

    def start_measuring(self) -> None:
        """Snapshot CPU counters; usage is measured from here."""
        self._start_sample = self.procstat.sample()

    def cpu_usage_pct(self) -> float:
        """Mean CPU usage since :meth:`start_measuring`."""
        if self._start_sample is None:
            raise RuntimeError("start_measuring() was not called")
        end = self.procstat.sample()
        return self.procstat.usage_between(self._start_sample, end).usage_pct
