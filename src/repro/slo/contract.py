"""Per-tenant SLO contracts evaluated over serve-bench artifacts.

A contract names one tenant and bounds what the serving layer owes it:

- ``p99_latency_us`` / ``p999_latency_us`` — tail-latency ceilings;
- ``min_throughput_rps`` — completed-request floor;
- ``max_shed_rate`` — admission-control shed ceiling (shed/submitted);
- ``recovery_deadline_s`` (+ optional ``fault_plan``) — every quarantine
  episode under the named fault plan must re-admit within the deadline.

Contracts come in two severities.  **hard** contracts gate: a breach is
a "regression" in the :mod:`repro.regress.diff` vocabulary and drives
``repro serve bench --contracts`` (and the CI ``slo`` job) to exit 1.
**diagnostic** contracts report the same breaches as "drift" — visible,
never gating.  One escape hatch connects this to the percentile
confidence floor of :class:`repro.analysis.metrics.LatencyRecorder`: a
hard tail-latency verdict read from fewer samples than the quantile
supports is *downgraded* to diagnostic, with the note saying why — a
10-request smoke run cannot fail CI on a p999 it cannot measure.

Contract sets round-trip through schema-stamped JSON
(:func:`load_contracts` / :func:`contracts_to_document`); the committed
set lives in ``contracts/quick.json``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Mapping, Sequence

from repro.analysis.metrics import LatencyRecorder
from repro.telemetry.schema import SchemaMismatch, read_artifact, stamp, write_artifact

#: Stamp of a contract-set file.
CONTRACTS_ARTIFACT = "slo-contracts"

#: Contract severities, in gating order.
SEVERITY_CHOICES = ("hard", "diagnostic")

#: Quantile each latency bound reads, keyed by contract field.
_LATENCY_BOUNDS: tuple[tuple[str, str, float], ...] = (
    ("p99_latency_us", "p99", 99.0),
    ("p999_latency_us", "p999", 99.9),
)


@dataclass(frozen=True)
class SloContract:
    """One tenant's service-level objectives (None = unchecked)."""

    tenant: str
    severity: str = "hard"
    p99_latency_us: float | None = None
    p999_latency_us: float | None = None
    min_throughput_rps: float | None = None
    max_shed_rate: float | None = None
    recovery_deadline_s: float | None = None
    #: Fault plan the recovery deadline applies under; a run under a
    #: different plan (or none) records the deadline as not exercised.
    fault_plan: str | None = None

    def __post_init__(self) -> None:
        if self.severity not in SEVERITY_CHOICES:
            raise ValueError(f"severity must be one of {SEVERITY_CHOICES}")
        for name in (
            "p99_latency_us",
            "p999_latency_us",
            "min_throughput_rps",
            "recovery_deadline_s",
        ):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive")
        if self.max_shed_rate is not None and not 0 <= self.max_shed_rate <= 1:
            raise ValueError("max_shed_rate must be in [0, 1]")
        if self.bounds() == ():
            raise ValueError(f"contract for {self.tenant!r} bounds nothing")

    def bounds(self) -> tuple[str, ...]:
        """Names of the objective fields this contract actually sets."""
        return tuple(
            f.name
            for f in fields(self)
            if f.name not in ("tenant", "severity", "fault_plan")
            and getattr(self, f.name) is not None
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if getattr(self, f.name) is not None
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SloContract":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown contract field(s): {sorted(unknown)}")
        return cls(**data)


@dataclass(frozen=True)
class Verdict:
    """One evaluated objective: what was measured against what bound."""

    tenant: str
    check: str
    severity: str  # effective severity, after any confidence downgrade
    ok: bool
    measured: float | None
    bound: float | None
    message: str
    note: str = ""  # e.g. the low-confidence downgrade explanation

    @property
    def breached(self) -> bool:
        return not self.ok

    @property
    def gating(self) -> bool:
        """True when this verdict alone fails the run."""
        return self.severity == "hard" and not self.ok

    def diff_severity(self) -> str:
        """This verdict in :mod:`repro.regress.diff` vocabulary."""
        if self.gating:
            return "regression"
        if self.breached:
            return "drift"
        return "ok"

    def to_dict(self) -> dict[str, Any]:
        return {
            "tenant": self.tenant,
            "check": self.check,
            "severity": self.severity,
            "ok": self.ok,
            "measured": self.measured,
            "bound": self.bound,
            "message": self.message,
            "note": self.note,
            "diff_severity": self.diff_severity(),
        }


# ----------------------------------------------------------------------
# Contract-set round trip
# ----------------------------------------------------------------------
def contracts_to_document(contracts: Sequence[SloContract]) -> dict[str, Any]:
    """The stamped JSON document form of a contract set."""
    return {
        "meta": stamp(CONTRACTS_ARTIFACT),
        "contracts": [contract.to_dict() for contract in contracts],
    }


def save_contracts(contracts: Sequence[SloContract], path: str) -> str:
    """Write a contract set as a stamped JSON artifact; returns ``path``."""
    return write_artifact(contracts_to_document(contracts), path)


def load_contracts(path: str) -> list[SloContract]:
    """Load a stamped contract file.

    Every way the file can be wrong — the :func:`read_artifact`
    refusals, a contract that does not validate, a tenant contracted
    twice — raises one :class:`SchemaMismatch` naming ``path``.
    """
    document = read_artifact(path, (CONTRACTS_ARTIFACT,))
    try:
        contracts = [
            SloContract.from_dict(entry) for entry in document.get("contracts", [])
        ]
    except (TypeError, ValueError) as exc:
        raise SchemaMismatch(f"{path}: bad contract ({exc})") from None
    tenants = [contract.tenant for contract in contracts]
    if len(set(tenants)) != len(tenants):
        raise SchemaMismatch(f"{path}: duplicate tenant contract(s)")
    return contracts


# ----------------------------------------------------------------------
# Evaluation
# ----------------------------------------------------------------------
def _latency_verdicts(
    contract: SloContract, tenant_record: Mapping[str, Any]
) -> list[Verdict]:
    latency = tenant_record.get("latency_us", {})
    count = int(latency.get("count", 0))
    verdicts = []
    for field_name, quantile_key, quantile in _LATENCY_BOUNDS:
        bound = getattr(contract, field_name)
        if bound is None:
            continue
        measured = float(latency.get(quantile_key, 0.0))
        ok = measured <= bound
        severity = contract.severity
        note = ""
        floor = LatencyRecorder.sample_floor(quantile)
        if not ok and severity == "hard" and count < floor:
            severity = "diagnostic"
            note = (
                f"downgraded to diagnostic: {quantile_key} read from {count} "
                f"sample(s), needs >= {floor} for a confident tail estimate"
            )
        verdicts.append(
            Verdict(
                tenant=contract.tenant,
                check=quantile_key,
                severity=severity,
                ok=ok,
                measured=measured,
                bound=bound,
                message=(
                    f"{quantile_key} latency {measured:.1f} us "
                    f"{'<=' if ok else '>'} bound {bound:.1f} us"
                ),
                note=note,
            )
        )
    return verdicts


def _recovery_verdict(
    contract: SloContract, result: Mapping[str, Any]
) -> Verdict | None:
    deadline = contract.recovery_deadline_s
    if deadline is None:
        return None
    run_plan = result.get("params", {}).get("plan")
    if contract.fault_plan is not None and run_plan != contract.fault_plan:
        return Verdict(
            tenant=contract.tenant,
            check="recovery",
            severity=contract.severity,
            ok=True,
            measured=None,
            bound=deadline,
            message=(
                f"recovery deadline not exercised (contract names plan "
                f"{contract.fault_plan!r}, run used {run_plan!r})"
            ),
        )
    episodes = result.get("totals", {}).get("recoveries", [])
    dead = [e for e in episodes if e.get("outcome") == "dead"]
    slow = [
        e
        for e in episodes
        if e.get("outcome") == "readmitted" and e.get("seconds", 0.0) > deadline
    ]
    worst = max((e.get("seconds", 0.0) for e in episodes), default=0.0)
    if dead:
        message = (
            f"{len(dead)} shard(s) never recovered (declared dead) against a "
            f"{deadline:g} s recovery deadline"
        )
        ok = False
    elif slow:
        message = (
            f"slowest recovery took {worst:g} s, over the {deadline:g} s deadline"
        )
        ok = False
    elif not episodes:
        message = "no recovery episodes occurred (deadline vacuously met)"
        ok = True
    else:
        message = (
            f"all {len(episodes)} recovery episode(s) re-admitted within "
            f"{deadline:g} s (slowest {worst:g} s)"
        )
        ok = True
    return Verdict(
        tenant=contract.tenant,
        check="recovery",
        severity=contract.severity,
        ok=ok,
        measured=worst,
        bound=deadline,
        message=message,
    )


def evaluate_contracts(
    result: Mapping[str, Any], contracts: Sequence[SloContract]
) -> list[Verdict]:
    """Evaluate every contract against one serve-bench artifact.

    ``result`` is the artifact :func:`repro.serve.bench.run_bench`
    returns (its ``per_tenant`` section carries the per-tenant counters
    and latency summary).  A hard contract whose tenant produced no
    traffic is itself a breach: an objective nobody measured is not met.
    """
    per_tenant = result.get("per_tenant", {})
    verdicts: list[Verdict] = []
    for contract in contracts:
        record = per_tenant.get(contract.tenant)
        if record is None or not record.get("submitted"):
            verdicts.append(
                Verdict(
                    tenant=contract.tenant,
                    check="traffic",
                    severity=contract.severity,
                    ok=False,
                    measured=0.0,
                    bound=None,
                    message="tenant sent no traffic; its objectives are unattested",
                )
            )
            continue
        verdicts.extend(_latency_verdicts(contract, record))
        if contract.min_throughput_rps is not None:
            measured = float(record.get("throughput_rps", 0.0))
            ok = measured >= contract.min_throughput_rps
            verdicts.append(
                Verdict(
                    tenant=contract.tenant,
                    check="throughput",
                    severity=contract.severity,
                    ok=ok,
                    measured=measured,
                    bound=contract.min_throughput_rps,
                    message=(
                        f"throughput {measured:.0f} rps "
                        f"{'>=' if ok else '<'} floor "
                        f"{contract.min_throughput_rps:.0f} rps"
                    ),
                )
            )
        if contract.max_shed_rate is not None:
            measured = float(record.get("shed_rate", 0.0))
            ok = measured <= contract.max_shed_rate
            verdicts.append(
                Verdict(
                    tenant=contract.tenant,
                    check="shed_rate",
                    severity=contract.severity,
                    ok=ok,
                    measured=measured,
                    bound=contract.max_shed_rate,
                    message=(
                        f"shed rate {measured:.1%} "
                        f"{'<=' if ok else '>'} ceiling "
                        f"{contract.max_shed_rate:.1%}"
                    ),
                )
            )
        recovery = _recovery_verdict(contract, result)
        if recovery is not None:
            verdicts.append(recovery)
    return verdicts


def hard_breaches(verdicts: Sequence[Verdict]) -> list[Verdict]:
    """The verdicts that gate (hard severity, breached)."""
    return [verdict for verdict in verdicts if verdict.gating]


def verdicts_summary(verdicts: Sequence[Verdict]) -> dict[str, Any]:
    """The artifact section serve-bench embeds under ``result["slo"]``."""
    return {
        "verdicts": [verdict.to_dict() for verdict in verdicts],
        "hard_breaches": len(hard_breaches(verdicts)),
        "diagnostic_breaches": len(
            [v for v in verdicts if v.breached and not v.gating]
        ),
        "checks": len(verdicts),
    }


def render_verdicts(verdicts: Sequence[Verdict]) -> str:
    """Human-readable verdict table, hard breaches first."""
    if not verdicts:
        return "slo: no contracts evaluated"
    ordered = sorted(
        verdicts,
        key=lambda v: (not v.gating, not v.breached, v.tenant, v.check),
    )
    lines = []
    for verdict in ordered:
        flag = "BREACH" if verdict.breached else "ok"
        gate = " [gates]" if verdict.gating else ""
        lines.append(
            f"  {verdict.tenant:>12s} {verdict.check:<10s} "
            f"{verdict.severity:<10s} {flag}{gate}  {verdict.message}"
        )
        if verdict.note:
            lines.append(f"  {'':>12s} {'':<10s} {'':<10s} note: {verdict.note}")
    gating = len(hard_breaches(verdicts))
    header = (
        f"slo: {len(verdicts)} check(s), "
        + (f"{gating} hard breach(es)" if gating else "no hard breaches")
    )
    return "\n".join([header, *lines])
