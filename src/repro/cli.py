"""Command-line interface: regenerate any paper figure from a shell.

Usage::

    python -m repro list
    python -m repro run fig8            # full benchmark-scale run
    python -m repro run fig8 --quick    # scaled-down smoke run
    python -m repro run all --quick

``repro run`` is the one way to run an experiment.  Each run prints the
series the paper's figure plots and the result of the shape check; the
exit code is non-zero if any shape expectation is violated.  ``--csv
DIR`` additionally writes each figure's data table as ``<experiment>.csv``
for external plotting, and ``--report FILE`` writes every experiment's
table and verdict as one markdown report.  In one invocation, an
experiment whose cells equal an earlier one's (fig9 = fig8, fig12 =
fig11) reuses its rows instead of running them again.

Observability (see ``docs/observability.md``):

- ``--telemetry DIR`` captures the full telemetry suite per experiment —
  JSONL event log, Chrome trace, Prometheus-style metrics and a
  cycle-budget table (also printed after the report);
- ``--trace DIR`` writes just the Chrome trace (scheduler lanes + ocalls);
- ``--audit`` attaches the live paper-invariant checkers to every cell;
  their violations drive the exit code.

Performance (see ``docs/performance.md``):

- ``--jobs N`` fans independent cells over N worker processes
  (``auto`` = host CPU count) with bit-identical results; ``--audit``
  and ``--plan`` keep cells in-process;
- ``--no-cache`` / ``--cache-dir DIR`` control the content-addressed
  result cache (default ``.repro_cache/``).

Regression sentinel (see the "Regression workflow" section of
``docs/observability.md``):

- ``repro baseline`` snapshots a run (cycle-ledger categories, metrics,
  shape verdicts) into a schema-stamped JSON file;
- ``repro diff BASELINE`` re-runs what the baseline recorded (a run
  snapshot's experiments, or the spec a serve-family baseline embeds),
  or reads a second file with ``--against``, and fails on confirmed
  regressions;
- ``repro audit --events FILE`` replays an exported ``*.events.jsonl``
  through the paper-invariant checkers.

Fault injection (see ``docs/faults.md``):

- ``repro faults list`` / ``repro faults show PLAN`` inspect the named
  fault plans (and ``show`` pretty-prints any plan JSON file);
- ``repro run EXPERIMENT --plan PLAN`` runs experiments under a fault
  plan: the shape check turns informational, the fault events are
  counted, and files are named ``<experiment>-<plan>.*``;
- ``repro baseline --plan PLAN`` captures a faulty-run baseline, and
  ``repro diff`` re-runs under the baseline's recorded plan, gating on
  the ``fault`` cycle category (the fault_overhead bound).

Spans, SLOs and evidence packs (see the "Spans, SLOs, and evidence
packs" section of ``docs/observability.md``):

- ``repro serve bench --tenants gold:3,bronze:1`` tags the load with a
  weighted tenant mix (weighted-fair shedding, per-tenant stats);
  ``--contracts FILE`` evaluates per-tenant SLO contracts and exits 1 on
  hard breaches; ``--spans FILE`` exports per-request span records;
  ``--evidence PATH`` runs it under live audit and packs the artifact,
  tenant-lane trace, span samples, contracts and gate with a SHA-256
  manifest (a directory, or a tarball when PATH ends in ``.tar.gz``);
- ``repro evidence verify PACK`` re-hashes a pack (directory or
  tarball) against its manifest, refusing schema mismatches.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import sys
import tempfile
import time
from typing import Any, Sequence

from repro.analysis.report import to_csv
from repro.experiments import EXPERIMENTS

#: Reduced parameter sets for --quick runs (seconds instead of minutes).
QUICK_KWARGS: dict[str, dict[str, Any]] = {
    "sec3a": {"total_calls": 4_000},
    "fig2": {"total_calls": 4_000, "workers": (1, 3, 5)},
    "fig3": {"total_calls": 3_000, "workers": (1, 5), "g_sweep": (0, 500)},
    "fig7": {"ops": 100},
    "fig8": {"n_keys_sweep": (600,), "worker_counts": (2, 4)},
    "fig9": {"n_keys_sweep": (600,), "worker_counts": (2, 4)},
    "fig10": {"chunks_per_file": 96, "files_per_thread": 4},
    "fig11": {"worker_counts": (2,)},
    "fig12": {"worker_counts": (2,)},
    "fig13": {"ops": 100},
    "sec5d": {"record_sizes": (4_096, 16_384), "records": 60},
    "serve": {"shard_counts": (1, 2), "seconds": 0.05},
}


def _print_check(label: str, violations: Sequence[str], ok_note: str) -> int:
    """Print one check's verdict — ``label: OK (note)`` or its violations
    one per line — and return the violation count."""
    if violations:
        print(f"{label}: {len(violations)} violation(s)")
        for violation in violations:
            print(f"  - {violation}")
    else:
        print(f"{label}: OK ({ok_note})")
    return len(violations)


def _export_telemetry(session: Any, directory: str, name: str) -> None:
    """Write a session's telemetry artifacts and print the cycle budget."""
    paths = session.export(directory, name)
    print(f"\n{session.render_cycle_budget()}")
    print(f"[telemetry written to {', '.join(sorted(paths.values()))}]")


def _print_auditors(auditors: list[Any]) -> int:
    """Print finished auditors and the summary line; returns the failure
    count: the violations, or 1 when no cell was observed (an audit that
    checked nothing must not pass)."""
    if not auditors:
        print("\naudit: 0 cell(s), nothing was observed")
        return 1
    violations = 0
    for auditor in auditors:
        print(auditor.render())
        violations += len(auditor.violations)
    print(
        f"\naudit: {len(auditors)} cell(s), "
        + (f"{violations} violation(s)" if violations else "all invariants hold")
    )
    return violations


def _print_serve_audit(result: dict[str, Any]) -> int:
    """Print a serve artifact's ``audit`` section; returns 1 on violations."""
    audit = result.get("audit")
    if audit is None:
        return 0
    violations = [v for entry in audit["cells"] for v in entry["violations"]]
    note = f"{len(audit['cells'])} kernel(s), all invariants hold"
    return 1 if _print_check("audit", violations, note) else 0


def _print_serve_headline(result: dict[str, Any]) -> None:
    """Print the headline of a ``serve-bench`` artifact from its sections:
    the run, totals and latency, then one block per optional section
    present (budget, autoscale, fleet, faults, the per-tenant and per-app
    breakdowns, slices, obs windows)."""
    params, totals = result["params"], result["totals"]
    latency = totals["latency_us"]
    print(
        f"serve bench: {params['shards']} shard(s), backend {params['backend']}"
        + (f", plan '{params['plan']}'" if params.get("plan") else "")
        + (
            f", scenario '{params['scenario']}' ({params['trace_events']} arrival(s))"
            if params.get("scenario")
            else ""
        )
    )
    print(
        f"  throughput {totals['throughput_rps']:.0f} rps over "
        f"{totals['elapsed_s'] * 1e3:.2f} ms simulated "
        f"({totals['completed']} completed, {totals['shed']} shed, "
        f"{totals['failed']} failed)"
    )
    print(
        f"  latency p50 {latency['p50']:.1f} us, p99 {latency['p99']:.1f} us, "
        f"max {latency['max']:.1f} us"
    )
    budget = result["budget"]
    if budget is not None:
        print(
            f"  worker budget: cap {budget['cap']}, in use {budget['in_use']}, "
            f"{budget['clipped']} grant(s) clipped"
        )
    scale = result.get("autoscale")
    if scale is not None:
        print(
            f"  autoscale: {scale['windows']} window(s), "
            f"{scale['spawns']} spawn(s), {scale['retires']} retire(s), "
            f"{scale['forecast_shed']} forecast-shed, "
            f"final {scale['final_shards']} shard(s) @ cap {scale['final_cap']}"
        )
    fleet = result.get("fleet")
    if fleet is not None and fleet.get("cycles_per_request") is not None:
        print(
            f"  fleet: {fleet['provisioned_cycles']:,.0f} provisioned "
            f"cycle(s), {fleet['cycles_per_request']:,.0f} per completed "
            f"request"
        )
    if totals["quarantines"] or totals["dead"]:
        print(
            f"  faults: {totals['quarantines']} quarantine(s), "
            f"{totals['readmissions']} readmission(s), "
            f"{totals['rerouted']} rerouted, dead shards {totals['dead'] or 'none'}"
        )
    for section, kind in (("per_tenant", "tenant"), ("per_app", "app")):
        for name, record in result.get(section, {}).items():
            print(
                f"  {kind} {name or '<anon>'}: {record['completed']} completed, "
                f"{record['shed']} shed ({record['shed_rate']:.1%}), "
                f"p99 {record['latency_us']['p99']:.1f} us"
            )
    for entry in result.get("slices", []):
        print(
            f"  slice {entry['slice']}: shards {entry['shard_ids']}, "
            f"{entry['completed']} completed, "
            f"{entry['skipped_arrivals']} arrival(s) owned elsewhere"
        )
    obs = result.get("obs")
    if obs is not None:
        from repro.obs.sampler import TOTAL_LANE

        spilled = sum(obs["spilled"].get(TOTAL_LANE, {}).values())
        print(
            f"  obs: {obs['windows']} window(s) x {len(obs['lanes'])} lane(s), "
            f"{len(obs['records'])} record(s), "
            f"{len(obs['anomalies'])} anomaly(ies)"
            + (f", {spilled} event(s) past the horizon" if spilled else "")
        )
        for anomaly in obs["anomalies"][:8]:
            print(
                f"    ! window {anomaly['window']} {anomaly['lane']}."
                f"{anomaly['metric']}: {anomaly['kind']} "
                f"(value {anomaly['value']:.3g}, z {anomaly['z']:.1f})"
            )
        if len(obs["anomalies"]) > 8:
            print(f"    ... and {len(obs['anomalies']) - 8} more")


def _print_verdicts(result: dict[str, Any]) -> int:
    """Print a contract-checked run's SLO verdicts; returns its hard breaches."""
    from repro.slo import Verdict, render_verdicts

    verdicts = [
        Verdict(**{k: v for k, v in entry.items() if k != "diff_severity"})
        for entry in result["slo"]["verdicts"]
    ]
    print("\n" + render_verdicts(verdicts))
    return result["slo"]["hard_breaches"]


def _make_cache(args: argparse.Namespace) -> Any | None:
    """Build the result cache the flags ask for (None with --no-cache)."""
    if args.no_cache:
        return None
    from repro.parallel import DEFAULT_CACHE_DIR, ResultCache

    return ResultCache(args.cache_dir or DEFAULT_CACHE_DIR)


def _parse_experiments(value: str) -> list[str] | None:
    """``--experiments all`` (None = every experiment) or a comma list."""
    if value == "all":
        return None
    ids = [item.strip() for item in value.split(",") if item.strip()]
    unknown = [exp_id for exp_id in ids if exp_id not in EXPERIMENTS]
    if unknown:
        raise SystemExit(f"unknown experiment(s): {', '.join(unknown)}")
    return ids


def _resolve_plan(name_or_path: str | None) -> Any | None:
    """A plan value → FaultPlan (registry name or JSON file), or None.

    An unknown name and a plan file that does not parse exit with one
    line naming the value, before anything is built.
    """
    if name_or_path is None:
        return None
    from repro.faults import get_plan

    try:
        return get_plan(name_or_path)
    except KeyError as exc:  # an unknown name (the message lists the known ones)
        raise SystemExit(str(exc.args[0]))
    except (OSError, TypeError, ValueError) as exc:
        raise SystemExit(f"fault plan file {name_or_path}: not a valid plan ({exc})")


def _cmd_baseline(args: argparse.Namespace) -> int:
    """Capture a run snapshot and write it to ``--out``."""
    from repro.regress import capture_run
    from repro.telemetry.schema import write_artifact

    fault_plan = _resolve_plan(args.plan)
    snapshot = capture_run(
        experiment_ids=_parse_experiments(args.experiments),
        overrides=QUICK_KWARGS if args.quick else {},
        quick=args.quick,
        jobs=args.jobs,
        repeats=args.repeats,
        name=args.name,
        fault_plan=fault_plan,
    )
    path = write_artifact(snapshot, args.out)
    cells = sum(
        len(record["cells"]) for record in snapshot["experiments"].values()
    )
    plan_note = f", fault plan '{fault_plan.name}'" if fault_plan is not None else ""
    print(
        f"baseline '{snapshot['name']}' written to {path} "
        f"({len(snapshot['experiments'])} experiment(s), {cells} cell(s), "
        f"{args.repeats} repeat(s){plan_note})"
    )
    return 0


def _read_baseline(path: str | None, artifact: str) -> dict[str, Any] | None:
    """The ``--baseline`` file, read before the run: only a baseline of
    the ``artifact`` kind the command writes can gate it.  Any other file
    is refused in one line."""
    if path is None:
        return None
    from repro.telemetry.schema import SchemaMismatch, read_artifact

    try:
        return read_artifact(path, (artifact,))
    except SchemaMismatch as exc:
        raise SystemExit(f"--baseline: {exc}")


def _gate_baseline(
    result: dict[str, Any], baseline: dict[str, Any], path: str, threshold: float
) -> list[str]:
    """The ``--baseline`` flag: gate a fresh run and print the verdict."""
    from repro.regress.baselines import gate

    violations = gate(result, baseline, threshold)
    _print_check("baseline gate", violations, f"within {threshold:.0%} of {path}")
    return violations


def _cmd_diff(args: argparse.Namespace) -> int:
    """Gate a baseline against a re-run of what it recorded.

    Run snapshots get the bootstrap cycle-ledger diff; every serve-family
    baseline goes through :mod:`repro.regress.baselines`.  ``--against``
    compares a second file of the same kind instead of re-running.
    """
    from repro.regress import capture_run, diff_snapshots
    from repro.regress.baselines import BASELINES, gate
    from repro.regress.snapshot import SNAPSHOT_ARTIFACT
    from repro.telemetry.schema import artifact_of, read_artifact

    base = read_artifact(args.baseline)
    artifact = artifact_of(base)
    current = (
        read_artifact(args.against, (artifact,)) if args.against is not None else None
    )
    if artifact in BASELINES:
        kind = BASELINES[artifact]
        if current is None:
            print(f"[{kind.label} baseline: re-running {args.baseline}]")
            try:
                current = kind.rerun(base)
            except (OSError, ValueError) as exc:
                raise SystemExit(f"repro diff: {exc}")
        violations = gate(current, base, args.threshold)
        note = f"within {args.threshold:.0%} of {args.baseline}"
        return 1 if _print_check(f"{kind.label} baseline gate", violations, note) else 0
    if artifact != SNAPSHOT_ARTIFACT:
        gated = ", ".join(repr(kind) for kind in (SNAPSHOT_ARTIFACT, *BASELINES))
        raise SystemExit(
            f"repro diff: {args.baseline}: {artifact!r} artifacts have no "
            f"repro diff gate (it gates {gated}; BENCH_meta.json baselines "
            "are gated by benchmarks/bench_meta_simulator.py --baseline)"
        )

    if current is None:
        # Re-run exactly what the baseline recorded, at its own scale —
        # including its fault plan, unless --plan overrides it.
        quick = base.get("quick", True)
        if args.plan is not None:
            fault_plan = _resolve_plan(args.plan)
        elif base.get("fault_plan"):
            from repro.faults import FaultPlan

            fault_plan = FaultPlan.from_dict(base["fault_plan"])
        else:
            fault_plan = None
        current = capture_run(
            experiment_ids=base.get("experiment_ids"),
            overrides=QUICK_KWARGS if quick else {},
            quick=quick,
            jobs=args.jobs,
            repeats=args.repeats if args.repeats else base.get("repeats", 1),
            name="current",
            fault_plan=fault_plan,
        )
    report = diff_snapshots(
        base, current, threshold=args.threshold, min_cycles=args.min_cycles
    )
    text = report.render()
    print(text, end="")
    if args.report is not None:
        directory = os.path.dirname(args.report)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"[diff report written to {args.report}]")
    return report.exit_code()


def _cmd_autoscale(args: argparse.Namespace) -> int:
    """The elastic control plane's acceptance sweep (and its baseline)."""
    from repro.autoscale.bench import AUTOSCALE_ARTIFACT, run_autoscale_sweep
    from repro.telemetry.schema import write_artifact

    baseline = _read_baseline(args.baseline, AUTOSCALE_ARTIFACT)
    _committed_trace(args.scenario)
    started = time.monotonic()
    result = run_autoscale_sweep(args.scenario)
    elapsed = time.monotonic() - started
    print(f"autoscale sweep: scenario {result['scenario']!r}")
    for name, arm in sorted(result["arms"].items()):
        cpr = arm.get("cycles_per_request")
        p99 = arm.get("p99_us")
        extra = ""
        if arm.get("autoscale"):
            scale = arm["autoscale"]
            extra = (
                f" [{scale['spawns']} spawn(s), {scale['retires']} "
                f"retire(s), final {scale['final_shards']} shard(s)]"
            )
        print(
            f"  {name}: {arm['completed']} completed, "
            f"p99 {p99:.1f} us, "
            f"{cpr:,.0f} cycles/request{extra}"
            if cpr is not None and p99 is not None
            else f"  {name}: {arm['completed']} completed"
        )
    note = "autoscale beats every static arm"
    failures = 1 if _print_check("acceptance gate", result["gate"]["violations"], note) else 0
    if args.out is not None:
        write_artifact(result, args.out)
        print(f"[sweep artifact written to {args.out}]")
    if baseline is not None:
        failures += bool(_gate_baseline(result, baseline, args.baseline, args.threshold))
    print(f"[autoscale sweep: {elapsed:.1f}s wall]")
    return 1 if failures else 0


def _cmd_audit(args: argparse.Namespace) -> int:
    """Replay an exported event log through the invariant checkers."""
    from repro.regress import audit_jsonl

    return 1 if _print_auditors(list(audit_jsonl(args.events).values())) else 0


def _cmd_faults(args: argparse.Namespace) -> int:
    """List the named fault plans, or print one plan as JSON."""
    if args.faults_cmd == "show":
        print(_resolve_plan(args.plan).to_json())
        return 0
    from repro.faults import NAMED_PLANS

    for name, plan in NAMED_PLANS.items():
        kinds: dict[str, int] = {}
        for spec in plan.faults:
            kinds[spec.kind] = kinds.get(spec.kind, 0) + 1
        summary = ", ".join(f"{n}x {kind}" for kind, n in sorted(kinds.items()))
        print(f"{name:14s} seed={plan.seed:<7d} {summary}")
    return 0


def _committed_trace(name: str) -> str:
    """The committed trace file of catalog scenario ``name``.

    An unknown name or a trace never generated exits with one line.
    """
    from repro.scenarios import get_scenario, trace_path

    try:
        get_scenario(name)
    except ValueError as exc:
        raise SystemExit(str(exc))
    path = trace_path(name)
    if not os.path.exists(path):
        raise SystemExit(
            f"no committed trace for {name!r} at {path}; generate it with "
            f"'repro scenarios gen {name}'"
        )
    return path


def _resolve_trace(spec: Any) -> Any:
    """The trace a ``BenchSpec`` replays, loaded (None for synthetic load).

    The scenario and trace fields are user input: an unknown scenario
    exits in one line, and a missing, malformed or tampered trace file
    is a ``SchemaMismatch`` that :func:`main` prints in one line.
    """
    if not spec.replays_trace():
        return None
    from repro.scenarios import load_trace

    return load_trace(
        spec.trace if spec.scenario is None else _committed_trace(spec.scenario)
    )


def _replay_live_console(console: Any, obs: dict[str, Any]) -> None:
    """Feed a finished window stream through the live console window by
    window — the end-of-run fallback for sliced runs, where the windows
    closed inside child processes."""
    by_window: dict[int, list[dict[str, Any]]] = {}
    for record in obs["records"]:
        by_window.setdefault(record["window"], []).append(record)
    anomalies_by_window: dict[int, list[dict[str, Any]]] = {}
    for anomaly in obs["anomalies"]:
        anomalies_by_window.setdefault(anomaly["window"], []).append(anomaly)
    for index in sorted(by_window):
        console.on_window(
            index, by_window[index], anomalies_by_window.get(index, [])
        )


def _cmd_scenarios(args: argparse.Namespace) -> int:
    """The scenario library: list the catalog and gen its traces (a
    replay is ``serve bench --scenario NAME``)."""
    from repro.scenarios import (
        CATALOG,
        SCENARIO_NAMES,
        generate_trace,
        get_scenario,
        load_trace,
        trace_path,
        write_trace,
    )
    from repro.telemetry.schema import SchemaMismatch

    if args.scenarios_cmd == "list":
        print(f"{'scenario':<14} {'arrival':<8} {'apps':<20} description")
        for spec in CATALOG:
            apps = ",".join(name for name, _ in spec.apps)
            print(f"{spec.name:<14} {spec.arrival:<8} {apps:<20} {spec.description}")
        return 0

    # gen
    names = list(SCENARIO_NAMES) if args.name == "all" else [args.name]
    if args.out is not None and len(names) > 1:
        raise SystemExit("--out needs a single scenario, not 'all'")
    drifted = 0
    for name in names:
        try:
            spec = get_scenario(name)
        except ValueError as exc:
            raise SystemExit(str(exc))
        trace = generate_trace(spec)
        path = args.out if args.out is not None else trace_path(name)
        if args.check:
            if not os.path.exists(path):
                print(f"{name}: MISSING ({path})")
                drifted += 1
                continue
            try:
                committed = load_trace(path)
            except SchemaMismatch as exc:
                print(f"{name}: INVALID ({exc})")
                drifted += 1
                continue
            if committed.digest != trace.digest:
                print(
                    f"{name}: DRIFT (committed {committed.digest[:12]}… "
                    f"vs regenerated {trace.digest[:12]}…)"
                )
                drifted += 1
            else:
                print(f"{name}: OK ({len(trace.events)} events)")
            continue
        write_trace(trace, path)
        print(
            f"{name}: {len(trace.events)} events over "
            f"{trace.duration_s * 1e3:.0f} ms -> {path}"
        )
    return 1 if drifted else 0


def _option(name: str) -> str:
    """The flag of spec field ``name``: ``queue_capacity`` → ``--queue-capacity``."""
    return "--" + name.replace("_", "-")


def _is_switch(base: Any) -> bool:
    """A ``bool`` field, or a nested spec, is set by a ``store_true`` switch."""
    return base is bool or dataclasses.is_dataclass(base)


def _add_spec_flags(parser: argparse.ArgumentParser) -> None:
    """One ``serve bench`` flag per :func:`repro.api.flag` field of
    ``BenchSpec`` and of the specs nested in it.

    Name, help, metavar, choices and default come from the field, the
    type from its type hint: ``int`` and ``float`` parse as such, a
    ``bool`` or a nested spec is a switch, anything else stays text.
    :func:`_spec_from_flags` folds the parsed flags back into a spec.
    """
    from repro.api import BenchSpec, flag_choices, spec_flags

    for spec_field, base in spec_flags(BenchSpec):
        meta = spec_field.metadata
        if _is_switch(base):
            parser.add_argument(
                _option(spec_field.name), action="store_true", help=meta["help"]
            )
            continue
        parser.add_argument(
            _option(spec_field.name),
            type=base if base in (int, float) else None,
            default=spec_field.default,
            choices=flag_choices(spec_field),
            metavar=meta["metavar"],
            help=meta["help"],
        )


def _add_gate_flags(
    parser: argparse.ArgumentParser,
    gates: str = "the run against a committed baseline (see baselines/README.md)",
) -> None:
    """The ``--baseline``/``--threshold`` pair of every gated command."""
    parser.add_argument(
        "--baseline", default=None, metavar="FILE", help=f"gate {gates}"
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.1,
        help="relative drift the baseline gate tolerates (default 0.1)",
    )


def _given_flags(cls: type, args: argparse.Namespace) -> list[str]:
    """The spec flags of ``cls`` (nested specs included) whose parsed
    values differ from their field defaults."""
    from repro.api import spec_flags

    return [
        _option(spec_field.name)
        for spec_field, base in spec_flags(cls)
        if getattr(args, spec_field.name)
        != (False if _is_switch(base) else spec_field.default)
    ]


def _fold(cls: type, args: argparse.Namespace) -> Any:
    """Spec class ``cls`` built from the parsed flags of its fields.

    A nested spec without a flag is always built; one with a switch is
    built when the switch is on, and its flags are refused when it is
    off.
    """
    from repro.api import base_type, parse_pairs, spec_fields

    kwargs: dict[str, Any] = {}
    for spec_field, hint in spec_fields(cls):
        base, name = base_type(hint), spec_field.name
        if "help" not in spec_field.metadata:
            if dataclasses.is_dataclass(base):
                kwargs[name] = _fold(base, args)
            continue
        value = getattr(args, name)
        if dataclasses.is_dataclass(base):
            orphans = ", ".join([] if value else _given_flags(base, args))
            if orphans:
                raise SystemExit(f"{orphans} only apply with {_option(name)}")
            value = _fold(base, args) if value else None
        elif isinstance(value, str) and base is not str:
            value = parse_pairs(value, _option(name))
        kwargs[name] = value
    return cls(**kwargs)


def _spec_from_flags(args: argparse.Namespace, **implied: bool) -> Any:
    """The spec flags (:func:`_add_spec_flags`) folded into one validated
    ``BenchSpec``, or the spec file ``--spec`` names.

    A flag counts as given when its value differs from its field's
    default.  A given flag that could not take effect is refused in one
    line naming it: any spec flag beside ``--spec``, and a nested spec's
    flags (``--min-shards``) without its switch (``--autoscale``).
    ``implied`` turns on fields that other flags imply (``obs`` for
    ``--live``); those are allowed beside ``--spec``.  Field checks are
    the spec constructors' :class:`repro.api.SpecError`, surfaced in one
    line; a bad fault plan is refused here too, before anything runs.
    """
    from repro.api import SPEC_ARTIFACT, BenchSpec, SpecError
    from repro.telemetry.schema import read_artifact

    spec_file = args.spec
    try:
        if spec_file is None:
            spec = _fold(BenchSpec, args)
        else:
            exempt = {_option(name) for name in implied}
            given = [f for f in _given_flags(BenchSpec, args) if f not in exempt]
            if given:
                raise SystemExit(
                    f"--spec carries the full bench config; drop {', '.join(given)}"
                )
            try:
                spec = BenchSpec.from_json(read_artifact(spec_file, (SPEC_ARTIFACT,)))
            except ValueError as exc:  # a SchemaMismatch or a SpecError
                raise SystemExit(f"--spec: {exc}")
        switched_on = {name: on for name, on in implied.items() if on}
        if switched_on:
            spec = spec.replace(**switched_on)
    except SpecError as exc:
        raise SystemExit(str(exc))
    _resolve_plan(spec.serve.plan)
    return spec


#: Span records an evidence pack's ``spans.jsonl`` carries: representative
#: samples, where ``--spans FILE`` writes every record.
EVIDENCE_SPAN_SAMPLES = 2_000


def _write_evidence(
    args: argparse.Namespace,
    spec: Any,
    result: dict[str, Any],
    spans: list,
    gate: list[str] | None,
) -> None:
    """Pack a finished run at ``--evidence``: a directory, or the tarball
    of one when the path ends in ``.tar.gz``.  ``gate`` is the baseline
    gate's violations (None without ``--baseline``)."""
    from repro.sim import server_machine
    from repro.slo import (
        SPANS_ARTIFACT, build_evidence_pack, pack_tarball, tenant_lane_trace_events,
    )
    from repro.telemetry.exporters import render_chrome_trace
    from repro.telemetry.schema import render_stream, stamp

    sample = spans[:EVIDENCE_SPAN_SAMPLES]
    if len(spans) > len(sample):
        print(
            f"[spans.jsonl carries the first {len(sample)} of {len(spans)} "
            "span record(s); --spans FILE writes them all]"
        )
    freq_hz = server_machine().freq_hz
    contents: dict[str, Any] = {
        "bench.json": result,
        "trace.json": render_chrome_trace(tenant_lane_trace_events(spans, freq_hz)),
        "spans.jsonl": render_stream(stamp(SPANS_ARTIFACT), sample),
    }
    if spec.contracts is not None:
        with open(spec.contracts, encoding="utf-8") as handle:
            contents["contracts.json"] = handle.read()
    if gate is not None:
        with open(args.baseline, encoding="utf-8") as handle:
            contents["baseline.json"] = handle.read()
        contents["gate.json"] = {
            "meta": stamp("baseline-gate"),
            "baseline": args.baseline,
            "threshold": args.threshold,
            "violations": gate,
        }
    if args.evidence.endswith(".tar.gz"):
        with tempfile.TemporaryDirectory(prefix="evidence-") as scratch:
            build_evidence_pack(scratch, contents)
            pack_tarball(scratch, args.evidence)
    else:
        build_evidence_pack(args.evidence, contents)
    print(f"[evidence pack: {len(contents) + 1} file(s) in {args.evidence}]")


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the sharded serving bench; optionally gate it against a
    baseline and pack it as an evidence pack."""
    from repro.api import SpecError
    from repro.serve.bench import run_bench
    from repro.telemetry.schema import stamp, write_artifact, write_stream

    spec = _spec_from_flags(
        args, obs=args.obs or args.live or args.obs_html is not None
    )
    baseline = _read_baseline(args.baseline, "serve-bench")
    # Early, user-friendly validation of the trace (unknown scenario
    # names, missing files); the loaded trace is reused below.
    trace = _resolve_trace(spec)
    # Slice-parallel runs (repro.serve.slices) simulate every slice in
    # its own process: in-process plumbing reaches one kernel only.
    sliced = spec.slices > 1
    for option, value in (("--spans", args.spans), ("--evidence", args.evidence)):
        if sliced and value is not None:
            raise SystemExit(
                f"{option} is unavailable with --slices "
                "(span records stay in the slice processes)"
            )
    console = None
    obs_on_window = None
    if args.live:
        from repro.obs import LiveConsole

        console = LiveConsole()
        if sliced:
            # Slice kernels run in child processes; the merged stream is
            # only available at the end, so replay it then.
            print(
                "[--live: windows close inside slice processes; "
                "rendering the merged stream after the run]"
            )
        else:
            obs_on_window = console.on_window
    collect = args.spans is not None or args.evidence is not None
    span_sink: list | None = [] if collect else None
    started = time.monotonic()
    try:
        result = run_bench(
            spec,
            telemetry=False,
            audit=args.audit or args.evidence is not None,
            jobs=args.jobs,
            span_sink=span_sink,
            obs_on_window=obs_on_window,
            trace=None if sliced else trace,
        )
    except SpecError as exc:
        raise SystemExit(str(exc))
    if console is not None and obs_on_window is None and "obs" in result:
        _replay_live_console(console, result["obs"])
    if console is not None:
        console.finish()
    elapsed = time.monotonic() - started
    _print_serve_headline(result)
    write_artifact(result, args.out)
    print(f"[serve artifact written to {args.out}]")
    if args.spans is not None:
        from repro.slo import SPANS_ARTIFACT

        count = write_stream(args.spans, stamp(SPANS_ARTIFACT), span_sink)
        print(f"[{count} span record(s) written to {args.spans}]")
    if args.obs_html is not None:
        from repro.obs import write_html_report

        write_html_report(result["obs"], args.obs_html)
        print(f"[obs dashboard written to {args.obs_html}]")
    print(f"[serve: {elapsed:.1f}s wall]")
    failures = _print_serve_audit(result)
    if "slo" in result and _print_verdicts(result):
        failures += 1
    gate = None
    if baseline is not None:
        gate = _gate_baseline(result, baseline, args.baseline, args.threshold)
        failures += bool(gate)
    if args.evidence is not None:
        _write_evidence(args, spec, result, span_sink, gate)
    return 1 if failures else 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Profile the simulator's host-side hot paths (``profile meta``)."""
    from repro.profiler.meta import export_sched_trace, profile_storm, render_profile
    from repro.telemetry.schema import write_artifact

    use_zc = args.backend == "zc"
    artifact = profile_storm(use_zc=use_zc, n_ocalls=args.ocalls, top=args.top)
    print(render_profile(artifact))
    if args.json is not None:
        write_artifact(artifact, args.json)
        print(f"[profile artifact written to {args.json}]")
    if args.trace is not None:
        count = export_sched_trace(args.trace, use_zc=use_zc, n_ocalls=args.ocalls)
        print(f"[{count} chrome trace event(s) written to {args.trace}]")
    return 0


def _cmd_evidence(args: argparse.Namespace) -> int:
    """Verify an evidence pack (``serve bench --evidence`` builds one)."""
    from repro.slo import verify_evidence_pack
    from repro.telemetry.schema import SchemaMismatch

    try:
        errors = verify_evidence_pack(args.pack)
    except SchemaMismatch as exc:
        print(f"evidence verify: refused — {exc}")
        return 1
    if errors:
        print(f"evidence verify: {len(errors)} problem(s) in {args.pack}")
        for error in errors:
            print(f"  - {error}")
        return 1
    print(f"evidence verify: OK ({args.pack} matches its manifest)")
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    """List the experiments."""
    for exp_id, module in EXPERIMENTS.items():
        first_line = (module.__doc__ or "").strip().splitlines()[0]
        print(f"{exp_id:8s} {first_line}")
    return 0


def _print_fault_counts(session: Any, plan: Any) -> None:
    """Print how often each fault event fired across a session's cells."""
    counts: dict[str, int] = {}
    for capture in session.captures:
        for name, count in capture.event_counts.items():
            if name.startswith("fault."):
                counts[name] = counts.get(name, 0) + count
    print(f"\nfault plan '{plan.name}' (seed {plan.seed}):")
    if counts:
        for name in sorted(counts):
            print(f"  {name:30s} {counts[name]}")
    else:
        print("  no fault events fired (all fault instants past the run's end?)")


def _run_one(
    exp_id: str, args: argparse.Namespace, plan: Any, cache: Any, earlier: list[Any]
) -> tuple[Any, int]:
    """Run, print, export and check one experiment under the flags;
    returns its outcome and its failure count (shape violations outside
    a fault plan, audit violations always)."""
    from repro.experiments.suite import run_experiment

    session = None
    auditors: list[Any] = []
    if args.telemetry or args.trace or args.audit or plan is not None:
        from repro.telemetry import TelemetrySession

        on_attach = None
        if args.audit:
            from repro.regress import attach_auditor

            on_attach = lambda capture: auditors.append(attach_auditor(capture))  # noqa: E731
        session = TelemetrySession(on_attach=on_attach)
    with contextlib.ExitStack() as scope:
        if session is not None:
            scope.enter_context(session)
        if plan is not None:
            from repro.faults import activate_plan

            scope.enter_context(activate_plan(plan))
        outcome = run_experiment(
            exp_id,
            jobs=args.jobs,
            cache=cache,
            earlier=earlier,
            **(QUICK_KWARGS.get(exp_id, {}) if args.quick else {}),
        )
    print(EXPERIMENTS[exp_id].report(outcome.result))
    name = exp_id if plan is None else f"{exp_id}-{plan.name}"
    if outcome.shared_with is not None:
        # Its cells ran (and were observed) once, as the earlier experiment's.
        files = "" if session is None else "; its files, fault counts and audit cover them"
        print(f"[cells shared with {outcome.shared_with}{files}]")
    elif session is not None:
        if plan is not None:
            _print_fault_counts(session, plan)
        if args.telemetry is not None:
            _export_telemetry(session, args.telemetry, name)
        if args.trace is not None:
            print(f"[trace written to {session.export_trace(args.trace, name)}]")
    if args.csv is not None:
        path = os.path.join(args.csv, f"{name}.csv")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(to_csv(outcome.headers, outcome.rows))
        print(f"[csv written to {path}]")
    print()
    failures = 0
    if plan is None:
        failures += _print_check("shape check", outcome.violations, "matches the paper")
    else:
        # Under injected faults the paper-shape envelopes may legitimately
        # move: report the shape check, but gate on the invariant audit only.
        _print_check(
            "shape check (informational under faults)",
            outcome.violations,
            "matches the paper even under faults",
        )
    if args.audit and outcome.shared_with is None:
        for auditor in auditors:
            auditor.finish()
        failures += _print_auditors(auditors)
    under = "" if plan is None else f" under '{plan.name}'"
    print(f"[{exp_id}{under}: {outcome.wall_seconds:.1f}s wall]")
    return outcome, failures


def _cmd_run(args: argparse.Namespace) -> int:
    """Run one experiment (or all); optionally write the markdown report."""
    plan = _resolve_plan(args.plan)
    if args.csv is not None:
        os.makedirs(args.csv, exist_ok=True)
    cache = _make_cache(args)
    targets = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    outcomes: list[Any] = []
    failures = 0
    for exp_id in targets:
        print(f"\n### {exp_id} " + "#" * 50)
        outcome, failed = _run_one(exp_id, args, plan, cache, outcomes)
        outcomes.append(outcome)
        failures += failed
    if args.report is not None:
        from repro.experiments.suite import render_markdown

        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(render_markdown(outcomes))
        print(f"report written to {args.report}")
        hits = sum(o.cache_hits for o in outcomes)
        misses = sum(o.cache_misses for o in outcomes)
        cache_note = "cache disabled" if cache is None else f"{hits} cached, {misses} run"
        print(f"[jobs {outcomes[0].jobs} · cells: {cache_note}]")
    return 1 if failures else 0


_COMMANDS = {
    "list": _cmd_list,
    "run": _cmd_run,
    "baseline": _cmd_baseline,
    "diff": _cmd_diff,
    "audit": _cmd_audit,
    "faults": _cmd_faults,
    "serve": _cmd_serve,
    "scenarios": _cmd_scenarios,
    "autoscale": _cmd_autoscale,
    "evidence": _cmd_evidence,
    "profile": _cmd_profile,
}


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser, every subcommand included."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce figures of 'SGX Switchless Calls Made Configless'",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "parallelism and caching (run subcommand):\n"
            "  --jobs N       fan independent experiment cells over N worker\n"
            "                 processes ('auto' = host CPU count).  Results are\n"
            "                 bit-identical to --jobs 1: cells own their kernels\n"
            "                 and are collected in deterministic cell order.\n"
            "  --no-cache     disable the content-addressed result cache; by\n"
            "                 default cells whose (code, parameters) were already\n"
            "                 computed are served from .repro_cache/.\n"
            "  --cache-dir D  keep the cache somewhere else.\n"
            "  Runs with --telemetry/--trace/--audit/--plan always execute every\n"
            "  cell, and --audit/--plan run every cell in-process: live checkers\n"
            "  and the active fault plan do not cross process boundaries.\n"
            "  See docs/performance.md for details."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    run_parser = sub.add_parser("run", help="run one experiment (or 'all')")
    run_parser.add_argument("experiment", choices=[*EXPERIMENTS, "all"])
    run_parser.add_argument(
        "--quick", action="store_true", help="scaled-down parameters"
    )
    run_parser.add_argument(
        "--csv", metavar="DIR", help="also write <experiment>.csv into DIR"
    )
    run_parser.add_argument(
        "--telemetry",
        metavar="DIR",
        help="capture telemetry (events/trace/metrics/cycle budget) into DIR",
    )
    run_parser.add_argument(
        "--trace", metavar="DIR", help="write a Chrome trace per experiment into DIR"
    )
    run_parser.add_argument(
        "--plan",
        default=None,
        metavar="PLAN",
        help=(
            "run under a fault plan (name or JSON file): the shape check turns "
            "informational, fault events are counted, files are named "
            "<experiment>-<plan>.*"
        ),
    )
    run_parser.add_argument(
        "--audit",
        action="store_true",
        help="attach live invariant checkers to every cell; violations drive the exit code",
    )
    run_parser.add_argument(
        "--report",
        default=None,
        metavar="FILE",
        help="also write every experiment's table and verdict as markdown",
    )
    run_parser.add_argument(
        "--jobs",
        default="1",
        metavar="N",
        help=(
            "run cells over N worker processes ('auto' = CPU count; default 1); "
            "--audit and --plan keep cells in-process"
        ),
    )
    run_parser.add_argument(
        "--no-cache",
        action="store_true",
        help="always execute cells, even when a cached result exists",
    )
    run_parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="result-cache location (default .repro_cache)",
    )

    baseline_parser = sub.add_parser(
        "baseline", help="snapshot a run for later regression diffs"
    )
    baseline_parser.add_argument(
        "--out", default="baselines/quick.json", help="snapshot output file"
    )
    baseline_parser.add_argument(
        "--quick", action="store_true", help="scaled-down parameters"
    )
    baseline_parser.add_argument(
        "--experiments",
        default="all",
        metavar="IDS",
        help="comma-separated experiment ids (default all)",
    )
    baseline_parser.add_argument(
        "--repeats", type=int, default=1, help="runs per experiment (bootstrap samples)"
    )
    baseline_parser.add_argument(
        "--jobs", default="1", metavar="N", help="worker processes per run"
    )
    baseline_parser.add_argument("--name", default="baseline", help="snapshot name")
    baseline_parser.add_argument(
        "--plan",
        default=None,
        metavar="PLAN",
        help="capture the run under a fault plan (name or JSON file)",
    )

    diff_parser = sub.add_parser(
        "diff", help="compare a run against a baseline snapshot"
    )
    diff_parser.add_argument("baseline", help="baseline snapshot file")
    diff_parser.add_argument(
        "--against",
        default=None,
        metavar="SNAPSHOT",
        help="second snapshot to compare (default: re-run the baseline's experiments)",
    )
    diff_parser.add_argument(
        "--threshold",
        type=float,
        default=0.05,
        help="relative delta a gated quantity may move (default 0.05)",
    )
    diff_parser.add_argument(
        "--min-cycles",
        type=float,
        default=1_000.0,
        help="ignore cycle categories smaller than this on both sides",
    )
    diff_parser.add_argument(
        "--repeats", type=int, default=0, help="re-run repeats (default: baseline's)"
    )
    diff_parser.add_argument(
        "--jobs", default="1", metavar="N", help="worker processes for the re-run"
    )
    diff_parser.add_argument(
        "--report", default=None, metavar="FILE", help="also write the markdown report"
    )
    diff_parser.add_argument(
        "--plan",
        default=None,
        metavar="PLAN",
        help="fault plan for the re-run (default: the baseline's recorded plan)",
    )

    audit_parser = sub.add_parser(
        "audit", help="replay an exported event log through the invariant checkers"
    )
    audit_parser.add_argument(
        "--events", required=True, metavar="FILE", help="an exported *.events.jsonl"
    )

    faults_parser = sub.add_parser("faults", help="inspect the named fault plans")
    faults_sub = faults_parser.add_subparsers(dest="faults_cmd", required=True)
    faults_sub.add_parser("list", help="list the named fault plans")
    faults_show = faults_sub.add_parser("show", help="print a plan as JSON")
    faults_show.add_argument("plan", help="plan name or JSON file")
    serve_parser = sub.add_parser(
        "serve", help="sharded multi-enclave serving layer"
    )
    serve_sub = serve_parser.add_subparsers(dest="serve_cmd", required=True)
    serve_bench = serve_sub.add_parser(
        "bench", help="run the serving bench and write BENCH_serve.json"
    )
    _add_spec_flags(serve_bench)
    _add_gate_flags(serve_bench)
    serve_bench.add_argument(
        "--out",
        default="BENCH_serve.json",
        metavar="FILE",
        help="artifact output path (default BENCH_serve.json)",
    )
    serve_bench.add_argument(
        "--spans",
        default=None,
        metavar="FILE",
        help="write per-request span records as stamped JSONL",
    )
    serve_bench.add_argument(
        "--jobs",
        default=None,
        metavar="N",
        help="slice worker processes ('auto' = CPU count; default auto)",
    )
    serve_bench.add_argument(
        "--audit",
        action="store_true",
        help=(
            "attach live invariant checkers to the bench kernel (every "
            "slice kernel with --slices); violations drive the exit code"
        ),
    )
    serve_bench.add_argument(
        "--evidence",
        default=None,
        metavar="PATH",
        help=(
            "after the run and its gate, write an evidence pack (implies "
            "--audit): a directory, or a tarball when PATH ends in .tar.gz"
        ),
    )
    serve_bench.add_argument(
        "--obs-html",
        default=None,
        metavar="FILE",
        help="also write a self-contained HTML sparkline dashboard (implies --obs)",
    )
    serve_bench.add_argument(
        "--live",
        action="store_true",
        help=(
            "render a live per-shard console as windows close (implies "
            "--obs; plain lines when stdout is not a TTY)"
        ),
    )
    serve_bench.add_argument(
        "--spec",
        default=None,
        metavar="FILE",
        help=(
            "load the full bench config from a serve-spec JSON file "
            "(BenchSpec.to_json; replaces the topology/load flags)"
        ),
    )

    scenarios_parser = sub.add_parser(
        "scenarios", help="trace-driven scenario library (list/gen)"
    )
    scenarios_sub = scenarios_parser.add_subparsers(
        dest="scenarios_cmd", required=True
    )
    scenarios_sub.add_parser("list", help="list the catalog scenarios")
    scen_gen = scenarios_sub.add_parser(
        "gen", help="deterministically (re)generate a scenario's trace file"
    )
    scen_gen.add_argument("name", help="catalog scenario name, or 'all'")
    scen_gen.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="trace output path (default: the checkout's traces/<name>.trace.jsonl)",
    )
    scen_gen.add_argument(
        "--check",
        action="store_true",
        help=(
            "verify the committed trace byte-matches a regeneration "
            "instead of writing (exit 1 on drift)"
        ),
    )

    autoscale_parser = sub.add_parser(
        "autoscale", help="elastic control-plane acceptance sweep"
    )
    autoscale_sub = autoscale_parser.add_subparsers(
        dest="autoscale_cmd", required=True
    )
    autoscale_sweep = autoscale_sub.add_parser(
        "sweep",
        help="run autoscale vs the static grid on a committed trace and gate",
    )
    autoscale_sweep.add_argument(
        "--scenario",
        default="diurnal-kv",
        help="catalog scenario to sweep (default diurnal-kv)",
    )
    autoscale_sweep.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="write the full sweep artifact as JSON",
    )
    _add_gate_flags(autoscale_sweep, "the sweep against a committed sweep baseline")

    evidence_parser = sub.add_parser(
        "evidence",
        help="verify an evidence pack (serve bench --evidence builds one)",
    )
    evidence_sub = evidence_parser.add_subparsers(dest="evidence_cmd", required=True)
    evidence_verify = evidence_sub.add_parser(
        "verify", help="re-hash a pack (directory or tarball) against its manifest"
    )
    evidence_verify.add_argument("pack", help="pack directory or .tar.gz")

    profile_parser = sub.add_parser(
        "profile", help="profile the simulator's own host-side hot paths"
    )
    profile_sub = profile_parser.add_subparsers(dest="profile_cmd", required=True)
    profile_meta = profile_sub.add_parser(
        "meta",
        help="cProfile the meta-bench ocall storm: hot-function table "
        "+ optional Chrome trace of the simulated schedule",
    )
    profile_meta.add_argument(
        "--backend",
        choices=("zc", "regular"),
        default="zc",
        help="storm call path to profile (default zc = switchless)",
    )
    profile_meta.add_argument(
        "--ocalls", type=int, default=3_000, help="storm size (default 3000)"
    )
    profile_meta.add_argument(
        "--top", type=int, default=20, help="hot-table rows (default 20)"
    )
    profile_meta.add_argument(
        "--json",
        default=None,
        metavar="FILE",
        help="write the profile artifact (hot table + counters) as JSON",
    )
    profile_meta.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="write a chrome://tracing JSON of the simulated schedule",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    from repro.telemetry.schema import SchemaMismatch

    try:
        return _COMMANDS[args.command](args)
    except SchemaMismatch as exc:
        # Every input file is read through repro.telemetry.schema, so a
        # malformed one is refused here, in one line naming it.
        raise SystemExit(f"repro {args.command}: {exc}")


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
