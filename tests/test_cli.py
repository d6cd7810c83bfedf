"""Tests for the command-line interface."""

import argparse
import dataclasses
import json
import os

import pytest

from repro.api import AutoscaleSpec, BenchSpec, ServeSpec
from repro.cli import QUICK_KWARGS, build_parser, main
from repro.experiments import EXPERIMENTS, fig8
from repro.experiments.suite import run_experiment
from repro.scenarios import catalog
from repro.telemetry.schema import read_artifact, stamp, write_artifact

BASELINES_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "baselines")
CONTRACTS = os.path.join(BASELINES_DIR, "..", "contracts", "quick.json")


class TestCli:
    def test_list_names_every_experiment(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for exp_id in EXPERIMENTS:
            assert exp_id in out

    def test_quick_kwargs_cover_every_experiment(self):
        assert set(QUICK_KWARGS) == set(EXPERIMENTS)

    def test_run_quick_fig7(self, capsys):
        assert main(["run", "fig7", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "unaligned_GBps" in out
        assert "shape check: OK" in out

    def test_run_quick_sec3a(self, capsys):
        assert main(["run", "sec3a", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "paper_scaled_s" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "fig99"])

    def test_run_experiment_returns_violation_count(self, capsys):
        assert len(run_experiment("fig13", **QUICK_KWARGS["fig13"]).violations) == 0

    def test_csv_export(self, capsys, tmp_path):
        assert main(["run", "fig7", "--quick", "--csv", str(tmp_path)]) == 0
        csv_file = tmp_path / "fig7.csv"
        assert csv_file.exists()
        lines = csv_file.read_text().splitlines()
        assert lines[0] == "size_B,aligned_GBps,unaligned_GBps"
        assert len(lines) >= 3

    def test_every_experiment_has_a_table(self):
        for module in EXPERIMENTS.values():
            assert hasattr(module, "table"), module.__name__


class TestTelemetryFlags:
    @pytest.fixture()
    def tiny_fig8(self, monkeypatch):
        # Shrink the quick fig8 sweep further: these tests exercise the
        # export plumbing, not the figure itself.
        monkeypatch.setitem(
            QUICK_KWARGS, "fig8", {"n_keys_sweep": (120,), "worker_counts": (2,)}
        )

    def test_telemetry_export(self, capsys, tmp_path, tiny_fig8):
        assert main(["run", "fig8", "--quick", "--telemetry", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Cycle budget" in out
        assert "telemetry written to" in out
        for suffix in ("events.jsonl", "trace.json", "metrics.prom", "cycle_budget.txt"):
            assert (tmp_path / f"fig8.{suffix}").exists(), suffix

    def test_trace_export(self, capsys, tmp_path, tiny_fig8):
        assert main(["run", "fig8", "--quick", "--trace", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "trace written to" in out
        assert (tmp_path / "fig8.trace.json").exists()
        # --trace alone does not print the cycle-budget table.
        assert "Cycle budget" not in out

    def test_no_flags_no_artifacts(self, capsys, tmp_path, tiny_fig8):
        assert main(["run", "fig8", "--quick"]) == 0
        assert list(tmp_path.iterdir()) == []

    def test_shared_cells_run_once_per_invocation(
        self, capsys, tmp_path, monkeypatch, tiny_fig8
    ):
        # fig9 plots fig8's runs: one invocation executes each cell once
        # and writes its telemetry once, under fig8's name.
        monkeypatch.setitem(QUICK_KWARGS, "fig9", QUICK_KWARGS["fig8"])
        registry = {exp_id: EXPERIMENTS[exp_id] for exp_id in ("fig8", "fig9")}
        monkeypatch.setattr("repro.cli.EXPERIMENTS", registry)
        monkeypatch.setattr("repro.experiments.suite.EXPERIMENTS", registry)
        executed = []
        run_cell = fig8.run_cell

        def counted_run_cell(spec):
            executed.append(spec)
            return run_cell(spec)

        monkeypatch.setattr(fig8, "run_cell", counted_run_cell)
        argv = ["run", "all", "--quick", "--no-cache", "--telemetry", str(tmp_path)]
        assert main(argv) == 0
        specs = fig8.cells(**QUICK_KWARGS["fig8"])
        assert executed == specs
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
            f"fig8.{suffix}"
            for suffix in ("events.jsonl", "trace.json", "metrics.prom", "cycle_budget.txt")
        )
        assert "[cells shared with fig8" in capsys.readouterr().out


class TestRegressCommands:
    @pytest.fixture()
    def tiny_sec3a(self, monkeypatch):
        # The regression CLI is plumbing; keep the workload minimal.
        monkeypatch.setitem(
            QUICK_KWARGS, "sec3a", {"total_calls": 1_200, "g_pauses": 200}
        )

    def test_baseline_then_self_diff(self, capsys, tmp_path, tiny_sec3a):
        out_file = tmp_path / "base.json"
        assert (
            main(
                [
                    "baseline",
                    "--quick",
                    "--experiments",
                    "sec3a",
                    "--out",
                    str(out_file),
                    "--name",
                    "t",
                ]
            )
            == 0
        )
        assert out_file.exists()
        assert "baseline 't' written" in capsys.readouterr().out
        report_file = tmp_path / "diff.md"
        assert (
            main(["diff", str(out_file), "--report", str(report_file)]) == 0
        )
        out = capsys.readouterr().out
        assert "Verdict: PASS" in out
        assert "Verdict: PASS" in report_file.read_text()

    def test_diff_against_second_snapshot(self, capsys, tmp_path, tiny_sec3a):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for path in (a, b):
            assert (
                main(
                    [
                        "baseline",
                        "--quick",
                        "--experiments",
                        "sec3a",
                        "--out",
                        str(path),
                    ]
                )
                == 0
            )
        capsys.readouterr()
        assert main(["diff", str(a), "--against", str(b)]) == 0
        assert "Verdict: PASS" in capsys.readouterr().out

    def test_baseline_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["baseline", "--experiments", "nope"])

    def test_audit_live(self, capsys, tiny_sec3a):
        assert main(["run", "sec3a", "--quick", "--audit"]) == 0
        out = capsys.readouterr().out
        assert "all invariants hold" in out

    def test_audit_replay_from_export(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setitem(
            QUICK_KWARGS, "fig8", {"n_keys_sweep": (120,), "worker_counts": (2,)}
        )
        assert main(["run", "fig8", "--quick", "--telemetry", str(tmp_path)]) == 0
        capsys.readouterr()
        events = tmp_path / "fig8.events.jsonl"
        assert main(["audit", "--events", str(events)]) == 0
        assert "all invariants hold" in capsys.readouterr().out

    def test_audit_of_a_log_with_no_cells_fails(self, capsys, tmp_path):
        from repro.telemetry.exporters import write_events_jsonl

        events = tmp_path / "empty.events.jsonl"
        write_events_jsonl(str(events), [])
        assert main(["audit", "--events", str(events)]) == 1
        assert "nothing was observed" in capsys.readouterr().out

    def test_audit_without_target_errors(self):
        with pytest.raises(SystemExit):
            main(["audit"])


class TestServeObsFlags:
    QUICK = [
        "serve",
        "bench",
        "--shards",
        "2",
        "--seconds",
        "0.01",
        "--rate",
        "2000",
        "--backend",
        "intel",
    ]

    def test_slices_exceeding_shards_rejected(self):
        with pytest.raises(SystemExit, match="must not exceed shards"):
            main([*self.QUICK, "--slices", "4"])

    def test_nonpositive_slices_rejected(self):
        with pytest.raises(SystemExit, match="slices must be >= 1"):
            main([*self.QUICK, "--slices", "0"])

    def test_nonpositive_obs_interval_rejected(self):
        with pytest.raises(SystemExit, match="positive cycle count"):
            main([*self.QUICK, "--obs-interval", "0"])

    def test_obs_run_writes_no_window_stream(self, capsys, tmp_path):
        # The windows are the artifact's obs section, written once.
        out = tmp_path / "serve.json"
        assert main([*self.QUICK, "--obs", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "obs:" in text and "window(s)" in text
        assert "window stream" not in text
        assert [path.name for path in tmp_path.iterdir()] == ["serve.json"]
        assert read_artifact(str(out))["obs"]["records"]

    def test_live_falls_back_to_plain_lines_off_tty(self, capsys, tmp_path):
        # capsys swaps in a non-TTY stdout: the console must degrade to
        # one plain line per window, no ANSI panel.
        out = tmp_path / "serve.json"
        assert main([*self.QUICK, "--live", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "[obs] window 1 " in text
        assert "\x1b[" not in text

    def test_diff_dispatches_on_the_obs_artifact(self, capsys, tmp_path):
        # An obs run's artifact is its own baseline: the serve gate
        # checks its windows too.
        out = tmp_path / "serve.json"
        assert main([*self.QUICK, "--obs", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["diff", str(out)]) == 0
        assert "serve baseline gate: OK" in capsys.readouterr().out


class TestServeAudit:
    def test_audit_runs_on_one_closed_loop_slice(self, capsys, tmp_path):
        out = tmp_path / "serve.json"
        assert main([
            "serve", "bench", "--shards", "2", "--seconds", "0.01", "--audit",
            "--clients", "4", "--requests-per-client", "50",
            "--policy", "round-robin", "--out", str(out),
        ]) == 0
        assert "audit: OK (1 kernel(s)" in capsys.readouterr().out
        assert json.loads(out.read_text())["audit"]["ok"] is True


class TestScenarioFlags:
    """Arg hygiene for the scenario/trace serve flags and subcommands."""

    QUICK = ["serve", "bench", "--shards", "2", "--seconds", "0.01"]
    #: A replay takes its run length from the trace: no --seconds.
    REPLAY = ["serve", "bench", "--shards", "2"]

    def test_unknown_scenario_lists_the_choices(self):
        with pytest.raises(SystemExit, match="steady-mixed"):
            main([*self.REPLAY, "--scenario", "not-a-scenario"])

    def test_scenario_and_trace_mutually_exclusive(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        trace.write_text("{}\n")
        with pytest.raises(SystemExit, match="mutually exclusive"):
            main([*self.REPLAY, "--scenario", "steady-mixed",
                  "--trace", str(trace)])

    def test_unstamped_trace_fails_cleanly(self, tmp_path):
        trace = tmp_path / "bad.jsonl"
        trace.write_text('{"name": "x"}\n')
        with pytest.raises(SystemExit, match="scenario-trace"):
            main([*self.REPLAY, "--trace", str(trace)])

    def test_corrupt_trace_fails_cleanly(self, tmp_path):
        trace = tmp_path / "garbage.jsonl"
        trace.write_text("not json\n")
        with pytest.raises(SystemExit, match="line 1 is not JSON"):
            main([*self.REPLAY, "--trace", str(trace)])

    def test_missing_trace_file_fails_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="no such file"):
            main([*self.REPLAY, "--trace", str(tmp_path / "absent.jsonl")])

    def test_tampered_trace_fails_cleanly(self, tmp_path):
        from repro.scenarios import ScenarioSpec, generate_trace, write_trace

        trace = generate_trace(
            ScenarioSpec(name="t", seed=1, duration_s=0.01, rate_rps=500.0)
        )
        path = tmp_path / "t.jsonl"
        write_trace(trace, str(path))
        lines = path.read_text().splitlines()
        lines.pop()  # drop an event: count check must fire
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SystemExit, match="declares"):
            main([*self.REPLAY, "--trace", str(path)])

    def test_trace_with_clients_rejected(self, tmp_path):
        from repro.scenarios import ScenarioSpec, generate_trace, write_trace

        path = tmp_path / "t.jsonl"
        write_trace(
            generate_trace(
                ScenarioSpec(name="t", seed=1, duration_s=0.01, rate_rps=500.0)
            ),
            str(path),
        )
        with pytest.raises(SystemExit, match="open-loop"):
            main([*self.REPLAY, "--trace", str(path), "--clients", "2"])

    @pytest.mark.parametrize(
        "argv, dropped",
        [
            (
                ["--scenario", "flash-crowd", "--rate", "9000", "--seconds", "0.3",
                 "--seed", "5", "--keydist", "zipf"],
                "trace replay takes its load from the trace; "
                "drop seconds, rate, keydist, seed",
            ),
            (
                ["--clients", "4", "--rate", "9000"],
                "the closed loop has no offered rate; drop rate",
            ),
        ],
    )
    def test_load_fields_the_load_cannot_use_rejected(self, argv, dropped):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "bench", "--shards", "4", "--budget", "16", *argv])
        assert str(excinfo.value) == dropped

    def test_unknown_app_rejected_with_choices(self):
        with pytest.raises(SystemExit, match="session"):
            main([*self.QUICK, "--apps", "kv:1,redis:2"])

    def test_duplicate_app_rejected(self):
        with pytest.raises(SystemExit, match="duplicate"):
            main([*self.QUICK, "--apps", "kv:1,kv:2"])

    def test_bad_app_weight_rejected(self):
        with pytest.raises(SystemExit, match="bad weight"):
            main([*self.QUICK, "--apps", "kv:heavy"])

    def test_apps_not_covering_trace_rejected(self, tmp_path):
        from repro.scenarios import ScenarioSpec, generate_trace, write_trace

        path = tmp_path / "t.jsonl"
        write_trace(
            generate_trace(
                ScenarioSpec(
                    name="t", seed=1, duration_s=0.01, rate_rps=500.0,
                    apps=(("kv", 1.0), ("session", 1.0)),
                )
            ),
            str(path),
        )
        with pytest.raises(SystemExit, match="installed app set"):
            main([*self.REPLAY, "--trace", str(path), "--apps", "kv:1"])


class TestScenarioCommands:
    def test_list_names_every_scenario(self, capsys):
        from repro.scenarios import SCENARIO_NAMES

        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIO_NAMES:
            assert name in out

    def test_gen_replay_and_gate_round_trip(self, capsys, tmp_path, monkeypatch):
        # gen writes a deterministic trace; a serve bench replaying it
        # writes its artifact, which is its own baseline: diff re-runs
        # its spec and passes.
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(catalog, "CHECKOUT", str(tmp_path))
        assert main(["scenarios", "gen", "hotkey-shift"]) == 0
        assert (tmp_path / "traces" / "hotkey-shift.trace.jsonl").exists()
        assert main(["scenarios", "gen", "hotkey-shift", "--check"]) == 0
        out = tmp_path / "bench.json"
        assert main([
            "serve", "bench", "--scenario", "hotkey-shift",
            "--shards", "2", "--budget", "16", "--out", str(out),
        ]) == 0
        capsys.readouterr()
        assert main(["diff", str(out)]) == 0
        assert "serve baseline gate: OK" in capsys.readouterr().out
        # The gate refuses a replay of another spec.
        assert main([
            "serve", "bench", "--scenario", "hotkey-shift", "--shards", "3", "--budget", "16",
            "--out", str(tmp_path / "other.json"), "--baseline", str(out),
        ]) == 1
        assert "serve.shards 3 vs baseline 2" in capsys.readouterr().out

    def test_gen_check_flags_drift(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(catalog, "CHECKOUT", str(tmp_path))
        assert main(["scenarios", "gen", "diurnal-kv"]) == 0
        path = tmp_path / "traces" / "diurnal-kv.trace.jsonl"
        lines = path.read_text().splitlines()
        lines.pop()
        path.write_text("\n".join(lines) + "\n")
        assert main(["scenarios", "gen", "diurnal-kv", "--check"]) == 1

    def test_replay_unknown_scenario_fails_cleanly(self):
        with pytest.raises(SystemExit, match="choices"):
            main(["serve", "bench", "--scenario", "nope", "--shards", "4", "--budget", "16"])

    def test_replay_missing_trace_fails_cleanly(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(catalog, "CHECKOUT", str(tmp_path))
        with pytest.raises(SystemExit, match="scenarios gen"):
            main(["serve", "bench", "--scenario", "flash-crowd", "--shards", "4", "--budget", "16"])

    def test_sweep_unknown_scenario_fails_cleanly(self):
        with pytest.raises(SystemExit, match="choices"):
            main(["autoscale", "sweep", "--scenario", "nope"])

    def test_committed_traces_resolve_outside_the_checkout(self, tmp_path, monkeypatch):
        # The committed traces belong to the checkout, not the working
        # directory: a scenario baseline gates, and a scenario replay
        # rewrites it byte for byte, from any directory.
        monkeypatch.chdir(tmp_path)
        baseline = os.path.abspath(os.path.join(BASELINES_DIR, "scenario-steady-mixed.json"))
        assert main(["diff", baseline]) == 0
        out = tmp_path / "steady-mixed.json"
        assert main([
            "serve", "bench", "--scenario", "steady-mixed", "--shards", "4",
            "--budget", "16", "--out", str(out),
        ]) == 0
        with open(baseline, "rb") as committed:
            assert out.read_bytes() == committed.read()


class TestBaselineFiles:
    """Every baseline file is gated or refused in one line, never a traceback."""

    SERVE = ["serve", "bench", "--shards", "1", "--seconds", "0.005"]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("not json\n", "not JSON"),
            ("[1, 2]\n", "found a JSON list"),
            ('{"totals": {}}\n', "found None"),
            ('{"meta": {"artifact": "obs-windows", "schema_version": 99}}', "schema_version 99"),
        ],
        ids=["non-json", "array", "unstamped", "future-schema"],
    )
    def test_diff_refuses_a_malformed_file(self, tmp_path, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(SystemExit, match=message) as excinfo:
            main(["diff", str(path)])
        refusal = str(excinfo.value)
        assert str(path) in refusal and "\n" not in refusal

    def test_diff_refuses_a_missing_file(self, tmp_path):
        path = tmp_path / "missing.json"
        with pytest.raises(SystemExit, match="no such file") as excinfo:
            main(["diff", str(path)])
        assert str(path) in str(excinfo.value)

    def test_diff_points_bench_meta_at_its_own_gate(self):
        with pytest.raises(SystemExit, match="no repro diff gate.*bench_meta"):
            main(["diff", os.path.join(BASELINES_DIR, "meta.json")])

    def test_diff_gates_the_committed_serve_baseline(self, capsys):
        assert main(["diff", os.path.join(BASELINES_DIR, "serve-quick.json")]) == 0
        assert "serve baseline gate: OK" in capsys.readouterr().out

    @pytest.mark.parametrize("retired", ["scenario-bench", "obs-windows"])
    def test_diff_refuses_a_retired_baseline_format(self, tmp_path, retired):
        path = write_artifact({"meta": stamp(retired)}, str(tmp_path / "old.json"))
        with pytest.raises(SystemExit) as excinfo:
            main(["diff", path])
        refusal = str(excinfo.value)
        assert path in refusal and "\n" not in refusal
        assert f"{retired!r} artifacts have no repro diff gate" in refusal
        assert "'run-snapshot', 'serve-bench', 'autoscale-sweep'" in refusal

    @pytest.mark.parametrize("retired", ["scenario-bench", "obs-windows"])
    @pytest.mark.parametrize("command", ["serve", "replay", "sweep", "evidence"])
    def test_baseline_flag_refuses_a_retired_format_before_the_run(
        self, tmp_path, monkeypatch, command, retired
    ):
        monkeypatch.chdir(os.path.join(BASELINES_DIR, ".."))
        path = write_artifact({"meta": stamp(retired)}, str(tmp_path / "old.json"))
        out = str(tmp_path / "out.json")
        argv, accepted = {
            "serve": ([*self.SERVE, "--out", out], "serve-bench"),
            "replay": (["serve", "bench", "--scenario", "steady-mixed", "--shards", "4",
                        "--budget", "16", "--out", out], "serve-bench"),
            "sweep": (["autoscale", "sweep", "--out", out], "autoscale-sweep"),
            "evidence": ([*self.SERVE, "--out", out, "--evidence", str(tmp_path / "pack")],
                         "serve-bench"),
        }[command]
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--baseline", path])
        refusal = str(excinfo.value)
        assert refusal == (
            f"--baseline: {path}: expected {accepted!r} stamp, found {retired!r}"
        )
        assert not os.path.exists(out) and not (tmp_path / "pack").exists()

    def test_baseline_flag_refuses_a_run_of_another_spec(self, capsys, tmp_path):
        base = str(tmp_path / "base.json")
        assert main([*self.SERVE, "--out", base]) == 0
        capsys.readouterr()
        other = [*self.SERVE, "--shards", "2", "--backend", "intel",
                 "--out", str(tmp_path / "other.json")]
        assert main([*other, "--baseline", base]) == 1
        text = capsys.readouterr().out
        (line,) = [line for line in text.splitlines() if "spec mismatch" in line]
        assert "serve.backend 'intel' vs baseline 'zc'" in line
        assert "serve.shards 2 vs baseline 1" in line

    def test_baseline_flag_refuses_a_non_json_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json\n")
        out = str(tmp_path / "serve.json")
        with pytest.raises(SystemExit, match="--baseline: .*not JSON"):
            main([*self.SERVE, "--out", out, "--baseline", str(bad)])


class TestMalformedInputs:
    """Every malformed input file or bad value is refused in one line that
    names it — never a traceback, and before anything runs."""

    SERVE = ["serve", "bench", "--shards", "1", "--seconds", "0.005"]

    @pytest.fixture()
    def files(self, tmp_path):
        """Malformed inputs by name (``missing`` is never created)."""
        paths = {
            name: tmp_path / name
            for name in ("missing", "not-json", "unstamped", "bad-line-2", "bad-plan")
        }
        paths["not-json"].write_text("not json\n")
        paths["unstamped"].write_text(
            '{"t_cycles": 0, "cell": "x", "event": "zc.fallback"}\n'
        )
        paths["bad-line-2"].write_text(
            json.dumps(stamp("events-jsonl")) + "\nnot json\n"
        )
        paths["bad-plan"].write_text('{"name": "x", "bogus": 1}\n')
        return {name: str(path) for name, path in paths.items()}

    def refusal(self, argv, capsys):
        """Run the CLI; return its refusal line (it must fail)."""
        try:
            code = main(argv)
        except SystemExit as exc:
            code, text = exc.code, str(exc.code)
        else:
            text = capsys.readouterr().out.strip()
        assert code not in (0, None)
        assert text and "\n" not in text
        return text

    @pytest.mark.parametrize("name", ["missing", "unstamped", "bad-line-2"])
    def test_audit_events(self, files, capsys, name):
        text = self.refusal(["audit", "--events", files[name]], capsys)
        assert files[name] in text
        if name == "bad-line-2":
            assert "line 2" in text

    @pytest.mark.parametrize("name", ["missing", "not-json"])
    @pytest.mark.parametrize("command", ["serve", "evidence"])
    def test_contracts(self, files, tmp_path, capsys, command, name):
        argv = [*self.SERVE, "--out", str(tmp_path / "b.json")]
        if command == "evidence":
            argv += ["--evidence", str(tmp_path / "pack")]
        text = self.refusal([*argv, "--contracts", files[name]], capsys)
        assert files[name] in text
        assert not (tmp_path / "b.json").exists() and not (tmp_path / "pack").exists()

    def test_trace_directory(self, tmp_path, capsys):
        argv = ["serve", "bench", "--shards", "1", "--out", str(tmp_path / "b.json"),
                "--trace", str(tmp_path)]
        assert str(tmp_path) in self.refusal(argv, capsys)

    def test_evidence_manifest_not_json(self, tmp_path, capsys):
        (tmp_path / "manifest.json").write_text("not json\n")
        text = self.refusal(["evidence", "verify", str(tmp_path)], capsys)
        assert str(tmp_path / "manifest.json") in text

    def test_evidence_missing_pack(self, files, capsys):
        assert files["missing"] in self.refusal(
            ["evidence", "verify", files["missing"]], capsys
        )

    @pytest.mark.parametrize("plan", ["unknown-name", "not-json", "bad-plan"])
    @pytest.mark.parametrize(
        "command", ["serve", "evidence", "baseline", "diff", "run", "faults-show"]
    )
    def test_fault_plan(self, files, tmp_path, capsys, command, plan):
        value = "nope" if plan == "unknown-name" else files[plan]
        out = str(tmp_path / "out")
        argv = {
            "serve": [*self.SERVE, "--out", out, "--plan", value],
            "evidence": [*self.SERVE, "--out", f"{out}.json", "--evidence", out,
                         "--plan", value],
            "baseline": ["baseline", "--quick", "--experiments", "fig13",
                         "--out", out, "--plan", value],
            "diff": ["diff", os.path.join(BASELINES_DIR, "quick.json"), "--plan", value],
            "run": ["run", "fig13", "--quick", "--plan", value],
            "faults-show": ["faults", "show", value],
        }[command]
        assert value in self.refusal(argv, capsys)
        assert not os.path.exists(out) and not os.path.exists(f"{out}.json")


def _subparser(*path):
    """The parser of subcommand ``path`` (e.g. ``serve bench``)."""
    parser = build_parser()
    for name in path:
        subparsers = next(
            action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        parser = subparsers.choices[name]
    return parser


class TestParserSurface:
    """The spec flags are generated from the spec fields; the surface the
    hand-written parsers had is pinned here, action by action:
    option strings → (dest, default, type, choices, action class)."""

    PINNED = {
        "serve bench": {
            ("--admission",): ("admission", "shed", None, ("shed", "block"), "_StoreAction"),
            ("--apps",): ("apps", None, None, None, "_StoreAction"),
            ("--audit",): ("audit", False, None, None, "_StoreTrueAction"),
            ("--autoscale",): ("autoscale", False, None, None, "_StoreTrueAction"),
            ("--backend",): ("backend", "zc", None, ("zc", "intel", "baseline"), "_StoreAction"),
            ("--baseline",): ("baseline", None, None, None, "_StoreAction"),
            ("--budget",): ("budget", None, int, None, "_StoreAction"),
            ("--clients",): ("clients", None, int, None, "_StoreAction"),
            ("--contracts",): ("contracts", None, None, None, "_StoreAction"),
            ("--evidence",): ("evidence", None, None, None, "_StoreAction"),
            ("--fault-shard",): ("fault_shard", 0, int, None, "_StoreAction"),
            ("--jobs",): ("jobs", None, None, None, "_StoreAction"),
            ("--keydist",): ("keydist", "uniform", None, ("uniform", "zipf", "seq"), "_StoreAction"),
            ("--live",): ("live", False, None, None, "_StoreTrueAction"),
            ("--max-shards",): ("max_shards", 8, int, None, "_StoreAction"),
            ("--min-shards",): ("min_shards", 1, int, None, "_StoreAction"),
            ("--obs",): ("obs", False, None, None, "_StoreTrueAction"),
            ("--obs-html",): ("obs_html", None, None, None, "_StoreAction"),
            ("--obs-interval",): ("obs_interval", None, float, None, "_StoreAction"),
            ("--out",): ("out", "BENCH_serve.json", None, None, "_StoreAction"),
            ("--plan",): ("plan", None, None, None, "_StoreAction"),
            ("--policy",): ("policy", "hash", None, ("hash", "round-robin"), "_StoreAction"),
            ("--queue-capacity",): ("queue_capacity", 64, int, None, "_StoreAction"),
            ("--rate",): ("rate", 2000.0, float, None, "_StoreAction"),
            ("--requests-per-client",): ("requests_per_client", None, int, None, "_StoreAction"),
            ("--scenario",): ("scenario", None, None, None, "_StoreAction"),
            ("--seconds",): ("seconds", 2.0, float, None, "_StoreAction"),
            ("--seed",): ("seed", 0, int, None, "_StoreAction"),
            ("--servers-per-shard",): ("servers_per_shard", 2, int, None, "_StoreAction"),
            ("--shards",): ("shards", 2, int, None, "_StoreAction"),
            ("--slices",): ("slices", 1, int, None, "_StoreAction"),
            ("--spans",): ("spans", None, None, None, "_StoreAction"),
            ("--spec",): ("spec", None, None, None, "_StoreAction"),
            ("--tenants",): ("tenants", None, None, None, "_StoreAction"),
            ("--threshold",): ("threshold", 0.1, float, None, "_StoreAction"),
            ("--trace",): ("trace", None, None, None, "_StoreAction"),
            ("-h", "--help"): ("help", "==SUPPRESS==", None, None, "_HelpAction"),
        },
    }

    @pytest.mark.parametrize("command", sorted(PINNED))
    def test_surface_is_pinned(self, command):
        surface = {
            tuple(action.option_strings): (
                action.dest,
                action.default,
                action.type,
                tuple(action.choices) if action.choices is not None else None,
                type(action).__name__,
            )
            for action in _subparser(*command.split())._actions
        }
        assert surface == self.PINNED[command]

    def test_every_flagged_field_has_exactly_one_flag(self):
        options = [
            option
            for action in _subparser("serve", "bench")._actions
            for option in action.option_strings
        ]
        flagged = [
            spec_field.name
            for cls in (ServeSpec, BenchSpec, AutoscaleSpec)
            for spec_field in dataclasses.fields(cls)
            if "help" in spec_field.metadata
        ]
        assert len(flagged) == 26
        for name in flagged:
            assert options.count("--" + name.replace("_", "-")) == 1, name


class TestSpecFlags:
    """A spec flag that cannot take effect, or a spec file that would be
    half-read, is refused in one line before anything runs."""

    SERVE = ["serve", "bench", "--shards", "1", "--seconds", "0.005"]

    @pytest.fixture()
    def spec_file(self, tmp_path):
        path = str(tmp_path / "spec.json")
        write_artifact(BenchSpec(serve=ServeSpec(shards=1), seconds=0.005).to_json(), path)
        return path

    def refused(self, argv, message, tmp_path):
        out = tmp_path / "out.json"
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--out", str(out)])
        assert str(excinfo.value) == message
        assert not out.exists()

    def test_spec_flags_beside_spec_are_refused(self, spec_file, tmp_path):
        argv = ["serve", "bench", "--spec", spec_file, "--shards", "4", "--seed", "9"]
        self.refused(
            argv, "--spec carries the full bench config; drop --shards, --seed", tmp_path
        )

    def test_obs_stays_allowed_beside_spec(self, spec_file, tmp_path, capsys):
        out = tmp_path / "out.json"
        assert main(["serve", "bench", "--spec", spec_file, "--obs", "--out", str(out)]) == 0
        assert read_artifact(str(out))["spec"]["obs"] is True

    def test_autoscale_flags_need_the_switch(self, tmp_path):
        argv = [*self.SERVE, "--min-shards", "3", "--max-shards", "2"]
        self.refused(argv, "--min-shards, --max-shards only apply with --autoscale", tmp_path)

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda doc: doc.update(seedd=9), "BenchSpec: unknown field(s) seedd"),
            (lambda doc: doc["serve"].update(budgett=3), "ServeSpec: unknown field(s) budgett"),
            (lambda doc: doc.pop("keyspace"), "BenchSpec: missing field(s) keyspace"),
            (
                lambda doc: doc.update(rate=None),
                "the open loop needs a rate (None only with clients or a trace)",
            ),
        ],
        ids=["unknown", "unknown-nested", "missing", "rate-less-open-loop"],
    )
    def test_spec_file_is_never_half_read(self, spec_file, tmp_path, change, message):
        doc = read_artifact(spec_file)
        change(doc)
        write_artifact(doc, spec_file)
        self.refused(["serve", "bench", "--spec", spec_file], f"--spec: {message}", tmp_path)

    @pytest.mark.parametrize("command", ["serve", "evidence"])
    def test_duplicate_tenants_are_refused(self, tmp_path, command):
        pack = tmp_path / "pack"
        argv = self.SERVE if command == "serve" else [*self.SERVE, "--evidence", str(pack)]
        self.refused(
            [*argv, "--tenants", "gold:1,gold:3"],
            "tenants names must be unique; duplicate gold",
            tmp_path,
        )
        assert not pack.exists()

    def test_contracts_run_reruns_from_its_embedded_spec(self, tmp_path, capsys):
        first, second, spec = (
            str(tmp_path / name) for name in ("first.json", "second.json", "spec.json")
        )
        argv = [*self.SERVE, "--tenants", "gold:3,bronze:1", "--contracts", CONTRACTS]
        code = main([*argv, "--out", first])
        write_artifact(read_artifact(first)["spec"], spec)
        assert main(["serve", "bench", "--spec", spec, "--out", second]) == code
        rerun = read_artifact(second)
        assert "slo" in rerun
        assert rerun == read_artifact(first)
