"""Tests for the experiment runner and markdown report generator."""

import pytest

from repro.cli import QUICK_KWARGS
from repro.experiments import EXPERIMENTS
from repro.experiments.suite import (
    ExperimentOutcome,
    _markdown_table,
    render_markdown,
    run_experiment,
)
from repro.parallel import run_cells
from repro.telemetry import TelemetrySession


class TestRunSuite:
    @pytest.mark.parametrize("exp_id", list(EXPERIMENTS))
    def test_every_experiment_exposes_the_cell_surface(self, exp_id):
        # run_experiment drives every experiment through cells()/assemble();
        # the runner executes each cell on the module its exp_id names.
        module = EXPERIMENTS[exp_id]
        for name in ("cells", "assemble", "table", "report", "check_shape"):
            assert callable(getattr(module, name, None)), f"{exp_id} lacks {name}()"
        for spec in module.cells():
            runner_module = EXPERIMENTS[spec.exp_id]
            assert callable(getattr(runner_module, "run_cell", None)), (
                f"{spec.label()} names {spec.exp_id}, which lacks run_cell()"
            )

    @pytest.mark.parametrize("exp_id", list(EXPERIMENTS))
    def test_every_experiment_is_observable(self, exp_id):
        # Every cell builds its machine through Runtime.create or the
        # serve cluster, so an active session captures it.
        first = EXPERIMENTS[exp_id].cells(**QUICK_KWARGS[exp_id])[:1]
        with TelemetrySession() as session:
            run_cells(first)
        assert session.captures, f"{exp_id}'s first cell ran unobserved"
        for capture in session.captures:
            capture.assert_balanced()

    def test_serve_runs_through_the_suite(self):
        outcome = run_experiment("serve", **QUICK_KWARGS["serve"])
        assert outcome.ok, outcome.violations
        assert len(outcome.cell_seconds) == len(outcome.rows) == 2

    def test_subset_with_overrides(self):
        overrides = {
            "fig7": {"sizes": (512, 32_768), "ops": 40},
            "sec5d": {"record_sizes": (4096,), "records": 30},
        }
        outcomes = [
            run_experiment(exp_id, **params) for exp_id, params in overrides.items()
        ]
        assert [o.exp_id for o in outcomes] == ["fig7", "sec5d"]
        assert all(o.ok for o in outcomes)
        assert all(o.rows for o in outcomes)


class TestRenderMarkdown:
    def make_outcome(self, ok=True):
        return ExperimentOutcome(
            exp_id="fig7",
            headers=["x", "y"],
            rows=[[1, 2.34567], ["a", "b"]],
            violations=[] if ok else ["expected something"],
            wall_seconds=1.5,
        )

    def test_markdown_structure(self):
        text = render_markdown([self.make_outcome()])
        assert text.startswith("# Reproduction report")
        assert "1/1 experiments match" in text
        assert "## fig7" in text
        assert "Shape check: **OK**" in text
        assert "| x | y |" in text
        assert "2.346" in text  # 4 significant digits

    def test_violations_listed(self):
        text = render_markdown([self.make_outcome(ok=False)])
        assert "0/1 experiments match" in text
        assert "VIOLATION: expected something" in text

    def test_markdown_table_shapes(self):
        table = _markdown_table(["a"], [[1], [2]])
        lines = table.splitlines()
        assert lines[0] == "| a |"
        assert lines[1] == "|---|"
        assert len(lines) == 4


class TestCliReport:
    def test_report_command_writes_file(self, tmp_path, capsys, monkeypatch):
        from repro import cli

        # Shrink to two fast experiments for the test.
        monkeypatch.setattr(
            cli,
            "QUICK_KWARGS",
            {"fig7": {"sizes": (512, 32_768), "ops": 40}},
        )
        from repro import experiments

        monkeypatch.setattr(
            cli, "EXPERIMENTS", {"fig7": experiments.EXPERIMENTS["fig7"]}
        )
        monkeypatch.setattr(
            "repro.experiments.suite.EXPERIMENTS",
            {"fig7": experiments.EXPERIMENTS["fig7"]},
        )
        out = tmp_path / "report.md"
        assert cli.main(["run", "all", "--quick", "--report", str(out)]) == 0
        assert out.exists()
        assert "# Reproduction report" in out.read_text()
