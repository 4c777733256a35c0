"""Tests for experiment renderers and report assembly on canned sweeps."""

import pytest

from repro.core import units
from repro.exec import Executor
from repro.experiments import Scale, get_experiment
from repro.experiments.report import render_markdown_report, run_experiment
from repro.sim.config import quick_config
from repro.sim.runner import RunSpec, SweepResult, load_sweep, run_sweep


@pytest.fixture(scope="module")
def tiny_sweep():
    specs = load_sweep(
        quick_config(duration=2 * units.DAY, seed=2), "farm", [1.0, 2.0],
        label="farm",
    )
    return run_sweep(specs, executor=Executor(jobs=1))


class TestSeriesExtraction:
    def test_by_label_groups(self, tiny_sweep):
        groups = tiny_sweep.by_label()
        assert list(groups) == ["farm"]
        assert len(groups["farm"]) == 2

    def test_series_sorted_by_load(self, tiny_sweep):
        points = tiny_sweep.series("speedup")["farm"]
        loads = [load for load, _ in points]
        assert loads == sorted(loads)

    def test_all_metrics_accessible(self, tiny_sweep):
        for metric in (
            "speedup",
            "waiting",
            "waiting_excl_delay",
            "processing",
            "sojourn",
            "utilization",
            "redundancy",
        ):
            series = tiny_sweep.series(metric)
            assert "farm" in series

    def test_include_overloaded_flag(self):
        specs = load_sweep(
            quick_config(duration=4 * units.DAY, seed=2), "farm", [40.0],
            label="farm",
        )
        sweep = run_sweep(specs, executor=Executor(jobs=1))
        assert sweep.results[0].overload.overloaded
        assert sweep.series("speedup")["farm"] == []
        assert len(sweep.series("speedup", include_overloaded=True)["farm"]) == 1


class TestRendererSmoke:
    """Every registered experiment's renderer must produce non-empty text
    (run at smoke scale for the cheap ones; expensive renderers are
    covered by the benchmark suite)."""

    @pytest.mark.parametrize("exp_id", ["farmq", "ablate-minsize"])
    def test_render(self, exp_id):
        outcome = run_experiment(
            exp_id, scale=Scale.SMOKE, executor=Executor(jobs=1)
        )
        assert len(outcome.rendered) > 100

    def test_expectations_all_set(self):
        from repro.experiments import all_experiments

        for experiment in all_experiments():
            assert experiment.expectation, experiment.exp_id
            assert experiment.paper_ref, experiment.exp_id
            assert experiment.title, experiment.exp_id


class TestMarkdownReport:
    def test_multiple_outcomes(self):
        outcomes = [
            run_experiment(exp_id, scale=Scale.SMOKE, executor=Executor(jobs=1))
            for exp_id in ("farmq", "ablate-minsize")
        ]
        report = render_markdown_report(outcomes, Scale.SMOKE)
        assert report.count("## ") == 2
        assert "smoke" in report
        assert "Expectation" in report
