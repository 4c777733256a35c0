"""Tests for the experiment registry, harness and report rendering."""

import pytest

from repro.core.errors import ConfigurationError
from repro.exec import Executor
from repro.experiments import (
    Scale,
    all_experiments,
    available_experiments,
    get_experiment,
    render_markdown_report,
    run_experiment,
)
from repro.experiments.calibration import calibrate_delay_table, summarize_table
from repro.sim.config import quick_config


class TestRegistry:
    def test_all_figures_registered(self):
        ids = available_experiments()
        for exp_id in ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7"):
            assert exp_id in ids

    def test_in_text_claims_registered(self):
        ids = available_experiments()
        for exp_id in ("repl", "maxload", "farmq", "nodes"):
            assert exp_id in ids

    def test_ablations_registered(self):
        ids = available_experiments()
        for exp_id in (
            "ablate-chunk",
            "ablate-pipeline",
            "ablate-minsize",
            "ablate-fairness",
            "ablate-mixed",
        ):
            assert exp_id in ids

    def test_unknown_experiment_raises(self):
        with pytest.raises(ConfigurationError):
            get_experiment("fig99")

    def test_every_experiment_builds_specs(self):
        for experiment in all_experiments():
            specs = experiment.specs(Scale.SMOKE)
            assert specs, experiment.exp_id
            full = experiment.specs(Scale.FULL)
            assert len(full) >= len(specs)

    def test_specs_share_seed_within_experiment(self):
        for experiment in all_experiments():
            seeds = {spec.config.seed for spec in experiment.specs(Scale.SMOKE)}
            assert len(seeds) == 1, experiment.exp_id


class TestRunAndRender:
    @pytest.fixture(scope="class")
    def outcome(self):
        return run_experiment(
            "farmq", scale=Scale.SMOKE, executor=Executor(jobs=1)
        )

    def test_outcome_has_results(self, outcome):
        assert outcome.sweep.results
        assert outcome.wall_seconds > 0

    def test_rendered_output_mentions_model(self, outcome):
        assert "M/Er" in outcome.rendered

    def test_markdown_report(self, outcome):
        report = render_markdown_report([outcome], Scale.SMOKE)
        assert "## farmq" in report
        assert "Paper reference" in report
        assert "```" in report


class TestFig4Smoke:
    def test_histogram_rendered(self):
        outcome = run_experiment(
            "fig4", scale=Scale.SMOKE, executor=Executor(jobs=2)
        )
        assert "waiting-time distribution" in outcome.rendered


class TestCalibration:
    def test_calibrate_on_quick_config(self):
        config = quick_config(duration=2 * 86_400.0, seed=1)
        table = calibrate_delay_table(
            config,
            stripe_events=200,
            delays=(0.0, 6 * 3600.0),
            loads_per_hour=[
                config.max_theoretical_load_per_hour * f for f in (0.3, 0.6)
            ],
            executor=Executor(jobs=1),
        )
        assert len(table) == 2
        fractions = [f for f, _ in table]
        assert fractions == sorted(fractions)  # monotone
        assert all(0.0 <= f <= 1.0 for f in fractions)

    def test_summarize_table(self):
        text = summarize_table([(0.5, 0.0), (0.8, 3600.0)])
        assert "0.50" in text and "1h" in text
