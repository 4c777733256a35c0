"""Tests for the experiment registry, harness and report rendering."""

import dataclasses

import pytest

from repro.core.errors import ConfigurationError
from repro.exec import Executor
from repro.experiments import (
    Experiment,
    Scale,
    all_experiments,
    available_experiments,
    get_experiment,
    render_markdown_report,
    run_experiment,
)
from repro.experiments.calibration import calibrate_delay_table, summarize_table
from repro.sim.config import quick_config
from repro.sim.runner import SweepResult


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

    def test_exactly_the_claim_experiments_carry_a_verdict(self):
        # Every registered experiment is a claim experiment.
        with_verdict = {e.exp_id for e in all_experiments() if callable(e.verdict)}
        assert with_verdict == set(available_experiments()) == {
            "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
            "repl", "maxload", "farmq", "nodes",
            "ablate-chunk", "ablate-pipeline", "ablate-minsize",
            "ablate-fairness", "ablate-mixed", "ablate-tape-latency",
            "ablate-hotspot",
            "fairness", "ablate-network",
            "crossover", "degradation", "faults", "tiering",
        }

    def test_an_experiment_cannot_be_built_without_a_verdict(self):
        experiment = get_experiment("farmq")
        with pytest.raises(TypeError, match="verdict"):
            Experiment(
                exp_id="no-claim",
                title=experiment.title,
                paper_ref=experiment.paper_ref,
                build=experiment.build,
                render=experiment.render,
                expectation=experiment.expectation,
            )

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
        assert "*Verdict:* holds." in report
        assert "```" in report

    def test_verdict_holds(self, outcome):
        assert outcome.failed_claims == []
        assert outcome.ok
        assert outcome.verdict_lines() == ["holds"]


def _smoke_sweep(exp_id):
    return run_experiment(
        exp_id, scale=Scale.SMOKE, executor=Executor(jobs=2)
    ).sweep


def _verdict(exp_id, sweep):
    return get_experiment(exp_id).verdict(sweep, Scale.SMOKE)


def _swapped(sweep, pick_a, pick_b):
    """A copy of ``sweep`` with the results of the specs ``pick_a`` and
    ``pick_b`` select swapped, pairwise in spec order."""
    results = list(sweep.results)
    first = [i for i, spec in enumerate(sweep.specs) if pick_a(spec)]
    second = [i for i, spec in enumerate(sweep.specs) if pick_b(spec)]
    assert first and len(first) == len(second)
    for i, j in zip(first, second):
        results[i], results[j] = results[j], results[i]
    return SweepResult(list(sweep.specs), results)


def _altered(sweep, pick, change):
    """A copy of ``sweep`` whose results of the specs ``pick`` selects
    are replaced by ``change(result)``."""
    results = [
        change(result) if pick(spec) else result
        for spec, result in zip(sweep.specs, sweep.results)
    ]
    assert results != sweep.results
    return SweepResult(list(sweep.specs), results)


def _named(failed, claim):
    assert any(claim in line for line in failed), failed


def _policy(name):
    return lambda spec: spec.policy == name


def _label(name):
    return lambda spec: spec.label == name


class TestCrossoverVerdict:
    @pytest.fixture(scope="class")
    def sweep(self):
        return _smoke_sweep("crossover")

    def test_holds_on_smoke(self, sweep):
        assert _verdict("crossover", sweep) == []

    def test_central_message_bill_fails_the_claim(self, sweep):
        doctored = _swapped(sweep, _policy("decentral"), _policy("out-of-order"))
        _named(
            _verdict("crossover", doctored),
            "decentral moves fewer control messages per subjob than the best "
            "steady central policy at n=5:",
        )

    def test_overloaded_decentral_fails_the_claim(self, sweep):
        doctored = _swapped(sweep, _policy("decentral"), _policy("farm"))
        _named(_verdict("crossover", doctored), "decentral steady at n=10")


class TestDegradationVerdict:
    @pytest.fixture(scope="class")
    def sweep(self):
        return _smoke_sweep("degradation")

    @staticmethod
    def _loss(loss):
        return lambda spec: (spec.config.net.loss if spec.config.net else 0.0) == loss

    def test_holds_on_smoke(self, sweep):
        assert _verdict("degradation", sweep) == []

    def test_lossy_point_without_retransmits_fails_the_claim(self, sweep):
        doctored = _swapped(sweep, self._loss(0.0), self._loss(0.2))
        _named(
            _verdict("degradation", doctored),
            "out-of-order@n=6 at 20% loss retransmits: 0",
        )

    def test_dead_letters_fail_the_claim(self, sweep):
        def dead(result):
            sched = dataclasses.replace(result.sched, dead_letters=3)
            return dataclasses.replace(result, sched=sched)

        doctored = _altered(sweep, self._loss(0.05), dead)
        _named(
            _verdict("degradation", doctored),
            "decentral@n=6 at 5% loss has no dead letters: 3",
        )


class TestFaultsVerdict:
    @pytest.fixture(scope="class")
    def sweep(self):
        return _smoke_sweep("faults")

    def test_holds_on_smoke(self, sweep):
        assert _verdict("faults", sweep) == []

    def test_farm_losing_less_fails_the_claim(self, sweep):
        doctored = _swapped(sweep, _policy("farm"), _policy("out-of-order"))
        failed = _verdict("faults", doctored)
        _named(failed, "farm loses the most events at MTBF 6h:")
        _named(failed, "farm loses the most events at MTBF 1day:")

    def test_goodput_rising_as_mtbf_shrinks_fails_the_claim(self, sweep):
        doctored = _swapped(
            sweep, _label("delayed@mtbf=6h"), _label("delayed@mtbf=none")
        )
        failed = _verdict("faults", doctored)
        _named(failed, "delayed goodput does not rise as MTBF shrinks")
        _named(failed, "delayed speedup at MTBF 6h below its fault-free speedup")


class TestTieringVerdict:
    @pytest.fixture(scope="class")
    def sweep(self):
        return _smoke_sweep("tiering")

    def test_holds_on_smoke(self, sweep):
        assert _verdict("tiering", sweep) == []

    def test_placement_losing_to_none_fails_the_claim(self, sweep):
        doctored = _swapped(
            sweep, _label("depth2/none"), _label("depth2/root-only")
        )
        failed = _verdict("tiering", doctored)
        _named(failed, "root-only beats none on speedup at depth2, load 2.0/h")
        _named(failed, "root-only hits its tier caches at depth2, load 2.0/h: 0.00")

    def test_saturation_at_the_wrong_depth_fails_the_claim(self, sweep):
        doctored = _swapped(sweep, _label("depth2/none"), _label("depth3/none"))
        _named(_verdict("tiering", doctored), "no uplink saturates at depth2")

    def test_unsaturated_depth3_fails_the_claim(self, sweep):
        def unsaturated(result):
            topo = dataclasses.replace(result.topo, link_saturated_plans=0)
            return dataclasses.replace(result, topo=topo)

        doctored = _altered(sweep, _label("depth3/lru-rack"), unsaturated)
        _named(
            _verdict("tiering", doctored),
            "uplinks saturate under every placement at depth3",
        )


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
