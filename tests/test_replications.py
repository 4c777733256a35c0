"""Tests for replicated runs and confidence intervals."""

import math

import pytest

from repro.core import units
from repro.exec import Executor
from repro.sim.config import quick_config
from repro.sim.replications import (
    MetricEstimate,
    compare_policies,
    estimate,
    run_replications,
    t_critical_95,
)


class TestTCritical:
    def test_known_values(self):
        assert t_critical_95(1) == pytest.approx(12.706)
        assert t_critical_95(4) == pytest.approx(2.776)
        assert t_critical_95(100) == pytest.approx(1.96)

    def test_monotone_decreasing(self):
        values = [t_critical_95(d) for d in (1, 2, 5, 10, 30, 1000)]
        assert values == sorted(values, reverse=True)

    def test_invalid_dof(self):
        assert math.isnan(t_critical_95(0))


class TestEstimate:
    def test_basic(self):
        e = estimate([10.0, 12.0, 8.0, 10.0])
        assert e.mean == pytest.approx(10.0)
        assert e.n == 4
        assert e.half_width > 0
        assert e.low < 10.0 < e.high

    def test_single_sample_has_nan_ci(self):
        e = estimate([5.0])
        assert e.mean == 5.0
        assert math.isnan(e.half_width)

    def test_empty(self):
        e = estimate([])
        assert e.n == 0
        assert math.isnan(e.mean)

    def test_nan_samples_dropped(self):
        e = estimate([1.0, float("nan"), 3.0])
        assert e.n == 2
        assert e.mean == pytest.approx(2.0)

    def test_identical_samples_zero_width(self):
        e = estimate([7.0] * 5)
        assert e.half_width == pytest.approx(0.0)

    def test_relative_half_width(self):
        e = MetricEstimate(mean=10.0, half_width=1.0, n=3)
        assert e.relative_half_width == pytest.approx(0.1)
        assert "±" in str(e)


class TestRunReplications:
    @pytest.fixture(scope="class")
    def replicated(self):
        config = quick_config(duration=3 * units.DAY, arrival_rate_per_hour=4.0)
        return run_replications(
            config,
            "out-of-order",
            n_replications=3,
            base_seed=50,
            executor=Executor(jobs=1),
        )

    def test_replication_count(self, replicated):
        assert replicated.n == 3

    def test_metrics_estimated(self, replicated):
        for name in ("mean_speedup", "mean_waiting", "node_utilization"):
            assert name in replicated.estimates
            assert replicated.estimates[name].n == 3

    def test_seeds_differ(self, replicated):
        arrived = [r.jobs_arrived for r in replicated.results]
        assert len(set(arrived)) > 1 or len(set(
            r.measured.mean_speedup for r in replicated.results
        )) > 1

    def test_overload_flags(self, replicated):
        assert not replicated.all_overloaded

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            run_replications(quick_config(), "farm", n_replications=0)


class TestComparePolicies:
    def test_matched_seed_comparison(self):
        config = quick_config(duration=2 * units.DAY, arrival_rate_per_hour=4.0)
        outcome = compare_policies(
            config,
            [("farm", {}), ("out-of-order", {})],
            n_replications=2,
            base_seed=9,
            executor=Executor(jobs=1),
        )
        assert set(outcome) == {"farm", "out-of-order"}
        # Matched seeds: each policy saw the same workloads; out-of-order
        # must dominate the farm on speedup in expectation.
        assert (
            outcome["out-of-order"].estimates["mean_speedup"].mean
            > outcome["farm"].estimates["mean_speedup"].mean
        )
