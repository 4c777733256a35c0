"""Cross-policy integration tests: the paper's qualitative orderings.

These are the load-bearing reproduction checks at test scale (the full-
scale versions are the experiments' verdicts): each test asserts a
relationship the paper's figures exhibit, on a shared reduced workload.
"""

import pytest

from repro.core import units
from repro.core.rng import RandomStreams
from repro.sim.config import paper_config
from repro.sim.simulator import run_simulation
from repro.workload.generator import WorkloadGenerator


@pytest.fixture(scope="module")
def shared():
    """One moderate-load paper-scale trace + per-policy results cache."""
    config = paper_config(
        arrival_rate_per_hour=1.0,
        duration=12 * units.DAY,
        warmup_fraction=0.25,
        seed=77,
    )
    generator = WorkloadGenerator(
        dataspace=config.dataspace(),
        arrival_rate_per_hour=config.arrival_rate_per_hour,
        job_size=config.job_size_distribution(),
        start_distribution=config.start_distribution(),
        streams=RandomStreams(config.seed),
    )
    trace = generator.generate_list(config.duration)
    cache = {}

    def run(policy, **params):
        key = (policy, tuple(sorted(params.items())))
        if key not in cache:
            cache[key] = run_simulation(config, policy, trace=trace, **params)
        return cache[key]

    return config, run


class TestFig2Ordering:
    """Farm < splitting < cache-oriented splitting (speedup)."""

    def test_farm_speedup_is_one(self, shared):
        _, run = shared
        assert run("farm").measured.mean_speedup == pytest.approx(1.0, abs=0.05)

    def test_splitting_beats_farm(self, shared):
        _, run = shared
        assert (
            run("splitting").measured.mean_speedup
            > 1.5 * run("farm").measured.mean_speedup
        )

    def test_cache_splitting_beats_splitting(self, shared):
        _, run = shared
        assert (
            run("cache-splitting").measured.mean_speedup
            > run("splitting").measured.mean_speedup
        )

    def test_cache_splitting_cuts_waiting(self, shared):
        _, run = shared
        assert (
            run("cache-splitting").measured.mean_waiting
            < run("farm").measured.mean_waiting
        )


class TestFig3Ordering:
    """Out-of-order beats cache-oriented splitting on both axes."""

    def test_speedup(self, shared):
        _, run = shared
        assert (
            run("out-of-order").measured.mean_speedup
            > run("cache-splitting").measured.mean_speedup
        )

    def test_waiting(self, shared):
        # At this comfortable load both policies start jobs near-instantly;
        # out-of-order must not be worse beyond noise (the decisive gap
        # appears at high load, checked by the fig3 experiment's verdict).
        _, run = shared
        assert (
            run("out-of-order").measured.mean_waiting
            <= run("cache-splitting").measured.mean_waiting + 10 * units.MINUTE
        )


class TestFig5Behaviour:
    """Delayed scheduling trades speedup/wait for tape efficiency."""

    def test_delayed_speedup_below_out_of_order(self, shared):
        _, run = shared
        delayed = run("delayed", period=2 * units.DAY, stripe_events=5000)
        assert (
            delayed.measured.mean_speedup
            < run("out-of-order").measured.mean_speedup
        )

    def test_delayed_reads_less_tape(self, shared):
        _, run = shared
        delayed = run("delayed", period=2 * units.DAY, stripe_events=5000)
        assert delayed.tertiary_redundancy < run("out-of-order").tertiary_redundancy

    def test_delayed_waiting_dominated_by_period(self, shared):
        _, run = shared
        delayed = run("delayed", period=2 * units.DAY, stripe_events=5000)
        # Mean total waiting ~ half the period or more.
        assert delayed.measured.mean_waiting > 0.3 * 2 * units.DAY


class TestFig7Behaviour:
    """Adaptive delay ~ out-of-order at low load."""

    def test_zero_delay_at_low_load(self, shared):
        _, run = shared
        adaptive = run("adaptive", stripe_events=200)
        assert adaptive.policy_stats["current_delay"] == 0.0

    def test_waiting_overhead_is_small(self, shared):
        _, run = shared
        adaptive = run("adaptive", stripe_events=200)
        # §6: "a little overhead (up to 1h)".
        assert adaptive.measured.mean_waiting < units.HOUR

    def test_speedup_comparable_to_out_of_order(self, shared):
        _, run = shared
        adaptive = run("adaptive", stripe_events=200)
        ooo = run("out-of-order")
        assert adaptive.measured.mean_speedup > 0.6 * ooo.measured.mean_speedup


class TestCacheEffect:
    def test_bigger_cache_higher_speedup(self):
        results = {}
        for cache_gb in (50, 200):
            config = paper_config(
                arrival_rate_per_hour=1.0,
                duration=10 * units.DAY,
                cache_bytes=cache_gb * units.GB,
                seed=78,
            )
            results[cache_gb] = run_simulation(config, "cache-splitting")
        assert (
            results[200].measured.mean_speedup
            > results[50].measured.mean_speedup
        )


class TestReplicationClaim:
    def test_replication_changes_little(self, shared):
        _, run = shared
        base = run("replication", replication_enabled=False)
        repl = run("replication", replication_enabled=True)
        assert repl.measured.mean_speedup == pytest.approx(
            base.measured.mean_speedup, rel=0.2
        )
