"""White-box tests of the delayed policy's splitting internals."""

import pytest

from repro.core import units
from repro.data.intervals import Interval
from repro.sched.base import create_policy
from repro.sched.delayed import DelayedPolicy, compute_stripe_points
from repro.sim.config import FaultConfig, quick_config
from repro.sim.simulator import Simulation

from .policy_helpers import build_sim, micro_config, trace


def bound_policy(period=units.HOUR, stripe=500):
    sim = build_sim(
        "delayed",
        trace((10.0, 0, 1000)),
        micro_config(),
        period=period,
        stripe_events=stripe,
    )
    return sim, sim.policy


class TestCutWithMinSize:
    def test_plain_cut(self):
        _, policy = bound_policy(stripe=500)
        parts = policy._cut_with_min_size(Interval(0, 1000), [500])
        assert parts == [Interval(0, 500), Interval(500, 1000)]

    def test_sliver_merged_left(self):
        _, policy = bound_policy()
        parts = policy._cut_with_min_size(Interval(0, 505), [500])
        # The 5-event tail is below min_subjob_events (10): merged.
        assert parts == [Interval(0, 505)]

    def test_no_points(self):
        _, policy = bound_policy()
        parts = policy._cut_with_min_size(Interval(10, 50), [])
        assert parts == [Interval(10, 50)]

    def test_points_outside_ignored(self):
        _, policy = bound_policy()
        parts = policy._cut_with_min_size(Interval(100, 200), [0, 50, 300])
        assert parts == [Interval(100, 200)]


class TestCellOf:
    def test_inside_cell(self):
        _, policy = bound_policy()
        cell = policy._cell_of(Interval(120, 180), [0, 100, 200, 300])
        assert cell == (100, 200)

    def test_before_first_point(self):
        _, policy = bound_policy()
        cell = policy._cell_of(Interval(10, 50), [100, 200])
        assert cell == (10, 100)

    def test_after_last_point(self):
        _, policy = bound_policy(stripe=500)
        cell = policy._cell_of(Interval(250, 300), [0, 200])
        assert cell[0] == 200
        assert cell[1] >= 300

    def test_no_points(self):
        _, policy = bound_policy()
        cell = policy._cell_of(Interval(5, 15), [])
        assert cell == (5, 15)


class TestPeriodMachinery:
    def test_boundary_reschedules_itself(self):
        sim, policy = bound_policy(period=units.HOUR)
        sim.prime()
        sim.engine.run(until=3.5 * units.HOUR)
        assert policy.stats_periods == 3

    def test_zero_period_never_ticks(self):
        sim, policy = bound_policy(period=0.0)
        sim.prime()
        sim.engine.run(until=6 * units.HOUR)
        assert policy.stats_periods == 0
        assert policy._boundary_event is None

    def test_pending_flushed_at_boundary(self):
        sim, policy = bound_policy(period=units.HOUR)
        sim.prime()
        sim.engine.run(until=0.5 * units.HOUR)
        assert len(policy.pending_jobs) == 1
        sim.engine.run(until=1.5 * units.HOUR)
        assert len(policy.pending_jobs) == 0
        assert policy.stats_batched_jobs == 1


class TestStripePointsEdgeCases:
    def test_duplicate_segments(self):
        points = compute_stripe_points(
            [Interval(0, 1000), Interval(0, 1000)], 400
        )
        assert points[0] == 0 and points[-1] == 1000

    def test_nested_segments(self):
        points = compute_stripe_points(
            [Interval(0, 1000), Interval(200, 800)], 400
        )
        assert points == sorted(set(points))
        gaps = [b - a for a, b in zip(points, points[1:])]
        assert all(gap <= 400 for gap in gaps)

    def test_invalid_stripe_returns_empty(self):
        assert compute_stripe_points([Interval(0, 100)], 0) == []

    def test_two_far_segments(self):
        points = compute_stripe_points(
            [Interval(0, 100), Interval(10_000, 10_100)], 400
        )
        # The gap between segments is striped too (the union's span),
        # but segment boundaries survive.
        assert 0 in points and 10_100 in points


class TestMetaQueueOrdering:
    def test_leftover_metas_keep_priority_over_new_batch(self):
        # Period 1: two cold jobs fill the meta queue beyond what one
        # period can process (1-node cluster).  Period 2 adds another
        # job: the old metas must still be served first.
        config = micro_config(n_nodes=1)
        entries = [
            (10.0, 0, 4000),
            (20.0, 10_000, 4000),
            (1.5 * units.HOUR, 20_000, 1000),
        ]
        sim = build_sim(
            "delayed",
            trace(*entries),
            config,
            period=units.HOUR,
            stripe_events=4000,
        )
        result = sim.run()
        records = {r.job_id: r for r in result.records}
        assert records[0].first_start < records[2].first_start
        assert records[1].first_start < records[2].first_start


class TestCrashRehomeOracle:
    """A crashed node's queue moves, subjob by subjob, to the surviving
    node caching the most of the subjob's remaining data (the lowest id
    when none caches any).  Checked at every crash of a faulted run
    against the ``Interval`` lookup the int bounds replaced."""

    @staticmethod
    def _interval_pick(cluster, dead, subjob):
        """``(target, cached events of the subjob on it)``."""
        target = None
        best_cached = 0
        for other in cluster:
            if other.failed or other is dead:
                continue
            if target is None:
                target = other
            cached = other.cache.cached_parts(subjob.remaining).measure()
            if cached > best_cached:
                best_cached = cached
                target = other
        return target, best_cached

    def test_rehome_matches_interval_pick(self):
        config = quick_config(
            duration=6 * units.DAY,
            seed=7,
            arrival_rate_per_hour=3.0,
            faults=FaultConfig(node_mtbf=6 * units.HOUR, node_mttr=30 * units.MINUTE),
        )
        sim = Simulation(config, create_policy("delayed"))
        policy = sim.policy
        rehome = policy.on_node_failed
        cached_moves = []

        def checked(node, aborted):
            queue = list(policy.node_queues[node.node_id])
            expected = [self._interval_pick(policy.cluster, node, s) for s in queue]
            rehome(node, aborted)
            for subjob, (target, cached) in zip(queue, expected):
                assert target is not None
                assert subjob.origin == ("node", target.node_id)
                cached_moves.append(cached)

        policy.on_node_failed = checked
        sim.run()
        # Queues were displaced, and the cached data, not the lowest-id
        # fallback, chose the target of some.
        assert cached_moves
        assert max(cached_moves) > 0
