"""Behavioural tests for delayed scheduling (§5, Table 4)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import units
from repro.core.errors import ConfigurationError
from repro.data.intervals import Interval
from repro.sched.delayed import compute_stripe_points

from .policy_helpers import build_sim, micro_config, record_of, run_policy, trace


class TestStripePoints:
    def test_simple_segments(self):
        points = compute_stripe_points([Interval(0, 1000)], stripe_events=400)
        assert points[0] == 0 and points[-1] == 1000
        gaps = [b - a for a, b in zip(points, points[1:])]
        assert all(gap <= 400 for gap in gaps)

    def test_close_points_removed(self):
        # Boundaries at 0/500/510/1000: 510 creates a 10-event stripe and
        # must be dropped (below half of 400).
        points = compute_stripe_points(
            [Interval(0, 510), Interval(500, 1000)], stripe_events=400
        )
        assert 510 not in points or 500 not in points

    def test_empty_input(self):
        assert compute_stripe_points([], 100) == []

    def test_single_point_segments(self):
        points = compute_stripe_points([Interval(5, 5)], 100)
        assert points == [5]

    @settings(max_examples=100)
    @given(
        st.lists(
            st.tuples(st.integers(0, 5000), st.integers(1, 800)),
            min_size=1,
            max_size=8,
        ),
        st.integers(50, 1000),
    )
    def test_stripe_size_bounds(self, raw_segments, stripe):
        segments = [Interval(a, a + n) for a, n in raw_segments]
        points = compute_stripe_points(segments, stripe)
        assert points == sorted(points)
        assert len(points) == len(set(points))
        gaps = [b - a for a, b in zip(points, points[1:])]
        # No stripe above the stripe size...
        assert all(gap <= stripe for gap in gaps)
        # ...and no stripe below half of it (merging guarantees this for
        # the evenly re-split cells too, since ceil-division pieces of a
        # gap > stripe are at least stripe/2).
        assert all(gap >= stripe // 2 or gap >= 1 for gap in gaps)
        # The span is preserved.
        lo = min(seg.start for seg in segments)
        hi = max(seg.end for seg in segments)
        if lo != hi:
            assert points[0] == lo and points[-1] == hi


class TestPeriodAccumulation:
    def test_no_job_starts_before_boundary(self):
        period = 4 * units.HOUR
        entries = [(600.0 * i, 10_000 * i, 1000) for i in range(5)]
        result = run_policy(
            "delayed", trace(*entries), period=period, stripe_events=500
        )
        for i in range(5):
            assert record_of(result, i).first_start >= period

    def test_schedule_time_is_boundary(self):
        period = 4 * units.HOUR
        result = run_policy(
            "delayed", trace((100.0, 0, 1000)), period=period, stripe_events=500
        )
        record = record_of(result, 0)
        assert record.schedule_time == pytest.approx(period)
        assert record.waiting_time >= period - 100.0
        assert record.waiting_time_excl_delay == pytest.approx(
            record.waiting_time - (period - 100.0)
        )

    def test_jobs_arriving_during_period_wait_for_next(self):
        period = 4 * units.HOUR
        entries = [(100.0, 0, 500), (period + 100.0, 10_000, 500)]
        result = run_policy(
            "delayed", trace(*entries), period=period, stripe_events=500
        )
        assert record_of(result, 1).first_start >= 2 * period

    def test_zero_period_schedules_immediately(self):
        result = run_policy(
            "delayed", trace((100.0, 0, 1000)), period=0.0, stripe_events=500
        )
        assert record_of(result, 0).first_start == pytest.approx(100.0)


class TestMetaSubjobs:
    def test_overlapping_jobs_load_tertiary_once(self):
        # Two identical cold jobs in the same period: the shared stripe
        # crosses tertiary storage once; the second pass hits the cache.
        period = units.HOUR
        entries = [(10.0, 0, 4000), (20.0, 0, 4000)]
        result = run_policy(
            "delayed", trace(*entries), period=period, stripe_events=1000
        )
        assert result.jobs_completed == 2
        assert result.tertiary_events_read == 4000
        assert result.tertiary_redundancy == pytest.approx(1.0)
        assert result.events_by_source["cache"] == 4000

    def test_disjoint_jobs_parallelise_over_nodes(self):
        period = units.HOUR
        entries = [(10.0, 0, 2000)]
        result = run_policy(
            "delayed", trace(*entries), period=period, stripe_events=500
        )
        record = record_of(result, 0)
        # 4 stripes over 2 nodes: ~1000 events x 0.8 s per node.
        assert record.processing_time == pytest.approx(1000 * 0.8, rel=0.05)

    def test_meta_queue_fairness_by_arrival(self):
        # Two cold jobs on disjoint data, arriving in order, one node:
        # the earlier job's meta-subjobs run first.
        config = micro_config(n_nodes=1)
        period = units.HOUR
        entries = [(10.0, 0, 1000), (20.0, 30_000, 1000)]
        result = run_policy(
            "delayed", trace(*entries), config, period=period, stripe_events=5000
        )
        assert (
            record_of(result, 0).first_start < record_of(result, 1).first_start
        )

    def test_smaller_stripes_give_higher_speedup(self):
        # The Fig 6 claim at micro scale.
        config = micro_config(n_nodes=4, duration=8 * units.DAY)
        entries = [(3000.0 * i, (i * 9001) % 60_000, 4000) for i in range(40)]
        speedups = {}
        for stripe in (250, 4000):
            result = run_policy(
                "delayed",
                trace(*entries),
                config,
                period=4 * units.HOUR,
                stripe_events=stripe,
            )
            speedups[stripe] = result.measured.mean_speedup
        assert speedups[250] > speedups[4000]


class TestCachedPieces:
    def test_cached_data_goes_to_owning_node_queue(self):
        # Job 0 warms the cache; job 1 (same data) in a later period must
        # run fully from cache.
        period = units.HOUR
        entries = [(10.0, 0, 2000), (period + 10.0, 0, 2000)]
        result = run_policy(
            "delayed", trace(*entries), period=period, stripe_events=500
        )
        assert result.tertiary_events_read == 2000
        second = record_of(result, 1)
        # Fully cached halves on both nodes: 1000 x 0.26 each.
        assert second.processing_time == pytest.approx(1000 * 0.26, rel=0.1)


class TestConservation:
    def test_random_mix_completes(self):
        entries = [
            (i * 900.0, (i * 31_337) % 60_000, 300 + 77 * i) for i in range(40)
        ]
        sim = build_sim(
            "delayed",
            trace(*entries),
            micro_config(duration=12 * units.DAY),
            period=6 * units.HOUR,
            stripe_events=400,
        )
        result = sim.run()
        assert result.jobs_completed == 40
        for job in sim.jobs.values():
            job.check_invariants()

    def test_validation(self):
        from repro.sched.delayed import DelayedPolicy

        with pytest.raises(ConfigurationError):
            DelayedPolicy(period=-1.0)
        with pytest.raises(ConfigurationError):
            DelayedPolicy(stripe_events=0)



class TestJobWindow:
    def test_validation(self):
        from repro.sched.delayed import DelayedPolicy

        with pytest.raises(ConfigurationError):
            DelayedPolicy(job_window=0)

    def _run_skewed(self, job_window):
        """Two fully-cached jobs whose data is split 6000/2000 across two
        nodes: without gating, the second job starts early on the lightly
        loaded node and its span stretches across both queues."""
        entries = [(10.0, 0, 8000), (20.0, 0, 8000)]
        sim = build_sim(
            "delayed",
            trace(*entries),
            micro_config(n_nodes=2, duration=2 * units.DAY),
            period=units.HOUR,
            stripe_events=8000,
            **({"job_window": job_window} if job_window else {}),
        )
        sim.cluster[0].cache.insert(0, 6000, now=0.0)
        sim.cluster[1].cache.insert(6000, 8000, now=0.0)
        return sim.run()

    def test_burst_drain_shortens_processing(self):
        """With job_window=1 a batch drains job by job: per-job
        processing spans shrink (the §5.2 'speedup > 10' discipline),
        at some utilization cost."""
        free = self._run_skewed(None)
        burst = self._run_skewed(1)
        assert burst.jobs_completed == free.jobs_completed == 2
        assert (
            burst.measured.mean_processing < free.measured.mean_processing
        )

    def test_all_jobs_still_complete_under_gating(self):
        entries = [
            (i * 400.0, (i * 13_337) % 60_000, 500 + 41 * i) for i in range(25)
        ]
        result = run_policy(
            "delayed",
            trace(*entries),
            micro_config(duration=8 * units.DAY),
            period=3 * units.HOUR,
            stripe_events=250,
            job_window=1,
        )
        assert result.jobs_completed == 25

    def test_jobs_finish_nearly_in_arrival_order(self):
        entries = [(10.0 + i, (i * 9001) % 60_000, 2000) for i in range(6)]
        result = run_policy(
            "delayed",
            trace(*entries),
            micro_config(n_nodes=2, duration=3 * units.DAY),
            period=units.HOUR,
            stripe_events=200,
            job_window=1,
        )
        completions = [
            record.completion
            for record in sorted(result.records, key=lambda r: r.arrival_time)
        ]
        assert completions == sorted(completions)
