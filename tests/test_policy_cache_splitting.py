"""Behavioural tests for cache-oriented job splitting (§3.3, Table 2)."""

import pytest

from repro.core import units

from .policy_helpers import build_sim, micro_config, record_of, run_policy, trace


class TestCaching:
    def test_repeat_job_runs_from_cache(self):
        # Same segment back to back: the rerun hits the disk caches.
        result = run_policy(
            "cache-splitting",
            trace((0.0, 0, 2000), (2000.0, 0, 2000)),
        )
        first = record_of(result, 0)
        second = record_of(result, 1)
        # First: 1000 events per node at 0.8 s.  Second: cached, 0.26 s.
        assert first.processing_time == pytest.approx(1000 * 0.8)
        assert second.processing_time == pytest.approx(1000 * 0.26, rel=0.05)
        assert result.tertiary_events_read == 2000  # loaded only once

    def test_cached_pieces_run_on_their_nodes(self):
        sim = build_sim(
            "cache-splitting", trace((0.0, 0, 2000), (2000.0, 0, 2000))
        )
        sim.run()
        # After both jobs, each node holds the half it processed — the
        # second job must not have shuffled data between nodes.
        total_cached = sum(n.cache.used_events for n in sim.cluster)
        assert total_cached == 2000

    def test_partial_overlap_splits_on_cache_boundary(self):
        # Second job overlaps the first's tail: the overlap is cached,
        # the extension is not.
        result = run_policy(
            "cache-splitting",
            trace((0.0, 0, 2000), (2000.0, 1000, 2000)),
        )
        second = record_of(result, 1)
        # Cached half on one node (260 s), cold half on the other (800 s);
        # after the cached node frees up it splits the cold remainder, so
        # the job ends well before the serial cold time but after the
        # pure-cache time.
        assert 1000 * 0.26 < second.processing_time < 1000 * 0.8
        assert result.tertiary_events_read == 3000

    def test_lru_eviction_under_pressure(self):
        # Cache: 20k events/node (40k total).  Three disjoint 30k jobs
        # force eviction; a rerun of the first is no longer fully cached.
        config = micro_config(duration=10 * units.DAY)
        result = run_policy(
            "cache-splitting",
            trace(
                (0.0, 0, 30_000),
                (20_000.0, 30_000, 30_000),
                (40_000.0, 60_000, 30_000),
                (60_000.0, 0, 30_000),  # rerun of job 0's segment
            ),
            config=config,
        )
        rerun = record_of(result, 3)
        # Not fully cached anymore: slower than a pure cache run.
        assert rerun.processing_time > 15_000 * 0.26 * 1.2


class TestFCFSStarts:
    def test_queued_jobs_start_in_arrival_order(self):
        entries = [(float(i), i * 10_000, 2000) for i in range(6)]
        result = run_policy("cache-splitting", trace(*entries))
        starts = [record_of(result, i).first_start for i in range(6)]
        assert starts == sorted(starts)


class TestPreemptionForCache:
    def test_new_job_enters_via_preemption(self):
        # Job 0 holds both nodes; job 1 arrives: one node must be released.
        result = run_policy(
            "cache-splitting", trace((0.0, 0, 10_000), (100.0, 50_000, 1000))
        )
        assert record_of(result, 1).waiting_time == pytest.approx(0.0)

    def test_preemption_prefers_uncached_victims(self):
        sim = build_sim(
            "cache-splitting", trace((0.0, 0, 10_000), (100.0, 50_000, 1000))
        )
        result = sim.run()
        stats = result.policy_stats
        assert stats["cache_preemptions"] >= 1


class TestConservation:
    def test_all_jobs_complete_and_invariants_hold(self):
        entries = [
            (i * 500.0, (i * 13_337) % 70_000, 400 + 61 * i) for i in range(50)
        ]
        sim = build_sim(
            "cache-splitting", trace(*entries), micro_config(duration=10 * units.DAY)
        )
        result = sim.run()
        assert result.jobs_completed == 50
        for job in sim.jobs.values():
            job.check_invariants()
        for node in sim.cluster:
            node.cache.validate()

    def test_cache_bounded_by_capacity(self):
        entries = [(i * 300.0, (i * 9001) % 70_000, 1500) for i in range(60)]
        sim = build_sim(
            "cache-splitting", trace(*entries), micro_config(duration=10 * units.DAY)
        )
        sim.run()
        for node in sim.cluster:
            assert node.cache.used_events <= node.cache.capacity_events
