"""Behavioural tests for out-of-order scheduling (§4.1, Table 3)."""

import pytest

from repro.core import units
from repro.sched.base import SchedulerContext
from repro.workload.jobs import SubjobState

from .policy_helpers import build_sim, micro_config, record_of, run_policy, trace


def one_node_config(**overrides):
    defaults = dict(n_nodes=1)
    defaults.update(overrides)
    return micro_config(**defaults)


class TestOvertaking:
    def test_cached_job_preempts_uncached_work(self):
        # Node runs A (0..800 s), caching [0,1000).  B (uncached) starts at
        # 800.  C arrives at 900 with its data cached: it must preempt B.
        entries = [
            (0.0, 0, 1000),       # A
            (100.0, 50_000, 1000),  # B — no cached data
            (900.0, 0, 1000),     # C — same data as A (cached by then)
        ]
        result = run_policy("out-of-order", trace(*entries), one_node_config())
        b, c = record_of(result, 1), record_of(result, 2)
        assert c.first_start == pytest.approx(900.0)
        assert c.completion == pytest.approx(900.0 + 1000 * 0.26)
        # B was displaced and finished after C despite arriving earlier.
        assert b.completion > c.completion

    def test_displaced_subjob_resumes_with_no_lost_work(self):
        entries = [
            (0.0, 0, 1000),
            (100.0, 50_000, 1000),
            (900.0, 0, 1000),
        ]
        sim = build_sim("out-of-order", trace(*entries), one_node_config())
        result = sim.run()
        job_b = sim.jobs[1]
        assert job_b.events_done == 1000
        # B processed 100 s / 0.8 = 125 events before displacement, then
        # resumed after C's 260 s: completion = 900 + 260 + 875*0.8.
        assert record_of(result, 1).completion == pytest.approx(
            900.0 + 260.0 + 875 * 0.8
        )

    def test_cached_subjob_does_not_preempt_cached_work(self):
        # C and D both cached; D arrives while C runs: D queues (no
        # preemption between cached subjobs).
        entries = [
            (0.0, 0, 1000),     # A populates the cache
            (800.0, 0, 500),    # C cached, runs at 800
            (850.0, 500, 500),  # D cached, must wait for C
        ]
        result = run_policy("out-of-order", trace(*entries), one_node_config())
        c, d = record_of(result, 1), record_of(result, 2)
        assert c.first_start == pytest.approx(800.0)
        assert d.first_start == pytest.approx(800.0 + 500 * 0.26)


class TestNodeQueues:
    def test_node_queue_served_before_global_queue(self):
        # While the node is busy: E arrives uncached (global queue), then
        # F arrives cached (node queue).  F must run first.
        entries = [
            (0.0, 0, 1000),        # A caches [0,1000)
            (800.0, 50_000, 1000),  # B uncached — occupies node at 800
            (900.0, 60_000, 500),  # E uncached -> global queue
            (950.0, 0, 500),       # F cached -> preempts B immediately
        ]
        result = run_policy("out-of-order", trace(*entries), one_node_config())
        e, f = record_of(result, 2), record_of(result, 3)
        assert f.first_start < e.first_start


class TestFairness:
    def test_starved_job_promoted_after_timeout(self):
        # A stream of cached jobs keeps overtaking; the uncached job B
        # would starve without the fairness valve.
        entries = [(0.0, 0, 2000)]  # A caches [0,2000)
        entries.append((1600.0, 50_000, 20_000))  # B uncached, long
        # Cached jobs arriving every 400 s, each 1500 events (390 s of
        # cached work): the node never idles for long.
        for i in range(40):
            entries.append((1700.0 + 400.0 * i, 0, 1500))
        config = one_node_config(duration=3 * units.DAY)
        result = run_policy(
            "out-of-order",
            trace(*entries),
            config,
            fairness_timeout=2 * units.HOUR,
        )
        assert result.policy_stats["fairness_promotions"] >= 1
        b = record_of(result, 1)
        # Promoted B got the node well before the cached stream drained.
        assert b.first_start < 1600.0 + 3 * units.HOUR + 2 * units.HOUR

    def test_no_promotions_when_disabled(self):
        entries = [(0.0, 0, 1000), (10.0, 50_000, 1000)]
        result = run_policy(
            "out-of-order", trace(*entries), fairness_timeout=0.0
        )
        assert result.policy_stats["fairness_promotions"] == 0


class TestStealing:
    def test_idle_node_steals_from_loaded_node(self):
        sim = build_sim("out-of-order", trace((0.0, 0, 10_000)))
        sim.prime()
        # Job arrives with 2 idle nodes: uncached, split to feed both.
        sim.engine.run(until=1.0)
        assert all(n.busy for n in sim.cluster)
        sim.engine.run(until=10_000.0)
        assert sim.jobs[0].done

    def test_steal_balances_completion_times(self):
        # One busy node with a large running subjob, one idle node with
        # nothing queued anywhere: feeding the idle node must split the
        # running subjob so both halves finish around the same time.
        entries = [
            (0.0, 0, 2000),        # warm cache on both nodes? no — cold.
        ]
        sim = build_sim("out-of-order", trace(*entries))
        policy = sim.policy
        engine = sim.engine
        sim.prime()
        engine.run(until=1.0)
        # The arrival split the job over both nodes (uncached feed).
        node0, node1 = sim.cluster.nodes
        assert node0.busy and node1.busy
        # Preempt node1's piece manually and finish it off elsewhere is
        # overkill; instead verify the split shares directly:
        share = policy._thief_share(1060)
        assert share == pytest.approx(1060 * 0.26 / 1.06, abs=1)

    def test_stolen_subjob_is_preemptible_by_cached(self):
        # A big uncached job on both nodes; then a fully-cached job C
        # arrives: its pieces may displace stolen/uncached subjobs.
        entries = [
            (0.0, 0, 2000),         # A caches [0,2000) split on 2 nodes
            (2000.0, 10_000, 6000),  # B uncached: both nodes busy
            (2100.0, 0, 2000),      # C cached on both nodes
        ]
        result = run_policy("out-of-order", trace(*entries))
        c = record_of(result, 2)
        assert c.first_start == pytest.approx(2100.0)
        assert result.policy_stats["preempted_for_cached"] >= 1


class TestConservation:
    def test_random_mix_completes(self):
        entries = [
            (i * 400.0, (i * 31_337) % 70_000, 300 + 83 * i) for i in range(60)
        ]
        sim = build_sim(
            "out-of-order", trace(*entries), micro_config(duration=12 * units.DAY)
        )
        result = sim.run()
        assert result.jobs_completed == 60
        for job in sim.jobs.values():
            job.check_invariants()
        for node in sim.cluster:
            node.cache.validate()

    def test_queues_drain_at_low_load(self):
        entries = [(i * 2000.0, (i * 7907) % 70_000, 800) for i in range(30)]
        result = run_policy(
            "out-of-order", trace(*entries), micro_config(duration=10 * units.DAY)
        )
        assert result.policy_stats["nocache_queue_at_end"] == 0
        assert result.policy_stats["node_queued_at_end"] == 0
