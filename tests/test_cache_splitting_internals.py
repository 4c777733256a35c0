"""White-box tests of the cache-oriented splitting policy internals."""

import pytest

from repro.core import units
from repro.cluster.costmodel import DataSource
from repro.data.intervals import Interval
from repro.workload.jobs import SubjobState

from .helpers import make_job
from .policy_helpers import build_sim, micro_config, trace


def primed_sim(entries, **overrides):
    sim = build_sim(
        "cache-splitting", trace(*entries), micro_config(**overrides)
    )
    sim.prime()
    return sim, sim.policy


class TestStartJobAssignment:
    def test_cached_piece_lands_on_owning_node(self):
        sim, policy = primed_sim([(0.0, 0, 1000)], n_nodes=2)
        # Pre-warm node 1 with the right half of an upcoming job.
        sim.cluster[1].cache.insert(500, 1000, now=0.0)
        sim.engine.run(until=1.0)
        node1 = sim.cluster[1]
        assert node1.busy
        assert node1.current.segment == Interval(500, 1000)
        assert node1.current_source() is DataSource.CACHE

    def test_phase3_subdivides_for_idle_nodes(self):
        sim, policy = primed_sim([(0.0, 0, 1000)], n_nodes=4)
        sim.engine.run(until=1.0)
        # One cold job, four nodes: phase 3 splitting must feed them all.
        assert all(node.busy for node in sim.cluster)

    def test_oversubscribed_pieces_stay_pending(self):
        sim, policy = primed_sim([(0.0, 0, 2000)], n_nodes=1)
        sim.cluster[0].cache.insert(500, 700, now=0.0)
        sim.engine.run(until=1.0)
        job = sim.jobs[0]
        pending = job.pending_subjobs()
        # One node, at least two pieces (cache boundary): some wait.
        assert sim.cluster[0].busy
        assert pending

    def test_queue_when_every_node_holds_a_distinct_job(self):
        entries = [(0.0, 0, 5000), (1.0, 20_000, 5000), (2.0, 40_000, 500)]
        sim, policy = primed_sim(entries, n_nodes=2)
        sim.engine.run(until=3.0)
        # Jobs 0 and 1 each shrank to one node when the next arrived...
        # job 2 found no multi-node job to preempt? Both still hold 1 node
        # each after job 1's preemption, so job 2 queues.
        assert len(policy.queue) == 1
        assert policy.queue[0].job_id == 2

    def test_queued_job_started_fifo_on_job_end(self):
        entries = [
            (0.0, 0, 500),
            (1.0, 20_000, 5000),
            (2.0, 40_000, 500),
            (3.0, 60_000, 500),
        ]
        sim, policy = primed_sim(entries, n_nodes=2)
        result = sim.run()
        records = {r.job_id: r for r in result.records}
        assert records[2].first_start < records[3].first_start


class TestSplitForCacheBenefit:
    def test_freed_node_takes_its_cached_tail(self):
        sim, policy = primed_sim([(0.0, 0, 4000), (1.0, 20_000, 400)], n_nodes=2)
        # Node 1 caches the tail of job 0's segment.
        sim.cluster[1].cache.insert(3000, 4000, now=0.0)
        result = sim.run()
        # Job 0's tail should have been processed from node 1's cache.
        cached_events = result.events_by_source["cache"]
        assert cached_events >= 500

    def test_no_split_when_all_subjobs_tiny(self):
        sim, policy = primed_sim([(0.0, 0, 15)], n_nodes=2)
        sim.engine.run(until=1.0)
        busy = [n for n in sim.cluster if n.busy]
        assert len(busy) == 1  # 15 events: single piece, no benefit split


class TestPreemptionSelection:
    def test_multi_node_job_yields_to_newcomer(self):
        sim, policy = primed_sim(
            [(0.0, 0, 10_000), (5.0, 30_000, 1000)], n_nodes=2
        )
        sim.engine.run(until=6.0)
        jobs_running = {
            node.current.job.job_id for node in sim.cluster if node.busy
        }
        assert jobs_running == {0, 1}

    def test_last_node_never_taken(self):
        entries = [(0.0, 0, 5000)] + [
            (1.0 + i, 20_000 + 2_000 * i, 500) for i in range(4)
        ]
        sim, policy = primed_sim(entries, n_nodes=2)
        sim.engine.run(until=10.0)
        job0 = sim.jobs[0]
        # Job 0 must keep making progress on at least one node (or be
        # fully queued work belonging to it while others churn).
        assert job0.nodes_held() >= 1
        result_done = sim.run()
        assert result_done.jobs_completed == len(entries)
