"""Tests for the contention-aware remote-read planner."""

import pytest

from repro.cluster.access import ContentionRemoteReadPlanner
from repro.cluster.costmodel import CostModel, DataSource
from repro.cluster.node import Node
from repro.core.engine import Engine
from repro.core import units
from repro.data.cache import LRUSegmentCache
from repro.data.dataspace import DataSpace
from repro.data.tertiary import TertiaryStorage

from .helpers import make_subjob
from .policy_helpers import micro_config, record_of, run_policy, trace


@pytest.fixture
def space():
    return DataSpace(total_events=1_000_000, event_bytes=600 * units.KB)


def build_cluster(space, n_nodes=3, link_capacity_streams=1):
    engine = Engine()
    tertiary = TertiaryStorage(space)
    planner = ContentionRemoteReadPlanner(
        tertiary, link_capacity_streams=link_capacity_streams
    )
    nodes = [
        Node(
            node_id=i,
            engine=engine,
            cache=LRUSegmentCache(100_000),
            cost_model=CostModel.from_hardware(600 * units.KB),
            planner=planner,
            chunk_events=100,
        )
        for i in range(n_nodes)
    ]
    planner.set_peers(nodes)
    for node in nodes:
        node.on_subjob_complete = lambda n, s: None
    return engine, nodes, planner


class TestRateFactor:
    def test_uncontended_remote_read_full_speed(self, space):
        engine, nodes, planner = build_cluster(space)
        nodes[1].cache.insert(0, 100, now=0.0)
        plan = planner.plan_chunk(nodes[0], 0, 100, 1000)
        assert plan.source is DataSource.REMOTE
        assert plan.rate_factor == pytest.approx(1.0)

    def test_second_stream_pays_wire_contention(self, space):
        engine, nodes, planner = build_cluster(space, link_capacity_streams=1)
        nodes[2].cache.insert(0, 200, now=0.0)
        # First remote reader occupies the link...
        nodes[0].start(make_subjob(0, 100))
        assert planner._active_remote_streams == 1
        # ...the second one's plan sees 2 streams on a 1-stream link.
        plan = planner.plan_chunk(nodes[1], 100, 200, 1000)
        assert plan.source is DataSource.REMOTE
        model = nodes[1].cost_model
        base = model.disk_time + model.network_time + model.cpu_time
        expected = (model.disk_time + 2 * model.network_time + model.cpu_time) / base
        assert plan.rate_factor == pytest.approx(expected)

    def test_owner_disk_contention(self, space):
        engine, nodes, planner = build_cluster(space)
        nodes[1].cache.insert(0, 500, now=0.0)
        # Owner busy reading its own disk (cache-source chunk).
        nodes[1].start(make_subjob(0, 200))
        assert nodes[1].current_source() is DataSource.CACHE
        plan = planner.plan_chunk(nodes[0], 200, 400, 1000)
        assert plan.source is DataSource.REMOTE
        model = nodes[0].cost_model
        base = model.disk_time + model.network_time + model.cpu_time
        expected = (2 * model.disk_time + model.network_time + model.cpu_time) / base
        assert plan.rate_factor == pytest.approx(expected)

    def test_stream_counter_balanced(self, space):
        engine, nodes, planner = build_cluster(space)
        nodes[1].cache.insert(0, 100, now=0.0)
        nodes[0].start(make_subjob(0, 100))
        engine.run()
        assert planner._active_remote_streams == 0
        assert planner.peak_remote_streams == 1

    def test_preemption_releases_stream(self, space):
        engine, nodes, planner = build_cluster(space)
        nodes[1].cache.insert(0, 1000, now=0.0)
        nodes[0].start(make_subjob(0, 1000))
        assert planner._active_remote_streams == 1
        engine.run(until=5.0)
        nodes[0].preempt()
        assert planner._active_remote_streams == 0

    def test_immediate_preemption_releases_stream(self, space):
        # Preempted at its start instant: an empty prefix is accounted,
        # and the stream its plan counted is released all the same.
        engine, nodes, planner = build_cluster(space)
        nodes[1].cache.insert(0, 1000, now=0.0)
        subjob = make_subjob(0, 1000)
        nodes[0].start(subjob)
        assert nodes[0].preempt() is subjob
        assert subjob.processed == 0
        assert planner._active_remote_streams == 0

    def test_crash_releases_stream(self, space):
        engine, nodes, planner = build_cluster(space)
        nodes[1].cache.insert(0, 1000, now=0.0)
        nodes[0].start(make_subjob(0, 1000))
        engine.run(until=5.0)
        assert nodes[0].fail() is not None
        assert planner._active_remote_streams == 0
        assert planner.peak_remote_streams == 1
        assert planner.stats.remote_events == 0

    def test_each_chunk_counts_and_releases_its_stream_once(self, space):
        engine, nodes, planner = build_cluster(space)
        nodes[1].cache.insert(0, 1000, now=0.0)
        nodes[0].start(make_subjob(0, 1000))
        counts = []
        while engine.step():
            counts.append(planner._active_remote_streams)
            planner.check_stream_counts(
                [plan for plan in (n.current_plan() for n in nodes) if plan is not None]
            )
        assert nodes[0].stats.chunks_started == 10
        assert counts == [1] * 9 + [0]
        assert planner.peak_remote_streams == 1

    def test_contended_chunk_runs_slower(self, space):
        engine, nodes, planner = build_cluster(space, link_capacity_streams=1)
        nodes[2].cache.insert(0, 200, now=0.0)
        done = {}
        nodes[0].on_subjob_complete = lambda n, s: done.setdefault("first", engine.now)
        nodes[1].on_subjob_complete = lambda n, s: done.setdefault("second", engine.now)
        nodes[0].start(make_subjob(0, 100))
        nodes[1].start(make_subjob(100, 100))
        engine.run()
        # First stream at full speed; second paid 2x wire time.
        assert done["first"] == pytest.approx(100 * 0.2648)
        assert done["second"] > done["first"]

    def test_invalid_capacity(self, space):
        tertiary = TertiaryStorage(space)
        with pytest.raises(ValueError):
            ContentionRemoteReadPlanner(tertiary, link_capacity_streams=0)


class TestPolicyIntegration:
    def test_contended_policy_completes_everything(self):
        entries = [
            (i * 600.0, (i * 13_337) % 60_000, 500 + 41 * i) for i in range(30)
        ]
        result = run_policy(
            "replication",
            trace(*entries),
            micro_config(duration=8 * units.DAY),
            network_contention=True,
            link_capacity_streams=2,
        )
        assert result.jobs_completed == 30

    def test_contention_never_beats_free_network(self):
        entries = [
            (i * 500.0, (i * 9001) % 60_000, 800) for i in range(40)
        ]
        config = micro_config(duration=8 * units.DAY)
        free = run_policy("replication", trace(*entries), config)
        contended = run_policy(
            "replication",
            trace(*entries),
            config,
            network_contention=True,
            link_capacity_streams=1,
        )
        # Contention can only slow processing down (same schedule shape).
        assert (
            contended.measured.mean_processing
            >= free.measured.mean_processing * 0.95
        )
