"""Tests for the node executor: chunked execution, preemption, timing."""

import pytest

from repro.cluster.access import CachingPlanner, ChunkPlan, NoCachePlanner
from repro.cluster.costmodel import CostModel, DataSource
from repro.cluster.node import Node
from repro.core.engine import Engine
from repro.core.errors import SchedulingError
from repro.core.events import EventPriority
from repro.core import units
from repro.data.cache import LRUSegmentCache
from repro.data.dataspace import DataSpace
from repro.data.intervals import Interval
from repro.data.tertiary import TertiaryStorage
from repro.obs.hooks import HookBus, TraceSink, kinds
from repro.workload.jobs import SubjobState

from .helpers import make_subjob


@pytest.fixture
def space() -> DataSpace:
    return DataSpace(total_events=1_000_000, event_bytes=600 * units.KB)


def build_node(
    space,
    cache_events: int = 10_000,
    chunk_events: int = 100,
    caching: bool = True,
    speed_factor: float = 1.0,
):
    engine = Engine()
    tertiary = TertiaryStorage(space)
    planner = CachingPlanner(tertiary) if caching else NoCachePlanner(tertiary)
    node = Node(
        node_id=0,
        engine=engine,
        cache=LRUSegmentCache(cache_events),
        cost_model=CostModel.from_hardware(600 * units.KB),
        planner=planner,
        chunk_events=chunk_events,
        speed_factor=speed_factor,
    )
    return engine, node, tertiary


class TestExecutionTiming:
    def test_uncached_subjob_takes_exact_time(self, space):
        engine, node, tertiary = build_node(space)
        subjob = make_subjob(0, 250)
        done = []
        node.on_subjob_complete = lambda n, s: done.append(engine.now)
        node.start(subjob)
        engine.run()
        # 250 uncached events at 0.8 s each.
        assert done == [pytest.approx(250 * 0.8)]
        assert subjob.state is SubjobState.DONE
        assert tertiary.stats.events_read == 250

    def test_cached_subjob_runs_faster(self, space):
        engine, node, _ = build_node(space)
        node.cache.insert(Interval(0, 250), now=0.0)
        subjob = make_subjob(0, 250)
        done = []
        node.on_subjob_complete = lambda n, s: done.append(engine.now)
        node.start(subjob)
        engine.run()
        assert done == [pytest.approx(250 * 0.26)]

    def test_mixed_cached_uncached_chunks(self, space):
        engine, node, tertiary = build_node(space)
        node.cache.insert(Interval(100, 200), now=0.0)
        subjob = make_subjob(0, 300)
        node.on_subjob_complete = lambda n, s: None
        node.start(subjob)
        engine.run()
        expected = 100 * 0.8 + 100 * 0.26 + 100 * 0.8
        assert engine.now == pytest.approx(expected)
        assert tertiary.stats.events_read == 200

    def test_speed_factor_scales_duration(self, space):
        engine, node, _ = build_node(space, speed_factor=2.0)
        node.on_subjob_complete = lambda n, s: None
        node.start(make_subjob(0, 100))
        engine.run()
        assert engine.now == pytest.approx(100 * 0.8 * 2.0)

    def test_tertiary_reads_populate_cache(self, space):
        engine, node, _ = build_node(space)
        node.on_subjob_complete = lambda n, s: None
        node.start(make_subjob(0, 500))
        engine.run()
        assert node.cache.covers(Interval(0, 500))

    def test_no_cache_planner_never_populates(self, space):
        engine, node, _ = build_node(space, caching=False)
        node.on_subjob_complete = lambda n, s: None
        node.start(make_subjob(0, 500))
        engine.run()
        assert node.cache.used_events == 0

    def test_cache_hits_refresh_lru(self, space):
        engine, node, _ = build_node(space, cache_events=300)
        node.cache.insert(Interval(0, 200), now=0.0)
        node.on_subjob_complete = lambda n, s: None
        node.start(make_subjob(0, 200))  # all hits, touches [0,200)
        engine.run()
        # A later insert evicts something else first... here only one
        # extent exists; verify its stamp moved by checking extents.
        stamps = [stamp for _, stamp in node.cache]
        assert all(stamp > 0.0 for stamp in stamps)


class TestChunking:
    def test_chunk_count(self, space):
        engine, node, _ = build_node(space, chunk_events=100)
        node.on_subjob_complete = lambda n, s: None
        node.start(make_subjob(0, 1000))
        engine.run()
        assert node.stats.chunks_started == 10

    def test_events_by_source(self, space):
        engine, node, _ = build_node(space)
        node.cache.insert(Interval(0, 150), now=0.0)
        node.on_subjob_complete = lambda n, s: None
        node.start(make_subjob(0, 400))
        engine.run()
        assert node.stats.events_by_source[DataSource.CACHE] == 150
        assert node.stats.events_by_source[DataSource.TERTIARY] == 250
        assert node.stats.events_processed == 400

    def test_busy_seconds_accounting(self, space):
        engine, node, _ = build_node(space)
        node.on_subjob_complete = lambda n, s: None
        node.start(make_subjob(0, 100))
        engine.run()
        assert node.stats.busy_seconds == pytest.approx(80.0)
        assert node.stats.utilization(160.0) == pytest.approx(0.5)


class TestPreemption:
    def test_preempt_midway_credits_whole_events(self, space):
        engine, node, _ = build_node(space, chunk_events=1000)
        subjob = make_subjob(0, 1000)
        node.on_subjob_complete = lambda n, s: None
        node.start(subjob)
        engine.call_at(80.4, lambda: None)  # let time pass: 100.5 events
        engine.run(until=80.4)
        suspended = node.preempt()
        assert suspended is subjob
        assert subjob.state is SubjobState.SUSPENDED
        # 80.4 s / 0.8 s per event = 100.5 → 100 whole events.
        assert subjob.processed == 100
        assert node.idle

    def test_preempted_progress_is_cached(self, space):
        engine, node, _ = build_node(space, chunk_events=1000)
        subjob = make_subjob(0, 1000)
        node.on_subjob_complete = lambda n, s: None
        node.start(subjob)
        engine.run(until=160.0)  # 200 events
        node.preempt()
        assert node.cache.covers(Interval(0, 200))
        assert not node.cache.contains_point(200)

    def test_resume_completes_with_correct_total_time(self, space):
        engine, node, _ = build_node(space, chunk_events=1000)
        subjob = make_subjob(0, 100)
        done = []
        node.on_subjob_complete = lambda n, s: done.append(engine.now)
        node.start(subjob)
        engine.run(until=40.0)  # 50 events done
        node.preempt()
        engine.run(until=100.0)  # idle gap
        node.start(subjob)
        engine.run()
        # 50 events remained; they were never processed, so they still
        # stream from tertiary storage: resume at 100.0 + 50 * 0.8.
        assert done == [pytest.approx(100.0 + 50 * 0.8)]

    def test_preempt_idle_node_returns_none(self, space):
        _, node, _ = build_node(space)
        assert node.preempt() is None

    def test_preempt_idle_node_is_free_of_side_effects(self, space):
        engine, node, tertiary = build_node(space)
        node.preempt()
        node.preempt()  # idempotent: still nothing to suspend
        assert node.stats.preemptions == 0
        assert node.stats.busy_seconds == 0.0
        assert node.idle
        # The node is still perfectly usable afterwards.
        subjob = make_subjob(0, 100)
        node.on_subjob_complete = lambda n, s: None
        node.start(subjob)
        engine.run()
        assert subjob.state is SubjobState.DONE

    def test_preempt_exactly_between_chunks_loses_nothing(self, space):
        engine, node, _ = build_node(space, chunk_events=100)
        subjob = make_subjob(0, 300)
        node.on_subjob_complete = lambda n, s: None
        node.start(subjob)
        # Chunk 1 (100 uncached events) completes at exactly t=80.0 and
        # chunk 2 starts at the same instant with zero elapsed time.
        engine.run(until=80.0)
        suspended = node.preempt()
        assert suspended is subjob
        # Only whole finished chunks are credited; the freshly started
        # chunk 2 contributes nothing and wastes nothing.
        assert subjob.processed == 100
        assert node.stats.busy_seconds == pytest.approx(80.0)
        assert node.cache.covers(Interval(0, 100))
        assert not node.cache.contains_point(100)

    def test_preempt_stats_accounting_midway(self, space):
        engine, node, _ = build_node(space, chunk_events=1000)
        subjob = make_subjob(0, 1000)
        node.on_subjob_complete = lambda n, s: None
        node.start(subjob)
        engine.run(until=80.4)  # 100.5 events of work elapsed
        node.preempt()
        # Only the 100 whole events are credited everywhere: busy time,
        # processed counters and the per-source breakdown all agree.
        assert node.stats.preemptions == 1
        assert node.stats.events_processed == 100
        assert node.stats.busy_seconds == pytest.approx(100 * 0.8)
        assert node.stats.events_by_source[DataSource.TERTIARY] == 100
        assert node.stats.chunks_started == 1
        assert node.stats.subjobs_completed == 0
        # Resume elsewhere in time: totals keep accumulating consistently.
        node.start(subjob)
        engine.run()
        assert node.stats.events_processed == 1000
        assert node.stats.chunks_started == 2
        assert node.stats.subjobs_completed == 1
        assert node.stats.preemptions == 1

    def test_preempt_immediately_after_start_loses_nothing(self, space):
        engine, node, _ = build_node(space)
        subjob = make_subjob(0, 100)
        node.on_subjob_complete = lambda n, s: None
        node.start(subjob)
        suspended = node.preempt()
        assert suspended is subjob
        assert subjob.processed == 0

    def test_preempt_at_exact_completion_defers_notification(self, space):
        engine, node, _ = build_node(space, chunk_events=1000)
        subjob = make_subjob(0, 100)
        done = []
        node.on_subjob_complete = lambda n, s: done.append((engine.now, s))
        node.start(subjob)
        # Advance to exactly the completion instant without dispatching
        # the completion event, then preempt.
        preempted = []
        engine.call_at(
            80.0, lambda: preempted.append(node.preempt()), priority=0
        )
        engine.run()
        assert preempted == [None]  # nothing to suspend: it was done
        assert subjob.state is SubjobState.DONE
        assert done and done[0][0] == pytest.approx(80.0)

    def test_preemption_counter(self, space):
        engine, node, _ = build_node(space)
        subjob = make_subjob(0, 1000)
        node.on_subjob_complete = lambda n, s: None
        node.start(subjob)
        engine.run(until=8.0)
        node.preempt()
        assert node.stats.preemptions == 1


class TestErrors:
    def test_start_on_busy_node_raises(self, space):
        engine, node, _ = build_node(space)
        node.on_subjob_complete = lambda n, s: None
        node.start(make_subjob(0, 100))
        with pytest.raises(SchedulingError):
            node.start(make_subjob(0, 100))

    def test_start_done_subjob_raises(self, space):
        engine, node, _ = build_node(space)
        subjob = make_subjob(0, 50)
        node.on_subjob_complete = lambda n, s: None
        node.start(subjob)
        engine.run()
        with pytest.raises(SchedulingError):
            node.start(subjob)

    def test_invalid_construction(self, space):
        engine = Engine()
        tertiary = TertiaryStorage(space)
        with pytest.raises(SchedulingError):
            Node(
                0, engine, LRUSegmentCache(10), CostModel(), CachingPlanner(tertiary),
                chunk_events=0,
            )
        with pytest.raises(SchedulingError):
            Node(
                0, engine, LRUSegmentCache(10), CostModel(), CachingPlanner(tertiary),
                speed_factor=0.0,
            )


class TestTertiaryLatency:
    def test_latency_added_per_tertiary_chunk(self, space):
        from repro.cluster.costmodel import CostModel
        from repro.cluster.access import CachingPlanner
        from repro.cluster.node import Node
        from repro.core.engine import Engine
        from repro.data.cache import LRUSegmentCache
        from repro.data.tertiary import TertiaryStorage
        from repro.core import units as u

        engine = Engine()
        tertiary = TertiaryStorage(space)
        node = Node(
            node_id=0,
            engine=engine,
            cache=LRUSegmentCache(10_000),
            cost_model=CostModel.from_hardware(
                600 * u.KB, tertiary_latency=30.0
            ),
            planner=CachingPlanner(tertiary),
            chunk_events=100,
        )
        node.on_subjob_complete = lambda n, s: None
        node.start(make_subjob(0, 200))
        engine.run()
        # Two tertiary chunks, each paying 30 s setup.
        assert engine.now == pytest.approx(2 * 30.0 + 200 * 0.8)

    def test_no_latency_for_cached_chunks(self, space):
        from repro.cluster.costmodel import CostModel
        from repro.cluster.access import CachingPlanner
        from repro.cluster.node import Node
        from repro.core.engine import Engine
        from repro.data.cache import LRUSegmentCache
        from repro.data.intervals import Interval
        from repro.data.tertiary import TertiaryStorage
        from repro.core import units as u

        engine = Engine()
        tertiary = TertiaryStorage(space)
        node = Node(
            node_id=0,
            engine=engine,
            cache=LRUSegmentCache(10_000),
            cost_model=CostModel.from_hardware(
                600 * u.KB, tertiary_latency=30.0
            ),
            planner=CachingPlanner(tertiary),
            chunk_events=100,
        )
        node.cache.insert(Interval(0, 100), now=0.0)
        node.on_subjob_complete = lambda n, s: None
        node.start(make_subjob(0, 100))
        engine.run()
        assert engine.now == pytest.approx(100 * 0.26)

    def test_preemption_during_setup_latency_credits_nothing(self, space):
        from repro.cluster.costmodel import CostModel
        from repro.cluster.access import CachingPlanner
        from repro.cluster.node import Node
        from repro.core.engine import Engine
        from repro.data.cache import LRUSegmentCache
        from repro.data.tertiary import TertiaryStorage
        from repro.core import units as u

        engine = Engine()
        tertiary = TertiaryStorage(space)
        node = Node(
            node_id=0,
            engine=engine,
            cache=LRUSegmentCache(10_000),
            cost_model=CostModel.from_hardware(
                600 * u.KB, tertiary_latency=30.0
            ),
            planner=CachingPlanner(tertiary),
            chunk_events=100,
        )
        subjob = make_subjob(0, 100)
        node.on_subjob_complete = lambda n, s: None
        node.start(subjob)
        engine.run(until=10.0)  # still inside the 30 s setup
        suspended = node.preempt()
        assert suspended is subjob
        assert subjob.processed == 0
        assert tertiary.stats.events_read == 0


class TestIdleFlag:
    def test_stand_alone_node_tracks_idle_without_an_index(self, space):
        engine, node, _ = build_node(space)
        assert node.idle_index is None and node.idle
        node.reserved = True
        assert not node.idle
        node.reserved = False
        node.on_subjob_complete = lambda n, s: None
        node.start(make_subjob(0, 100))
        assert not node.idle
        engine.run()
        assert node.idle
        node.fail()
        assert not node.idle
        node.recover()
        assert node.idle


class _DispatchLog(TraceSink):
    """Keeps the engine-dispatch trace events of chunk completions."""

    def __init__(self) -> None:
        self.chunks = []

    def on_event(self, event) -> None:
        if event.kind == kinds.ENGINE_DISPATCH and event.data["label"].startswith(
            "chunk:"
        ):
            self.chunks.append(event.data)


class TestChunkLoopContract:
    def test_completion_label_and_priority_survive_preempt_and_resume(self, space):
        # Sanitizer messages and the engine-dispatch trace both read the
        # completion event's label and priority.
        bus = HookBus()
        log = bus.attach(_DispatchLog())
        bus.engine_dispatch = True
        engine = Engine(obs=bus)
        node = Node(
            node_id=7,
            engine=engine,
            cache=LRUSegmentCache(10_000),
            cost_model=CostModel.from_hardware(600 * units.KB),
            planner=NoCachePlanner(TertiaryStorage(space)),
            chunk_events=100,
        )
        subjob = make_subjob(0, 300)
        node.on_subjob_complete = lambda n, s: None
        node.start(subjob)
        engine.run(until=120.0)  # one chunk done, the second half run
        assert node.preempt() is subjob
        assert subjob.processed == 150
        node.start(subjob)
        engine.run()
        assert subjob.state is SubjobState.DONE
        # 0-100 before the preemption, then 150-250 and 250-300.
        assert [chunk["label"] for chunk in log.chunks] == [f"chunk:{subjob.sid}@7"] * 3
        assert [chunk["priority"] for chunk in log.chunks] == [
            EventPriority.COMPLETION
        ] * 3

    @pytest.mark.parametrize("bad", [Interval(0, 0), Interval(5, 50)])
    def test_empty_or_misaligned_plan_is_rejected(self, space, bad):
        _, node, _ = build_node(space, caching=False)
        node.planner.plan_chunk = lambda n, remaining, cap: ChunkPlan(
            bad, DataSource.TERTIARY
        )
        with pytest.raises(SchedulingError, match="bad chunk"):
            node.start(make_subjob(0, 100))

    def test_keyword_chunk_plan_keeps_path_defaults(self):
        # The tiered planner builds plans with keywords only.
        plan = ChunkPlan(
            interval=Interval(0, 10), source=DataSource.TERTIARY, rate_factor=1.5
        )
        assert (plan.owner, plan.via, plan.tier) == (None, (), None)
        assert plan.rate_factor == 1.5
        plain = ChunkPlan(Interval(0, 10), DataSource.CACHE)
        assert (plain.owner, plain.rate_factor, plain.via, plain.tier) == (
            None,
            1.0,
            (),
            None,
        )
