"""Tests for data-access planners and the remote-access counter."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.access import (
    CachingPlanner,
    NoCachePlanner,
    RemoteAccessCounter,
    RemoteReadPlanner,
)
from repro.cluster.costmodel import CostModel, DataSource
from repro.cluster.node import Node
from repro.core.engine import Engine
from repro.core import units
from repro.core.errors import InvariantViolation
from repro.data.cache import LRUSegmentCache
from repro.data.dataspace import DataSpace
from repro.data.intervals import Interval, IntervalSet
from repro.data.tertiary import TertiaryStorage

from .helpers import make_subjob


@pytest.fixture
def space():
    return DataSpace(total_events=1_000_000, event_bytes=600 * units.KB)


def build_pair(space, planner_cls=RemoteReadPlanner, **planner_kwargs):
    """Two nodes sharing one planner (for remote-read tests)."""
    engine = Engine()
    tertiary = TertiaryStorage(space)
    planner = planner_cls(tertiary, **planner_kwargs)
    nodes = [
        Node(
            node_id=i,
            engine=engine,
            cache=LRUSegmentCache(100_000),
            cost_model=CostModel.from_hardware(600 * units.KB),
            planner=planner,
            chunk_events=100,
        )
        for i in range(2)
    ]
    if hasattr(planner, "set_peers"):
        planner.set_peers(nodes)
    for node in nodes:
        node.on_subjob_complete = lambda n, s: None
    return engine, nodes, planner, tertiary


class TestCachingPlanner:
    def test_plans_cached_prefix(self, space):
        engine, nodes, _, tertiary = build_pair(space, planner_cls=CachingPlanner)
        node = nodes[0]
        node.cache.insert(0, 50, now=0.0)
        plan = node.planner.plan_chunk(node, 0, 200, 100)
        assert plan.source is DataSource.CACHE
        assert (plan.start, plan.end) == (0, 50)

    def test_plans_miss_up_to_next_hit(self, space):
        engine, nodes, _, _ = build_pair(space, planner_cls=CachingPlanner)
        node = nodes[0]
        node.cache.insert(50, 80, now=0.0)
        plan = node.planner.plan_chunk(node, 0, 200, 100)
        assert plan.source is DataSource.TERTIARY
        assert (plan.start, plan.end) == (0, 50)

    def test_chunk_cap_respected(self, space):
        engine, nodes, _, _ = build_pair(space, planner_cls=CachingPlanner)
        node = nodes[0]
        plan = node.planner.plan_chunk(node, 0, 10_000, 100)
        assert plan.end - plan.start == 100


class TestNoCachePlanner:
    def test_always_tertiary(self, space):
        engine, nodes, _, _ = build_pair(space, planner_cls=NoCachePlanner)
        node = nodes[0]
        node.cache.insert(0, 500, now=0.0)  # ignored
        plan = node.planner.plan_chunk(node, 0, 500, 1000)
        assert plan.source is DataSource.TERTIARY
        assert (plan.start, plan.end) == (0, 500)


class TestRemoteAccessCounter:
    def test_promotes_on_third_access(self):
        counter = RemoteAccessCounter(threshold=3)
        assert counter.register(0, 10).measure() == 0
        assert counter.register(0, 10).measure() == 0
        promoted = counter.register(0, 10)
        assert promoted.pairs() == [(0, 10)]

    def test_partial_overlap_promotes_only_hot_part(self):
        counter = RemoteAccessCounter(threshold=2)
        counter.register(0, 10)
        promoted = counter.register(5, 15)
        assert promoted.pairs() == [(5, 10)]

    def test_access_count_at(self):
        counter = RemoteAccessCounter(threshold=3)
        counter.register(0, 10)
        counter.register(0, 5)
        assert counter.access_count_at(2) == 2
        assert counter.access_count_at(7) == 1
        assert counter.access_count_at(50) == 0

    def test_threshold_one_promotes_immediately(self):
        counter = RemoteAccessCounter(threshold=1)
        assert counter.register(3, 7).pairs() == [(3, 7)]

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            RemoteAccessCounter(threshold=0)

    def test_saturated_extents_promote_only_once(self):
        counter = RemoteAccessCounter(threshold=2)
        counter.register(0, 10)
        assert counter.register(0, 10).measure() == 10
        # Further accesses stay at the top level without re-promoting:
        # §4.2 replicates a data item once, on its threshold-th access.
        assert counter.register(0, 10).measure() == 0
        assert counter.access_count_at(5) == 2

    @settings(max_examples=60)
    @given(
        st.lists(
            st.tuples(st.integers(0, 50), st.integers(1, 20)), max_size=10
        ),
        st.integers(1, 4),
    )
    def test_count_never_exceeds_accesses(self, accesses, threshold):
        counter = RemoteAccessCounter(threshold=threshold)
        seen = {}
        for start, length in accesses:
            counter.register(start, start + length)
            for point in range(start, start + length):
                seen[point] = seen.get(point, 0) + 1
        for point, count in seen.items():
            assert counter.access_count_at(point) == min(count, threshold)


class _LevelSetCounter:
    """The level-set counter the count map replaced: ``levels[i]`` holds
    the extents accessed exactly ``i + 1`` times (the top level: at least
    ``threshold`` times)."""

    def __init__(self, threshold):
        self.threshold = threshold
        self._levels = [IntervalSet() for _ in range(threshold)]

    def register(self, interval):
        if interval.empty:
            return IntervalSet()
        remaining = IntervalSet([interval])
        promoted = IntervalSet()
        for level in range(self.threshold - 1, -1, -1):
            at_level = self._levels[level].intersection(remaining)
            if not at_level:
                continue
            self._levels[level] = self._levels[level].difference(at_level)
            new_level = min(level + 1, self.threshold - 1)
            self._levels[new_level] = self._levels[new_level].union(at_level)
            if new_level == self.threshold - 1 and level == self.threshold - 2:
                promoted = promoted.union(at_level)
            remaining = remaining.difference(at_level)
        if remaining:
            if self.threshold == 1:
                promoted = promoted.union(remaining)
            self._levels[0] = self._levels[0].union(remaining)
        return promoted

    def access_count_at(self, point):
        for level in range(self.threshold - 1, -1, -1):
            if self._levels[level].contains_point(point):
                return level + 1
        return 0


def _assert_canonical(counter):
    """Runs sorted and disjoint, counts in 1..threshold, no two abutting
    runs with equal count — checked independently of
    ``check_invariants``."""
    runs = list(zip(counter._starts, counter._ends, counter._values))
    for start, end, count in runs:
        assert start < end
        assert 1 <= count <= counter.threshold
    for (_, end, count), (start, _, next_count) in zip(runs, runs[1:]):
        assert end <= start
        assert not (end == start and count == next_count)
    counter.check_invariants()


#: Interval sequences rich in the shapes that split and merge runs: empty
#: intervals, repeats of the previous one, and pieces nested inside,
#: abutting or overlapping it.
@st.composite
def access_sequences(draw):
    accesses = []
    for _ in range(draw(st.integers(0, 14))):
        shape = draw(
            st.sampled_from(
                ["fresh", "empty", "repeat", "nested", "abut", "overlap"]
            )
        )
        if not accesses or shape == "fresh":
            start = draw(st.integers(0, 60))
            accesses.append(Interval(start, start + draw(st.integers(1, 20))))
            continue
        last = accesses[-1]
        if shape == "empty":
            point = draw(st.integers(0, 60))
            accesses.append(Interval(point, point))
        elif shape == "repeat":
            accesses.append(last)
        elif shape == "nested" and last.length > 0:
            start = draw(st.integers(last.start, last.end - 1))
            accesses.append(Interval(start, draw(st.integers(start + 1, last.end))))
        elif shape == "abut":
            if draw(st.booleans()):
                accesses.append(Interval(last.end, last.end + draw(st.integers(1, 10))))
            else:
                start = max(0, last.start - draw(st.integers(1, 10)))
                accesses.append(Interval(start, last.start))
        else:
            start = draw(st.integers(max(0, last.start - 10), last.end))
            accesses.append(Interval(start, max(start, last.end) + draw(st.integers(1, 10))))
    return accesses


class TestCountMapAgainstLevelSets:
    """The count map answers every call exactly as the level sets did."""

    @settings(max_examples=300, deadline=None)
    @given(access_sequences(), st.integers(1, 4))
    def test_same_promotions_and_counts(self, accesses, threshold):
        counter = RemoteAccessCounter(threshold=threshold)
        oracle = _LevelSetCounter(threshold)
        for interval in accesses:
            promoted = counter.register(interval.start, interval.end)
            expected = oracle.register(interval)
            assert promoted.pairs() == expected.pairs()
            promoted.check_invariants()
            _assert_canonical(counter)
            for point in range(-1, 92):
                assert counter.access_count_at(point) == oracle.access_count_at(point)

    def test_abutting_equal_runs_merge(self):
        counter = RemoteAccessCounter(threshold=3)
        counter.register(0, 10)
        counter.register(10, 20)
        assert list(zip(counter._starts, counter._ends, counter._values)) == [
            (0, 20, 1)
        ]
        counter.register(0, 20)
        counter.register(5, 15)
        assert list(zip(counter._starts, counter._ends, counter._values)) == [
            (0, 5, 2), (5, 15, 3), (15, 20, 2)
        ]

    def test_check_invariants_flags_unmerged_runs(self):
        counter = RemoteAccessCounter(threshold=3)
        counter._starts[:] = [0, 10]
        counter._ends[:] = [10, 20]
        counter._values[:] = [1, 1]
        with pytest.raises(InvariantViolation):
            counter.check_invariants()

    def test_check_invariants_flags_count_above_threshold(self):
        counter = RemoteAccessCounter(threshold=2)
        counter._starts[:] = [0]
        counter._ends[:] = [10]
        counter._values[:] = [3]
        with pytest.raises(InvariantViolation):
            counter.check_invariants()


# -- oracle: the Interval formulation the int planners replaced ----------------------


def _cached_prefix(cache, remaining):
    """The cached run of ``remaining`` starting at its first event, as an
    :class:`Interval` (empty when that event is not cached)."""
    parts = list(cache.cached_parts(remaining))
    if parts and parts[0].start == remaining.start:
        return parts[0]
    return Interval(remaining.start, remaining.start)


def _uncached_prefix(cache, remaining):
    """The uncached run of ``remaining`` starting at its first event."""
    parts = list(cache.cached_parts(remaining))
    return Interval(remaining.start, parts[0].start if parts else remaining.end)


def _interval_plan(planner, node, peers, remaining, max_events):
    """``(start, end, source, owner)`` as the planners computed it on
    :class:`Interval`: ``cached_prefix(remaining).take_left(max)``, else
    ``uncached_prefix(remaining).take_left(max)`` resolved by the longest
    peer prefix, lowest id first, for remote reads."""
    if not planner.use_cache:
        chunk = remaining.take_left(max_events)
        return chunk.start, chunk.end, DataSource.TERTIARY, None
    prefix = _cached_prefix(node.cache, remaining)
    if not prefix.empty:
        chunk = prefix.take_left(max_events)
        return chunk.start, chunk.end, DataSource.CACHE, None
    miss = _uncached_prefix(node.cache, remaining).take_left(max_events)
    if isinstance(planner, RemoteReadPlanner):
        best, owner = Interval(miss.start, miss.start), None
        for peer in peers:
            if peer is not node:
                prefix = _cached_prefix(peer.cache, miss)
                if prefix.length > best.length:
                    best, owner = prefix, peer
        if owner is not None:
            return best.start, best.end, DataSource.REMOTE, owner
    return miss.start, miss.end, DataSource.TERTIARY, None


@st.composite
def cache_fills(draw):
    """Per node, ``(start, length)`` inserts into a small cache, so later
    inserts evict earlier ones.  Each insert gets its own stamp, so
    abutting extents stay apart and no insert coalesces into a protected
    neighbour (the over-capacity case pinned in ``tests/test_cache.py``)."""
    return [
        draw(st.lists(st.tuples(st.integers(0, 120), st.integers(1, 40)), max_size=6))
        for _ in range(3)
    ]


class TestIntPlannersAgainstIntervalFormulation:
    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from([CachingPlanner, NoCachePlanner, RemoteReadPlanner]),
        cache_fills(),
        st.integers(0, 3),
        st.integers(0, 150),
        st.integers(1, 60),
        st.integers(1, 80),
    )
    def test_same_chunk_plan(self, planner_cls, fills, reader, start, length, max_events):
        space = DataSpace(total_events=1_000, event_bytes=600 * units.KB)
        planner = planner_cls(TertiaryStorage(space))
        engine = Engine()
        nodes = [
            Node(
                node_id=i,
                engine=engine,
                cache=LRUSegmentCache(60),
                cost_model=CostModel.from_hardware(600 * units.KB),
                planner=planner,
            )
            for i in range(4)
        ]
        if isinstance(planner, RemoteReadPlanner):
            planner.set_peers(nodes)
        for node, inserts in zip(nodes, fills):
            for stamp, (a, n) in enumerate(inserts):
                node.cache.insert(a, a + n, now=float(stamp))
        node = nodes[reader]
        plan = planner.plan_chunk(node, start, start + length, max_events)
        assert (plan.start, plan.end, plan.source, plan.owner) == _interval_plan(
            planner, node, nodes, Interval(start, start + length), max_events
        )


class TestRemoteReadPlanner:
    def test_miss_served_remotely_when_peer_caches(self, space):
        engine, nodes, planner, tertiary = build_pair(space)
        nodes[1].cache.insert(0, 300, now=0.0)
        plan = planner.plan_chunk(nodes[0], 0, 200, 1000)
        assert plan.source is DataSource.REMOTE
        assert plan.owner is nodes[1]
        assert (plan.start, plan.end) == (0, 200)

    def test_miss_falls_back_to_tertiary(self, space):
        engine, nodes, planner, _ = build_pair(space)
        plan = planner.plan_chunk(nodes[0], 0, 200, 1000)
        assert plan.source is DataSource.TERTIARY

    def test_local_cache_preferred_over_remote(self, space):
        engine, nodes, planner, _ = build_pair(space)
        nodes[0].cache.insert(0, 100, now=0.0)
        nodes[1].cache.insert(0, 300, now=0.0)
        plan = planner.plan_chunk(nodes[0], 0, 200, 1000)
        assert plan.source is DataSource.CACHE
        assert (plan.start, plan.end) == (0, 100)

    def test_remote_read_runs_at_remote_rate_and_counts(self, space):
        engine, nodes, planner, tertiary = build_pair(space)
        nodes[1].cache.insert(0, 100, now=0.0)
        subjob = make_subjob(0, 100)
        nodes[0].start(subjob)
        engine.run()
        assert engine.now == pytest.approx(100 * 0.2648)
        assert planner.stats.remote_events == 100
        assert tertiary.stats.events_read == 0
        # First remote access: not replicated yet.
        assert nodes[0].cache.used_events == 0

    def test_replication_on_third_access(self, space):
        engine, nodes, planner, _ = build_pair(space)
        nodes[1].cache.insert(0, 100, now=0.0)
        for _ in range(3):
            subjob = make_subjob(0, 100)
            nodes[0].start(subjob)
            engine.run()
        assert planner.stats.replication_events >= 1
        assert planner.stats.replicated_events == 100
        assert nodes[0].cache.covers(Interval(0, 100))

    def test_replication_disabled(self, space):
        engine, nodes, planner, _ = build_pair(
            space, replication_enabled=False
        )
        nodes[1].cache.insert(0, 100, now=0.0)
        for _ in range(4):
            subjob = make_subjob(0, 100)
            nodes[0].start(subjob)
            engine.run()
        assert planner.stats.replication_events == 0
        assert nodes[0].cache.used_events == 0
        assert planner.stats.remote_events == 400

    def test_remote_reads_touch_owner_lru(self, space):
        engine, nodes, planner, _ = build_pair(space)
        nodes[1].cache.insert(0, 100, now=0.0)
        subjob = make_subjob(0, 100)
        nodes[0].start(subjob)
        engine.run()
        stamps = [stamp for _, stamp in nodes[1].cache]
        assert max(stamps) > 0.0
