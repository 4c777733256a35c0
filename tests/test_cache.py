"""Tests for the LRU segment cache.

Includes a hypothesis property suite comparing the extent-granular cache
against a reference model: a dict of event → last-access time with
pointwise LRU eviction; an oracle suite holding the one-walk
re-stamping to the carve-and-merge cache it replaced, extent for extent,
stamp for stamp and in LRU eviction order; and one holding the touch and
insert fast paths to the general walk, heap entry for heap entry.
"""

import heapq
import random
from bisect import bisect_left, bisect_right, insort

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import CacheError, InvariantViolation
from repro.data.cache import _HEAP_SLACK, CacheStats, LRUSegmentCache, _Extent
from repro.data.intervals import Interval, IntervalSet


class TestBasics:
    def test_insert_and_query(self):
        cache = LRUSegmentCache(100)
        cache.insert(10, 30, now=1.0)
        assert cache.used_events == 20
        assert cache.covers(Interval(10, 30))
        assert cache.covers(Interval(15, 25))
        assert not cache.covers(Interval(5, 15))
        assert cache.cached_events(0, 100) == 20

    def test_cached_parts(self):
        cache = LRUSegmentCache(100)
        cache.insert(0, 10, now=1.0)
        cache.insert(20, 30, now=2.0)
        parts = cache.cached_parts(Interval(5, 25))
        assert parts.pairs() == [(5, 10), (20, 25)]

    def test_zero_capacity_accepts_nothing(self):
        cache = LRUSegmentCache(0)
        cache.insert(0, 10, now=1.0)
        assert cache.used_events == 0

    def test_negative_capacity_raises(self):
        with pytest.raises(CacheError):
            LRUSegmentCache(-1)

    def test_empty_insert_is_noop(self):
        cache = LRUSegmentCache(10)
        cache.insert(5, 5, now=1.0)
        assert cache.used_events == 0

    def test_overwrite_same_range_keeps_size(self):
        cache = LRUSegmentCache(100)
        cache.insert(0, 50, now=1.0)
        cache.insert(0, 50, now=2.0)
        assert cache.used_events == 50
        cache.validate()

    def test_oversized_insert_keeps_rightmost(self):
        cache = LRUSegmentCache(10)
        cache.insert(0, 100, now=1.0)
        assert cache.coverage.pairs() == [(90, 100)]

    def test_free_events(self):
        cache = LRUSegmentCache(100)
        cache.insert(0, 30, now=1.0)
        assert cache.free_events == 70


class TestLRUEviction:
    def test_oldest_evicted_first(self):
        cache = LRUSegmentCache(100)
        cache.insert(0, 60, now=1.0)
        cache.insert(100, 160, now=2.0)
        # 20 events over capacity: the leftmost 20 of the older extent go.
        assert cache.used_events == 100
        assert not cache.contains_point(0)
        assert cache.contains_point(20)
        assert cache.covers(Interval(100, 160))

    def test_touch_protects_from_eviction(self):
        cache = LRUSegmentCache(100)
        cache.insert(0, 50, now=1.0)
        cache.insert(100, 150, now=2.0)
        cache.touch(0, 50, now=3.0)  # refresh the older extent
        cache.insert(200, 250, now=4.0)
        assert cache.covers(Interval(0, 50))  # survived
        assert not cache.covers(Interval(100, 150))  # evicted instead

    def test_partial_eviction_keeps_rightmost_of_lru(self):
        cache = LRUSegmentCache(100)
        cache.insert(0, 80, now=1.0)
        cache.insert(100, 140, now=2.0)
        # 20 over: LRU extent loses its *left* 20 events.
        assert cache.coverage.pairs() == [(20, 80), (100, 140)]

    def test_freshly_inserted_never_self_evicts(self):
        cache = LRUSegmentCache(100)
        cache.insert(0, 100, now=1.0)
        cache.insert(200, 260, now=1.0)  # same timestamp tie
        assert cache.covers(Interval(200, 260))
        assert cache.used_events == 100

    def test_invalidate(self):
        cache = LRUSegmentCache(100)
        cache.insert(0, 50, now=1.0)
        dropped = cache.invalidate(10, 20)
        assert dropped == 10
        assert cache.coverage.pairs() == [(0, 10), (20, 50)]

    def test_clear(self):
        cache = LRUSegmentCache(100)
        cache.insert(0, 50, now=1.0)
        cache.clear()
        assert cache.used_events == 0
        assert not cache.coverage


class TestPrefixQueries:
    def test_cached_prefix_hit(self):
        cache = LRUSegmentCache(1000)
        cache.insert(0, 50, now=1.0)
        assert cache.cached_prefix(10, 100) == 50

    def test_cached_prefix_miss(self):
        cache = LRUSegmentCache(1000)
        cache.insert(20, 50, now=1.0)
        assert cache.cached_prefix(0, 100) == 0

    def test_cached_prefix_spans_abutting_extents(self):
        cache = LRUSegmentCache(1000)
        cache.insert(0, 50, now=1.0)
        cache.insert(50, 90, now=2.0)  # different stamp: no merge
        assert cache.extent_count() == 2
        assert cache.cached_prefix(0, 100) == 90

    def test_cached_prefix_clipped_to_interval(self):
        cache = LRUSegmentCache(1000)
        cache.insert(0, 100, now=1.0)
        assert cache.cached_prefix(10, 40) == 40

    def test_uncached_prefix(self):
        cache = LRUSegmentCache(1000)
        cache.insert(30, 60, now=1.0)
        assert cache.uncached_prefix(0, 100) == 30
        assert cache.uncached_prefix(30, 100) == 30
        assert cache.uncached_prefix(60, 100) == 100

    def test_empty_interval_prefixes(self):
        cache = LRUSegmentCache(1000)
        assert cache.cached_prefix(5, 5) == 5
        assert cache.uncached_prefix(5, 5) == 5


class TestCoalescing:
    def test_same_timestamp_neighbours_merge(self):
        cache = LRUSegmentCache(1000)
        cache.insert(0, 50, now=1.0)
        cache.insert(50, 90, now=1.0)
        assert cache.extent_count() == 1

    def test_different_timestamp_neighbours_stay_split(self):
        cache = LRUSegmentCache(1000)
        cache.insert(0, 50, now=1.0)
        cache.insert(50, 90, now=2.0)
        assert cache.extent_count() == 2

    def test_touch_splits_extent(self):
        cache = LRUSegmentCache(1000)
        cache.insert(0, 90, now=1.0)
        cache.touch(30, 60, now=5.0)
        assert cache.used_events == 90
        # Now three extents with stamps 1.0 / 5.0 / 1.0.
        assert cache.extent_count() == 3
        cache.validate()

    def test_stats(self):
        cache = LRUSegmentCache(50)
        cache.insert(0, 40, now=1.0)
        cache.insert(100, 140, now=2.0)
        cache.touch(100, 120, now=3.0)
        assert cache.stats.inserted_events == 80
        assert cache.stats.evicted_events == 30
        assert cache.stats.touched_events == 20


# -- property suite vs a pointwise reference model ---------------------------------


class _ReferenceCache:
    """Pointwise LRU model: event → last access time."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.stamps = {}
        self.counter = 0  # insertion order tiebreak

    def insert(self, start: int, end: int, now: float) -> None:
        if self.capacity == 0 or end <= start:
            return
        points = list(range(start, end))[-self.capacity:]
        for point in points:
            self.counter += 1
            self.stamps[point] = (now, self.counter)
        self._evict(protect=set(points))

    def touch(self, start: int, end: int, now: float) -> None:
        for point in range(start, end):
            if point in self.stamps:
                self.counter += 1
                self.stamps[point] = (now, self.counter)

    def _evict(self, protect) -> None:
        while len(self.stamps) > self.capacity:
            victim = min(
                (p for p in self.stamps if p not in protect),
                key=lambda p: self.stamps[p],
            )
            del self.stamps[victim]

    def points(self) -> set:
        return set(self.stamps)


@st.composite
def cache_ops(draw):
    op = draw(st.sampled_from(["insert", "touch"]))
    start = draw(st.integers(0, 80))
    length = draw(st.integers(1, 30))
    return (op, Interval(start, start + length))


class TestAgainstReferenceModel:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(10, 60), st.lists(cache_ops(), max_size=12))
    def test_coverage_and_occupancy_match(self, capacity, operations):
        cache = LRUSegmentCache(capacity)
        now = 0.0
        for op, interval in operations:
            now += 1.0
            if op == "insert":
                cache.insert(interval.start, interval.end, now)
            else:
                cache.touch(interval.start, interval.end, now)
            cache.validate()
        # Exact pointwise-LRU equivalence is not required (the extent cache
        # evicts at sub-extent granularity with its own tie-breaks), but the
        # occupancy accounting must be exact and coverage must be a subset
        # of everything ever inserted.
        assert cache.used_events <= capacity
        assert cache.used_events == cache.coverage.measure()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(cache_ops(), max_size=12))
    def test_unbounded_cache_matches_reference_exactly(self, operations):
        """With capacity >= universe, no eviction happens: coverage must
        equal the reference model's point set exactly."""
        cache = LRUSegmentCache(10_000)
        reference = _ReferenceCache(10_000)
        now = 0.0
        for op, interval in operations:
            now += 1.0
            getattr(cache, op)(interval.start, interval.end, now)
            getattr(reference, op)(interval.start, interval.end, now)
        points = set()
        for extent, _stamp in cache:
            points |= set(extent)
        assert points == reference.points()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(5, 40), st.lists(cache_ops(), min_size=1, max_size=10))
    def test_last_insert_always_present(self, capacity, operations):
        cache = LRUSegmentCache(capacity)
        now = 0.0
        last_insert = None
        for op, interval in operations:
            now += 1.0
            getattr(cache, op)(interval.start, interval.end, now)
            if op == "insert":
                last_insert = (interval, now)
        if last_insert is None:
            return
        interval, _ = last_insert
        kept = interval if interval.length <= capacity else Interval(
            interval.end - capacity, interval.end
        )
        assert cache.covers(kept)


# -- oracle: the carve-and-merge cache the one-walk re-stamping replaced ------------


class _OracleExtent:
    """The oracle's extent record: the cache's old ``_Extent``, which held
    a frozen :class:`Interval`."""

    __slots__ = ("interval", "last_access", "alive")

    def __init__(self, interval: Interval, last_access: float) -> None:
        self.interval = interval
        self.last_access = last_access
        self.alive = True

    @property
    def start(self) -> int:
        return self.interval.start

    @property
    def end(self) -> int:
        return self.interval.end


class _CarveAndMergeCache:
    """The historical mutation side of :class:`LRUSegmentCache`, kept
    verbatim as a test oracle: every touched, inserted or invalidated
    range is carved out extent by extent (each leftover re-added through
    a bisect merge loop, an ``insort`` and a heap push), then the range
    itself is added and merged with identically-stamped neighbours.  Its
    public methods take the cache's ``(start, end)`` bounds and run on
    :class:`Interval` inside, as the cache once did."""

    def __init__(self, capacity_events: int) -> None:
        self.capacity_events = capacity_events
        self._starts = []
        self._by_start = {}
        self._lru_heap = []
        self._used = 0
        self._tiebreak = 0
        self.stats = CacheStats()

    @property
    def used_events(self) -> int:
        return self._used

    def __iter__(self):
        for start in self._starts:
            extent = self._by_start[start]
            yield extent.interval, extent.last_access

    def cached_parts(self, interval: Interval) -> IntervalSet:
        result = IntervalSet()
        for extent in self._overlapping(interval):
            result.add(extent.interval.intersection(interval))
        return result

    def insert(self, start: int, end: int, now: float) -> None:
        interval = Interval(start, end)
        if interval.empty or self.capacity_events == 0:
            return
        if interval.end - interval.start > self.capacity_events:
            interval = Interval(interval.end - self.capacity_events, interval.end)
        self.stats.inserted_events += interval.end - interval.start
        self._carve(interval)
        self._add_extent(interval, now)
        self._evict_to_fit(protect=interval)

    def touch(self, start: int, end: int, now: float) -> None:
        parts = self.cached_parts(Interval(start, end))
        for part in parts:
            self.stats.touched_events += part.length
            self._carve(part)
            self._add_extent(part, now)

    def invalidate(self, start: int, end: int) -> int:
        before = self._used
        self._carve(Interval(start, end))
        dropped = before - self._used
        self.stats.dropped_events += dropped
        return dropped

    def _overlapping(self, interval: Interval):
        if interval.empty or not self._starts:
            return []
        result = []
        index = max(bisect_right(self._starts, interval.start) - 1, 0)
        while index < len(self._starts):
            start = self._starts[index]
            if start >= interval.end:
                break
            extent = self._by_start[start]
            if extent.interval.end > interval.start:
                result.append(extent)
            index += 1
        return result

    def _carve(self, interval: Interval) -> None:
        for extent in self._overlapping(interval):
            self._drop_extent(extent)
            for piece in extent.interval.subtract(interval):
                self._add_extent(piece, extent.last_access)

    def _add_extent(self, interval: Interval, last_access: float) -> None:
        if interval.empty:
            return
        interval = self._try_merge(interval, last_access)
        extent = _OracleExtent(interval, last_access)
        insort(self._starts, interval.start)
        self._by_start[interval.start] = extent
        self._tiebreak += 1
        heapq.heappush(self._lru_heap, (last_access, self._tiebreak, extent))
        self._used += interval.length

    def _try_merge(self, interval: Interval, last_access: float) -> Interval:
        changed = True
        while changed:
            changed = False
            index = bisect_left(self._starts, interval.end)
            if index < len(self._starts) and self._starts[index] == interval.end:
                right = self._by_start[self._starts[index]]
                if right.last_access == last_access:
                    self._drop_extent(right)
                    interval = Interval(interval.start, right.interval.end)
                    changed = True
            index = bisect_left(self._starts, interval.start) - 1
            if index >= 0:
                left = self._by_start[self._starts[index]]
                if left.interval.end == interval.start and left.last_access == last_access:
                    self._drop_extent(left)
                    interval = Interval(left.interval.start, interval.end)
                    changed = True
        return interval

    def _drop_extent(self, extent) -> None:
        del self._by_start[extent.interval.start]
        del self._starts[bisect_left(self._starts, extent.interval.start)]
        extent.alive = False
        self._used -= extent.interval.length

    def _evict_to_fit(self, protect: Interval) -> None:
        stash = []
        while self._used > self.capacity_events:
            if not self._lru_heap:
                raise CacheError("cache accounting corrupt: over capacity with empty LRU")
            entry = heapq.heappop(self._lru_heap)
            extent = entry[2]
            if not extent.alive:
                continue
            if extent.interval.overlaps(protect):
                stash.append(entry)
                continue
            excess = self._used - self.capacity_events
            if extent.interval.length > excess:
                keep = Interval(extent.interval.start + excess, extent.interval.end)
                stamp = extent.last_access
                self._drop_extent(extent)
                self.stats.evicted_events += excess
                self._add_extent(keep, stamp)
            else:
                self.stats.evicted_events += extent.interval.length
                self._drop_extent(extent)
        for entry in stash:
            heapq.heappush(self._lru_heap, entry)


def _drain_order(cache):
    """Live extents in the order eviction would take them: live heap
    entries sorted by ``(stamp, tiebreak)``."""
    live = sorted(
        (stamp, tiebreak, Interval(extent.start, extent.end))
        for stamp, tiebreak, extent in cache._lru_heap
        if extent.alive
    )
    return [(interval, stamp) for stamp, _tiebreak, interval in live]


def _assert_same_state(cache, oracle):
    assert list(cache) == list(oracle)
    assert cache.stats == oracle.stats
    assert cache.used_events == oracle.used_events
    assert _drain_order(cache) == _drain_order(oracle)
    cache.validate()


def _apply(cache, op, interval, now):
    """The operation's return value, or ``CacheError`` if it raised.

    An insert stamped like an abutting extent coalesces with it, and the
    merged extent is protected from eviction as a whole; when nothing
    else can be evicted, both caches raise alike."""
    try:
        if op == "invalidate":
            return cache.invalidate(interval.start, interval.end)
        if op == "clear":
            return cache.clear()
        return getattr(cache, op)(interval.start, interval.end, now)
    except CacheError:
        return CacheError


@st.composite
def oracle_ops(draw):
    op = draw(st.sampled_from(["insert", "touch", "invalidate"]))
    start = draw(st.integers(0, 60))
    length = draw(st.integers(0, 25))
    # Half the operations reuse the previous stamp, so equal-stamp
    # coalescing (leftovers and neighbours stamped ``now``) is exercised.
    step = draw(st.sampled_from([0.0, 1.0]))
    return (op, Interval(start, start + length), step)


class TestAgainstCarveAndMerge:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 40), st.lists(oracle_ops(), max_size=30))
    def test_every_operation_matches(self, capacity, operations):
        cache = LRUSegmentCache(capacity)
        oracle = _CarveAndMergeCache(capacity)
        now = 0.0
        for op, interval, step in operations:
            now += step
            outcome = _apply(cache, op, interval, now)
            assert outcome == _apply(oracle, op, interval, now)
            if outcome is CacheError:
                return
            _assert_same_state(cache, oracle)

    def test_protected_merge_over_capacity_raises_alike(self):
        cache = LRUSegmentCache(1)
        oracle = _CarveAndMergeCache(1)
        for target in (cache, oracle):
            target.insert(0, 1, now=0.0)
            with pytest.raises(CacheError, match="over capacity"):
                target.insert(0, 2, now=0.0)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(oracle_ops(), max_size=20),
        st.lists(st.tuples(st.integers(0, 90), st.integers(0, 40)), max_size=8),
    )
    def test_prefix_queries_follow_coverage(self, operations, queries):
        cache = LRUSegmentCache(40)
        now = 0.0
        for op, interval, step in operations:
            now += step
            if _apply(cache, op, interval, now) is CacheError:
                break
        coverage = cache.coverage.pairs()
        for start, length in queries:
            query = Interval(start, start + length)
            end = next((e for s, e in coverage if s <= start < e), start)
            assert cache.cached_prefix(start, query.end) == max(start, min(end, query.end))
            first = next((s for s, e in coverage if e > start), query.end)
            uncached_end = start if first <= start else min(first, query.end)
            assert cache.uncached_prefix(start, query.end) == uncached_end

    @pytest.mark.parametrize("seed", range(4))
    def test_long_random_walk_matches(self, seed):
        rng = random.Random(seed)
        cache = LRUSegmentCache(300)
        oracle = _CarveAndMergeCache(300)
        now = 0.0
        for _ in range(3000):
            op = rng.choice(["insert", "touch", "touch", "invalidate"])
            start = rng.randrange(0, 1000)
            interval = Interval(start, start + rng.randrange(0, 120))
            now += rng.choice([0.0, 1.0])
            assert _apply(cache, op, interval, now) == _apply(oracle, op, interval, now)
            assert list(cache) == list(oracle)
        _assert_same_state(cache, oracle)

    def test_split_leftovers_evict_in_push_order(self):
        """Touching the middle of E leaves L and R at one stamp; touching
        inside L then splits it again.  R's heap entry is older than both
        pieces of L, so R goes first — shrinking L in place (keeping its
        old entry) would evict L's left piece first instead."""
        cache = LRUSegmentCache(100)
        oracle = _CarveAndMergeCache(100)
        for target in (cache, oracle):
            target.insert(0, 100, now=1.0)
            target.touch(40, 60, now=2.0)
            target.touch(10, 20, now=3.0)
        assert _drain_order(cache)[:3] == [
            (Interval(60, 100), 1.0),
            (Interval(0, 10), 1.0),
            (Interval(20, 40), 1.0),
        ]
        _assert_same_state(cache, oracle)
        for target in (cache, oracle):
            target.insert(200, 240, now=4.0)
        assert cache.coverage.pairs() == [(0, 60), (200, 240)]
        _assert_same_state(cache, oracle)

    def test_leftover_stamped_now_coalesces_into_the_part(self):
        cache = LRUSegmentCache(100)
        oracle = _CarveAndMergeCache(100)
        for target in (cache, oracle):
            target.insert(0, 30, now=1.0)
            target.insert(30, 60, now=2.0)
            target.touch(10, 40, now=2.0)
        assert list(cache) == [(Interval(0, 10), 1.0), (Interval(10, 60), 2.0)]
        _assert_same_state(cache, oracle)


# -- the LRU heap bound ---------------------------------------------------------------


class TestHeapBound:
    """Only eviction pops stale heap entries, so a cache that never fills
    must compact its heap itself."""

    def test_touches_of_a_cache_that_never_fills_keep_the_heap_bounded(self):
        cache = LRUSegmentCache(1_000_000)
        cache.insert(0, 1000, now=0.0)
        rng = random.Random(5)
        for step in range(1, 10_001):
            start = rng.randrange(0, 1000)
            cache.touch(start, start + rng.randrange(1, 20), now=float(step))
        assert cache.free_events > 0
        assert len(cache._lru_heap) <= 2 * cache.extent_count() + _HEAP_SLACK
        cache.validate()

    def test_validate_flags_an_uncompacted_heap(self):
        cache = LRUSegmentCache(1000)
        cache.insert(0, 10, now=1.0)
        dead = _Extent(20, 30, 2.0)
        dead.alive = False
        cache._lru_heap.extend((2.0, 100 + i, dead) for i in range(_HEAP_SLACK + 2))
        with pytest.raises(InvariantViolation, match="not compacted"):
            cache.validate()

    def test_compaction_keeps_the_eviction_order(self):
        """Touch a cache that never fills until its heap has been
        compacted many times, then fill it: it evicts exactly as the
        carve-and-merge oracle, whose heap is never compacted."""
        cache = LRUSegmentCache(2000)
        oracle = _CarveAndMergeCache(2000)
        rng = random.Random(11)
        now = 0.0
        for target in (cache, oracle):
            target.insert(0, 1000, now=now)
        for _ in range(3000):
            now += rng.choice([0.0, 1.0])
            start = rng.randrange(0, 1000)
            interval = Interval(start, start + rng.randrange(1, 30))
            for target in (cache, oracle):
                target.touch(interval.start, interval.end, now)
        assert len(cache._lru_heap) < len(oracle._lru_heap) // 2
        _assert_same_state(cache, oracle)
        for step in range(20):
            now += 1.0
            interval = Interval(2000 + 100 * step, 2100 + 100 * step)
            for target in (cache, oracle):
                target.insert(interval.start, interval.end, now)
            _assert_same_state(cache, oracle)


# -- the re-stamp fast paths against the general walk ---------------------------------


class _GeneralWalkCache(LRUSegmentCache):
    """The cache with its fast paths disabled: every touch and insert
    goes through the general re-stamp walk."""

    _stamp = LRUSegmentCache._restamp


def _heap_state(cache):
    """The LRU heap as it lies, entry for entry: the pop order of equal
    stamps follows the tiebreaks, so fast paths must push alike."""
    return [
        (stamp, tiebreak, extent.start, extent.end, extent.alive)
        for stamp, tiebreak, extent in cache._lru_heap
    ]


@st.composite
def walk_ops(draw):
    op = draw(st.sampled_from(["insert"] * 4 + ["touch"] * 4 + ["invalidate", "clear"]))
    # Mostly whole cells of ten events, so abutting extents and
    # whole-extent touches are common; half-cell offsets and other
    # lengths give partial overlaps.
    start = 10 * draw(st.integers(0, 3)) + draw(st.sampled_from([0, 0, 0, 0, 5]))
    length = draw(st.sampled_from([10] * 5 + [0, 5, 20]))
    # Repeated stamps exercise the neighbour-stamped-``now`` guards.
    step = draw(st.sampled_from([0.0, 0.0, 0.0, 1.0, 2.5]))
    return (op, Interval(start, start + length), step)


class TestFastPathsAgainstGeneralWalk:
    @settings(max_examples=400, deadline=None)
    @given(st.integers(1, 50), st.lists(walk_ops(), min_size=10, max_size=40))
    def test_every_operation_matches(self, capacity, operations):
        cache = LRUSegmentCache(capacity)
        walk = _GeneralWalkCache(capacity)
        now = 0.0
        for op, interval, step in operations:
            now += step
            outcome = _apply(cache, op, interval, now)
            assert outcome == _apply(walk, op, interval, now)
            if outcome is CacheError:
                return
            assert list(cache) == list(walk)
            assert cache.stats == walk.stats
            assert cache.used_events == walk.used_events
            assert _heap_state(cache) == _heap_state(walk)
            cache.validate()
            walk.validate()
        # Drain both caches: they evict the same extents in the same order.
        for step in range(1, 2 * capacity + 1):
            for target in (cache, walk):
                target.insert(1000 + step, 1001 + step, now + step)
            assert list(cache) == list(walk)
            assert cache.stats == walk.stats

    @pytest.mark.parametrize("seed", range(3))
    def test_long_random_walk_matches(self, seed):
        rng = random.Random(seed)
        cache = LRUSegmentCache(400)
        walk = _GeneralWalkCache(400)
        now = 0.0
        for _ in range(4000):
            op = rng.choice(["insert", "touch", "touch", "touch", "invalidate"])
            start = 10 * rng.randrange(0, 100)
            interval = Interval(start, start + 10 * rng.randrange(0, 6) + rng.choice([0, 0, 3]))
            now += rng.choice([0.0, 1.0])
            assert _apply(cache, op, interval, now) == _apply(walk, op, interval, now)
        assert _heap_state(cache) == _heap_state(walk)
        assert cache.stats == walk.stats
        assert cache.stats.evicted_events > 0
        cache.validate()

    @pytest.mark.parametrize(
        "second, last, runs",
        [
            # A whole-extent touch next to an extent stamped ``now``.
            ((10, 20), ("touch", 0, 10), [(Interval(0, 20), 2.0)]),
            # A gap insert next to an extent stamped ``now``.
            ((20, 30), ("insert", 10, 20), [(Interval(0, 10), 1.0), (Interval(10, 30), 2.0)]),
        ],
    )
    def test_fast_path_shape_next_to_a_now_stamp_coalesces(self, second, last, runs):
        op, start, end = last
        for target in (LRUSegmentCache(100), _GeneralWalkCache(100)):
            target.insert(0, 10, now=1.0)
            target.insert(*second, now=2.0)
            getattr(target, op)(start, end, 2.0)
            assert list(target) == runs
            target.validate()
