"""Per-node LRU disk caches at data-segment (extent) granularity.

The paper's cache-aware policies all rest on one primitive: "which parts of
this job's data segment are currently on node *n*'s disk?".
:class:`LRUSegmentCache` answers that in O(log n) and maintains
least-recently-used eviction over variable-length extents, as prescribed in
Table 2 of the paper ("when needing new disk cache space, it deallocates
the least recently used cached segments").

Extents are half-open event ranges, held as the runs of one
:class:`~repro.data.intervals.RunMap` whose payloads are the extents' LRU
records; the map answers every query, and the cache adds only its LRU
policy.  Touching or inserting a sub-range of an existing extent splits
it, so LRU timestamps stay exact at arbitrary granularity.  Abutting
extents never share a timestamp (the map's canonical form, since extents
compare by stamp): a re-stamped range is coalesced with an
identically-stamped neighbour, which bounds fragmentation (chunked
streaming would otherwise grow the extent count linearly with simulated
time).

``touch``, ``insert`` and ``invalidate`` share one walk (``_restamp``):
each maximal abutting run of overlapping extents becomes the left leftover
of its first extent, the right leftover of its last (old stamps kept) and
the re-stamped part, written back by one map replace (the walk coalesces
them itself, so the map's seam merge has nothing to do).  Each gets a fresh
LRU heap entry in that order, which fixes how equal stamps evict.  The
heap deletes lazily, and is rebuilt from its live entries once stale ones
outnumber them, so a cache that never fills stays bounded.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from ..core.errors import CacheError, InvariantViolation
from ..obs.hooks import NULL_BUS, HookBus, kinds
from .intervals import Interval, IntervalSet, RunMap


@dataclass
class CacheStats:
    """Lifetime counters of one cache instance (events, not bytes)."""

    inserted_events: int = 0
    evicted_events: int = 0
    touched_events: int = 0
    dropped_events: int = 0  # explicitly invalidated

    def copy(self) -> "CacheStats":
        return CacheStats(
            self.inserted_events,
            self.evicted_events,
            self.touched_events,
            self.dropped_events,
        )


class _Extent:
    """One cached extent: the payload of its run in the cache's
    :class:`RunMap`, and the record its LRU heap entry points at.

    It repeats its run's bounds, so eviction, which reaches an extent
    through the heap, can find the run.  The map merges abutting runs of
    equal payload, and the cache's rule is that abutting extents never
    share a stamp, so extents compare (and print) by stamp; stamps are
    copied, never computed, so they compare exactly.  Liveness and heap
    entries go by identity.
    """

    __slots__ = ("start", "end", "last_access", "alive")

    def __init__(self, start: int, end: int, last_access: float) -> None:
        self.start = start
        self.end = end
        self.last_access = last_access
        self.alive = True

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _Extent):
            return NotImplemented
        return self.last_access == other.last_access  # simlint: disable=SIM003

    def __repr__(self) -> str:
        return f"stamp {self.last_access}"


#: Stale LRU heap entries tolerated beyond one per live extent before the
#: heap is rebuilt from its live entries.
_HEAP_SLACK = 64


class LRUSegmentCache:
    """An LRU cache over event extents with a fixed capacity in events.

    >>> cache = LRUSegmentCache(capacity_events=100)
    >>> cache.insert(0, 60, now=1.0)
    >>> cache.insert(200, 260, now=2.0)
    >>> cache.used_events
    100
    >>> cache.coverage.pairs()  # 20 LRU events of [0,60) were evicted
    [(20, 60), (200, 260)]
    """

    def __init__(
        self,
        capacity_events: int,
        obs: HookBus = NULL_BUS,
        owner_id: int = -1,
    ) -> None:
        if capacity_events < 0:
            raise CacheError(f"capacity must be >= 0, got {capacity_events}")
        self.capacity_events = int(capacity_events)
        self.obs = obs
        self.owner_id = owner_id
        #: One run per cached extent, carrying its :class:`_Extent`.
        self._runs: RunMap[_Extent] = RunMap()
        #: Lazy-deletion LRU heap of ``(last_access, tiebreak, extent)``;
        #: ``tiebreak`` is unique, so the extent itself is never compared.
        self._lru_heap: List[Tuple[float, int, _Extent]] = []
        self._used = 0
        self._tiebreak = 0
        self.stats = CacheStats()

    # -- queries ---------------------------------------------------------------

    @property
    def used_events(self) -> int:
        """Number of events currently cached."""
        return self._used

    @property
    def free_events(self) -> int:
        return self.capacity_events - self._used

    @property
    def coverage(self) -> IntervalSet:
        """The cached point set (merged extents, timestamps ignored)."""
        runs = self._runs
        if not runs:
            return IntervalSet()
        return IntervalSet.covered(runs, runs._starts[0], runs._ends[-1])

    def cached_parts(self, interval: Interval) -> IntervalSet:
        """Sub-ranges of ``interval`` present in the cache."""
        return IntervalSet.covered(self._runs, interval.start, interval.end)

    def cached_events(self, start: int, end: int) -> int:
        """Number of events of ``[start, end)`` present in the cache.

        The hot query of cache-aware placement: schedulers ask it once
        per (node, candidate) pair, passing a subjob's remaining bounds
        as plain ints rather than building an :class:`Interval`.
        """
        return self._runs.overlap(start, end)

    def covers(self, interval: Interval) -> bool:
        """True if every event of ``interval`` is cached."""
        return self.cached_events(interval.start, interval.end) == interval.length

    def contains_point(self, point: int) -> bool:
        return self._runs.value_at(point) is not None

    def cached_prefix(self, start: int, end: int) -> int:
        """End of the longest cached run of ``[start, end)`` starting
        exactly at ``start`` (``start`` itself when that event is not
        cached).

        This is the hot query of chunked execution: a node processing left
        to right asks "how far can I read from disk before hitting a miss?".
        """
        runs = self._runs
        starts = runs._starts
        ends = runs._ends
        index = bisect_right(starts, start) - 1
        reach = ends[index] if index >= 0 else start
        if reach <= start or end <= start:
            return start
        # Walk right over contiguous extents (they may abut without merging
        # when their timestamps differ).
        index += 1
        n = len(starts)
        while reach < end and index < n and starts[index] == reach:
            reach = ends[index]
            index += 1
        return reach if reach < end else end

    def uncached_prefix(self, start: int, end: int) -> int:
        """End of the longest run of ``[start, end)`` starting at
        ``start`` with no cached event (``start`` when that event is
        cached)."""
        if end <= start:
            return start
        runs = self._runs
        starts = runs._starts
        # Only the first overlapping extent bounds the prefix: either an
        # extent covering ``start`` (empty prefix) or the first extent
        # beginning inside the range.
        index = bisect_right(starts, start) - 1
        if index >= 0 and runs._ends[index] > start:
            return start
        index += 1
        if index < len(starts) and starts[index] < end:
            return starts[index]
        return end

    def extent_count(self) -> int:
        return len(self._runs)

    def __iter__(self) -> Iterator[Tuple[Interval, float]]:
        for extent in self._runs._values:
            yield Interval(extent.start, extent.end), extent.last_access

    # -- mutation ----------------------------------------------------------------

    def insert(self, start: int, end: int, now: float) -> None:
        """Cache ``[start, end)`` with access time ``now``, evicting LRU
        data.

        Ranges longer than the capacity keep only their rightmost
        ``capacity`` events — exactly what sequential streaming through a
        full cache leaves behind.
        """
        if end <= start or self.capacity_events == 0:
            return
        if end - start > self.capacity_events:
            start = end - self.capacity_events
        self.stats.inserted_events += end - start
        self._stamp(start, end, now, fill=True)
        evicted_before = self.stats.evicted_events
        self._evict_to_fit(start, end)
        if self.obs.enabled:
            evicted = self.stats.evicted_events - evicted_before
            if evicted:
                self.obs.emit(
                    now,
                    kinds.CACHE_EVICT,
                    "cache",
                    node=self.owner_id,
                    events=evicted,
                )

    def touch(self, start: int, end: int, now: float) -> None:
        """Refresh the LRU timestamp of the cached parts of ``[start, end)``."""
        self.stats.touched_events += self._stamp(start, end, now, fill=False)

    def invalidate(self, start: int, end: int) -> int:
        """Drop any cached events inside ``[start, end)``; returns count."""
        before = self._used
        self._restamp(start, end, None, fill=True)
        dropped = before - self._used
        self.stats.dropped_events += dropped
        return dropped

    def clear(self) -> None:
        self._runs = RunMap()
        self._lru_heap.clear()
        self._used = 0

    # -- internals ---------------------------------------------------------------

    def _stamp(self, start: int, end: int, now: float, fill: bool) -> int:
        """:meth:`_restamp` with ``now`` set, short-cut for its two common
        shapes when no neighbour is stamped ``now`` (nothing coalesces):
        a touch covering exactly one whole extent, re-stamped in place,
        and an insert into a gap, one new run.  Either pushes the one heap
        entry the walk would, so runs, stamps, tiebreaks and eviction
        order are the walk's; every other shape goes to the walk."""
        runs = self._runs
        starts = runs._starts
        ends = runs._ends
        extents = runs._values
        count = len(starts)
        lo = bisect_right(ends, start)
        if fill:
            if lo == count or starts[lo] >= end:
                if lo > 0 and ends[lo - 1] == start:
                    if extents[lo - 1].last_access == now:  # simlint: disable=SIM003
                        return self._restamp(start, end, now, fill)
                if lo < count and starts[lo] == end:
                    if extents[lo].last_access == now:  # simlint: disable=SIM003
                        return self._restamp(start, end, now, fill)
                starts.insert(lo, start)
                ends.insert(lo, end)
                extents.insert(lo, self._push(start, end, now))
                self._used += end - start
                if len(self._lru_heap) > 2 * len(starts) + _HEAP_SLACK:
                    self._compact_heap()
                return 0
        elif lo < count:
            head = starts[lo]
            tail = ends[lo]
            if start <= head and tail <= end and (lo + 1 == count or starts[lo + 1] >= end):
                if lo > 0 and ends[lo - 1] == head:
                    if extents[lo - 1].last_access == now:  # simlint: disable=SIM003
                        return self._restamp(start, end, now, fill)
                if lo + 1 < count and starts[lo + 1] == tail:
                    if extents[lo + 1].last_access == now:  # simlint: disable=SIM003
                        return self._restamp(start, end, now, fill)
                extents[lo].alive = False
                extents[lo] = self._push(head, tail, now)
                if len(self._lru_heap) > 2 * count + _HEAP_SLACK:
                    self._compact_heap()
                return tail - head
        return self._restamp(start, end, now, fill)

    def _restamp(
        self, query_start: int, query_end: int, now: Optional[float], fill: bool
    ) -> int:
        """Stamp ``[query_start, query_end)`` with ``now`` in one walk over
        its extents: all of it with ``fill`` (insert), else its cached runs
        (touch); ``now=None`` drops the range instead (invalidate).
        Returns the events stamped before coalescing.

        The replacement runs come out coalesced, against each other and
        against the runs around them, so they go into the map by a plain
        :meth:`RunMap.replace`: a leftover keeps the stamp its extent had,
        which differed from any abutting neighbour's, and the part absorbs
        every leftover or neighbour stamped ``now``."""
        runs = self._runs
        starts = runs._starts
        ends = runs._ends
        extents = runs._values
        lo, hi = runs.span(query_start, query_end)
        if lo == hi and (not fill or now is None):
            return 0
        bounds = [lo, hi]  # one run for a fill, else the maximal abutting runs
        if not fill and hi - lo > 1:
            bounds[1:1] = [i for i in range(lo + 1, hi) if starts[i] != ends[i - 1]]
        splice_lo = lo
        splice_hi = hi
        # The replacement runs, in start order.
        new_starts: List[int] = []
        new_ends: List[int] = []
        new_extents: List[_Extent] = []
        stamped = 0
        for run_lo, run_hi in zip(bounds, bounds[1:]):
            part_start = query_start
            part_end = query_end
            right: Optional[_Extent] = None
            if run_lo < run_hi:
                head_start = starts[run_lo]
                tail_end = ends[run_hi - 1]
                if not fill:
                    part_start = head_start if head_start > query_start else query_start
                    part_end = tail_end if tail_end < query_end else query_end
                    stamped += part_end - part_start
                # Leftovers keep their (copied, so exactly compared) stamps;
                # one stamped ``now`` is absorbed by the part.
                if head_start < query_start:
                    stamp = extents[run_lo].last_access
                    if stamp == now:  # simlint: disable=SIM003
                        part_start = head_start
                    else:
                        new_starts.append(head_start)
                        new_ends.append(query_start)
                        new_extents.append(self._push(head_start, query_start, stamp))
                if tail_end > query_end:
                    stamp = extents[run_hi - 1].last_access
                    if stamp == now:  # simlint: disable=SIM003
                        part_end = tail_end
                    else:
                        right = self._push(query_end, tail_end, stamp)
            if now is not None:
                # The part coalesces with an outer neighbour stamped ``now``.
                if run_lo == lo and lo > 0 and ends[lo - 1] == part_start:
                    if extents[lo - 1].last_access == now:  # simlint: disable=SIM003
                        part_start = starts[lo - 1]
                        splice_lo = lo - 1
                if run_hi == hi and hi < len(starts) and starts[hi] == part_end:
                    if extents[hi].last_access == now:  # simlint: disable=SIM003
                        part_end = ends[hi]
                        splice_hi = hi + 1
                new_starts.append(part_start)
                new_ends.append(part_end)
                new_extents.append(self._push(part_start, part_end, now))
            if right is not None:
                new_starts.append(query_end)
                new_ends.append(tail_end)
                new_extents.append(right)
        used = self._used + sum(new_ends) - sum(new_starts)
        for index in range(splice_lo, splice_hi):
            extents[index].alive = False
            used -= ends[index] - starts[index]
        self._used = used
        runs.replace(splice_lo, splice_hi, new_starts, new_ends, new_extents)
        if len(self._lru_heap) > 2 * len(starts) + _HEAP_SLACK:
            self._compact_heap()
        return stamped

    def _push(self, start: int, end: int, last_access: float) -> _Extent:
        """A new extent with a fresh LRU heap entry (the next tiebreak)."""
        extent = _Extent(start, end, last_access)
        tiebreak = self._tiebreak + 1
        self._tiebreak = tiebreak
        heapq.heappush(self._lru_heap, (last_access, tiebreak, extent))
        return extent

    def _compact_heap(self) -> None:
        """Rebuild the LRU heap from its live entries; called once stale
        entries outnumber live ones by ``_HEAP_SLACK``, because a cache
        that never fills never pops them.  ``(stamp, tiebreak)`` keys are
        unique, so the pop order is unchanged."""
        heap = self._lru_heap
        heap[:] = [entry for entry in heap if entry[2].alive]
        heapq.heapify(heap)

    def _evict_to_fit(self, protect_start: int, protect_end: int) -> None:
        """Evict LRU extents until within capacity, never touching the
        freshly inserted range ``[protect_start, protect_end)``.

        Evicting shrinks or removes one run and leaves a gap at its left,
        so the map stays canonical under a plain :meth:`RunMap.replace`."""
        stash: List[Tuple[float, int, _Extent]] = []
        runs = self._runs
        while self._used > self.capacity_events:
            if not self._lru_heap:
                raise CacheError("cache accounting corrupt: over capacity with empty LRU")
            entry = heapq.heappop(self._lru_heap)
            extent = entry[2]
            if not extent.alive:
                continue  # stale heap entry (lazy deletion)
            start = extent.start
            end = extent.end
            if start < protect_end and protect_start < end:
                stash.append(entry)
                continue
            index = bisect_left(runs._starts, start)
            extent.alive = False
            excess = self._used - self.capacity_events
            if end - start > excess:
                # Partial eviction: keep the rightmost part (the part a
                # sequential reader touched last) under a fresh heap entry.
                keep = self._push(start + excess, end, extent.last_access)
                runs.replace(index, index + 1, [start + excess], [end], [keep])
                self._used -= excess
                self.stats.evicted_events += excess
            else:
                runs.replace(index, index + 1, [], [], [])
                self._used -= end - start
                self.stats.evicted_events += end - start
        for entry in stash:
            heapq.heappush(self._lru_heap, entry)
        if len(self._lru_heap) > 2 * len(runs._starts) + _HEAP_SLACK:
            self._compact_heap()

    # -- validation ---------------------------------------------------------------

    def validate(self) -> None:
        """Deep sim-sanitizer check: event accounting conservation, extent
        map consistency and LRU structure validity.

        Raises :class:`InvariantViolation` with a descriptive message.
        O(extents + heap) — called from the simulator's periodic probe in
        ``--check-invariants`` mode, never from the hot path.
        """
        who = f"cache(node {self.owner_id})" if self.owner_id >= 0 else "cache"
        if self._used > self.capacity_events:
            raise InvariantViolation(
                f"{who}: accounting over capacity "
                f"({self._used} > {self.capacity_events} events)"
            )
        if self._used < 0:
            raise InvariantViolation(f"{who}: negative used counter {self._used}")
        runs = self._runs
        # Canonical form: runs sorted, disjoint, and no two abutting
        # extents sharing a stamp (extents compare by stamp).
        runs.check(who)
        for start, end, extent in zip(runs._starts, runs._ends, runs._values):
            if extent.start != start or extent.end != end:
                raise InvariantViolation(
                    f"{who}: extent [{extent.start},{extent.end}) filed under "
                    f"run [{start},{end})"
                )
            if not extent.alive:
                raise InvariantViolation(
                    f"{who}: dead extent [{start},{end}) still indexed"
                )
        total = sum(runs._ends) - sum(runs._starts)
        if total != self._used:
            raise InvariantViolation(
                f"{who}: event accounting not conserved — used counter says "
                f"{self._used} but extents measure {total}"
            )
        # LRU validity: every live extent must be reachable by eviction,
        # with the heap stamp matching its access time, and the lazy heap
        # must still satisfy the binary-heap ordering property and hold
        # at most ``_HEAP_SLACK`` more stale entries than live ones.
        heap = self._lru_heap
        if len(heap) > 2 * len(runs) + _HEAP_SLACK:
            raise InvariantViolation(
                f"{who}: LRU heap holds {len(heap)} entries for "
                f"{len(runs)} extents (stale entries not compacted)"
            )
        stamped: Dict[int, float] = {}
        for entry_index, entry in enumerate(heap):
            for child_index in (2 * entry_index + 1, 2 * entry_index + 2):
                if child_index < len(heap) and heap[child_index][:2] < entry[:2]:
                    raise InvariantViolation(
                        f"{who}: LRU heap order violated at index {entry_index}"
                    )
            stamped.setdefault(id(entry[2]), entry[0])
        for extent in runs._values:
            stamp = stamped.get(id(extent))
            if stamp is None:
                raise InvariantViolation(
                    f"{who}: live extent [{extent.start},{extent.end}) missing from the "
                    "LRU heap (unreachable by eviction)"
                )
            if not (stamp == extent.last_access):  # simlint: disable=SIM003
                # Exact match intended: the heap entry is a copy of the
                # extent's stamp, never the result of arithmetic.
                raise InvariantViolation(
                    f"{who}: LRU stamp {stamp} != extent access time "
                    f"{extent.last_access} for [{extent.start},{extent.end})"
                )

    def __repr__(self) -> str:
        return (
            f"LRUSegmentCache(used={self._used}/{self.capacity_events} events, "
            f"extents={len(self._runs)})"
        )
