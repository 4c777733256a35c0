"""Per-node LRU disk caches at data-segment (extent) granularity.

The paper's cache-aware policies all rest on one primitive: "which parts of
this job's data segment are currently on node *n*'s disk?".
:class:`LRUSegmentCache` answers that in O(log n) and maintains
least-recently-used eviction over variable-length extents, as prescribed in
Table 2 of the paper ("when needing new disk cache space, it deallocates
the least recently used cached segments").

Extents are half-open event ranges.  Touching or inserting a sub-range of
an existing extent splits it, so LRU timestamps stay exact at arbitrary
granularity.  Abutting extents never share a timestamp: a re-stamped range
is coalesced with an identically-stamped neighbour, which bounds
fragmentation (chunked streaming would otherwise grow the extent count
linearly with simulated time).

``touch``, ``insert`` and ``invalidate`` share one walk (``_restamp``):
each maximal abutting run of overlapping extents becomes the left leftover
of its first extent, the right leftover of its last (old stamps kept) and
the re-stamped part, spliced back by one slice assignment.  Each gets a
fresh LRU heap entry in that order, which fixes how equal stamps evict.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from ..core.errors import CacheError, InvariantViolation
from ..obs.hooks import NULL_BUS, HookBus, kinds
from .intervals import Interval, IntervalSet


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
    __slots__ = ("interval", "last_access", "alive")

    def __init__(self, interval: Interval, last_access: float) -> None:
        self.interval = interval
        self.last_access = last_access
        self.alive = True


def _uncoalesced(left: _Extent, right: _Extent) -> bool:
    """True if ``left`` abuts ``right`` with the same stamp, which the
    cache never leaves behind (stamps are copied, so compare exactly)."""
    return (
        left.interval.end == right.interval.start
        and left.last_access == right.last_access  # simlint: disable=SIM003
    )


class LRUSegmentCache:
    """An LRU cache over event extents with a fixed capacity in events.

    >>> cache = LRUSegmentCache(capacity_events=100)
    >>> cache.insert(Interval(0, 60), now=1.0)
    >>> cache.insert(Interval(200, 260), now=2.0)
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
        self._starts: List[int] = []  # sorted extent start points
        self._by_start: Dict[int, _Extent] = {}  # start -> extent
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
        merged = IntervalSet()
        for start in self._starts:
            merged.add(self._by_start[start].interval)
        return merged

    def cached_parts(self, interval: Interval) -> IntervalSet:
        """Sub-ranges of ``interval`` present in the cache."""
        result = IntervalSet()
        query_start = interval.start
        query_end = interval.end
        starts = result._starts
        ends = result._ends
        # Overlapping extents arrive start-sorted and disjoint, so the
        # clipped pieces can be appended directly, merging abutting runs
        # (extents may touch when their LRU stamps differ) to keep the
        # set canonical.
        by_start = self._by_start
        lo, hi = self._span(query_start, query_end)
        for key in self._starts[lo:hi]:
            piece = by_start[key].interval
            start = piece.start if piece.start > query_start else query_start
            end = piece.end if piece.end < query_end else query_end
            if start >= end:
                continue
            if ends and start <= ends[-1]:
                if end > ends[-1]:
                    ends[-1] = end
            else:
                starts.append(start)
                ends.append(end)
        return result

    def cached_events(self, interval: Interval) -> int:
        """Number of events of ``interval`` present in the cache."""
        total = 0
        by_start = self._by_start
        lo, hi = self._span(interval.start, interval.end)
        for start in self._starts[lo:hi]:
            total += by_start[start].interval.intersection(interval).length
        return total

    def covers(self, interval: Interval) -> bool:
        """True if every event of ``interval`` is cached."""
        return self.cached_events(interval) == interval.length

    def contains_point(self, point: int) -> bool:
        index = bisect_right(self._starts, point) - 1
        if index < 0:
            return False
        return self._by_start[self._starts[index]].interval.contains(point)

    def cached_prefix(self, interval: Interval) -> Interval:
        """The longest cached run starting exactly at ``interval.start``.

        Returns an empty interval when the first event is not cached.  This
        is the hot query of chunked execution: a node processing left to
        right asks "how far can I read from disk before hitting a miss?".
        """
        start = interval.start
        starts = self._starts
        by_start = self._by_start
        index = bisect_right(starts, start) - 1
        end = by_start[starts[index]].interval.end if index >= 0 else start
        if end <= start or interval.end <= start:
            return Interval(start, start)
        # Walk right over contiguous extents (they may abut without merging
        # when their timestamps differ).
        index += 1
        n = len(starts)
        while end < interval.end and index < n and starts[index] == end:
            end = by_start[end].interval.end
            index += 1
        return interval if end >= interval.end else Interval(start, end)

    def uncached_prefix(self, interval: Interval) -> Interval:
        """The longest run starting at ``interval.start`` with no cached
        event."""
        start = interval.start
        if interval.empty:
            return Interval(start, start)
        starts = self._starts
        # Only the first overlapping extent bounds the prefix: either an
        # extent covering ``start`` (empty prefix) or the first extent
        # beginning inside the interval.
        index = bisect_right(starts, start) - 1
        if index >= 0 and self._by_start[starts[index]].interval.end > start:
            return Interval(start, start)
        index += 1
        if index < len(starts) and starts[index] < interval.end:
            return Interval(start, starts[index])
        return Interval(start, interval.end)

    def extent_count(self) -> int:
        return len(self._by_start)

    def __iter__(self) -> Iterator[Tuple[Interval, float]]:
        for start in self._starts:
            extent = self._by_start[start]
            yield extent.interval, extent.last_access

    # -- mutation ----------------------------------------------------------------

    def insert(self, interval: Interval, now: float) -> None:
        """Cache ``interval`` with access time ``now``, evicting LRU data.

        Intervals longer than the capacity keep only their rightmost
        ``capacity`` events — exactly what sequential streaming through a
        full cache leaves behind.
        """
        if interval.empty or self.capacity_events == 0:
            return
        if interval.end - interval.start > self.capacity_events:
            interval = Interval(interval.end - self.capacity_events, interval.end)
        self.stats.inserted_events += interval.end - interval.start
        self._restamp(interval, now, fill=True)
        evicted_before = self.stats.evicted_events
        self._evict_to_fit(protect=interval)
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

    def touch(self, interval: Interval, now: float) -> None:
        """Refresh the LRU timestamp of the cached parts of ``interval``."""
        self.stats.touched_events += self._restamp(interval, now, fill=False)

    def invalidate(self, interval: Interval) -> int:
        """Drop any cached events inside ``interval``; returns count."""
        before = self._used
        self._restamp(interval, None, fill=True)
        dropped = before - self._used
        self.stats.dropped_events += dropped
        return dropped

    def clear(self) -> None:
        self._starts.clear()
        self._by_start.clear()
        self._lru_heap.clear()
        self._used = 0

    # -- internals ---------------------------------------------------------------

    def _span(self, start: int, end: int) -> Tuple[int, int]:
        """Index range ``[lo, hi)`` of the extents intersecting
        ``[start, end)``."""
        if end <= start:
            return 0, 0
        starts = self._starts
        lo = bisect_right(starts, start) - 1
        if lo < 0 or self._by_start[starts[lo]].interval.end <= start:
            lo += 1
        return lo, bisect_left(starts, end, lo)

    def _restamp(self, interval: Interval, now: Optional[float], fill: bool) -> int:
        """Stamp ``interval`` with ``now`` in one walk over its extents:
        all of it with ``fill`` (insert), else its cached runs (touch);
        ``now=None`` drops the range instead (invalidate).  Returns the
        events stamped before coalescing."""
        query_start = interval.start
        query_end = interval.end
        starts = self._starts
        by_start = self._by_start
        lo, hi = self._span(query_start, query_end)
        if lo == hi and (not fill or now is None):
            return 0
        bounds = [lo, hi]  # one run for a fill, else the maximal abutting runs
        if not fill and hi - lo > 1:
            ends = [by_start[start].interval.end for start in starts[lo:hi - 1]]
            bounds[1:1] = [i for i, end in enumerate(ends, lo + 1) if starts[i] != end]
        splice_lo = lo
        splice_hi = hi
        pieces: List[_Extent] = []  # the replacement extents, in start order
        stamped = 0
        for run_lo, run_hi in zip(bounds, bounds[1:]):
            part_start = query_start
            part_end = query_end
            left: Optional[_Extent] = None
            right: Optional[_Extent] = None
            if run_lo < run_hi:
                head = by_start[starts[run_lo]]
                tail = by_start[starts[run_hi - 1]]
                head_start = head.interval.start
                tail_end = tail.interval.end
                if not fill:
                    part_start = head_start if head_start > query_start else query_start
                    part_end = tail_end if tail_end < query_end else query_end
                    stamped += part_end - part_start
                # Leftovers keep their (copied, so exactly compared) stamps;
                # one stamped ``now`` is absorbed by the part.
                if head_start < query_start:
                    if head.last_access == now:  # simlint: disable=SIM003
                        part_start = head_start
                    else:
                        left = self._push(Interval(head_start, query_start), head.last_access)
                if tail_end > query_end:
                    if tail.last_access == now:  # simlint: disable=SIM003
                        part_end = tail_end
                    else:
                        right = self._push(Interval(query_end, tail_end), tail.last_access)
            if left is not None:
                pieces.append(left)
            if now is not None:
                # The part coalesces with an outer neighbour stamped ``now``.
                if run_lo == lo and lo > 0:
                    neighbour = by_start[starts[lo - 1]]
                    if neighbour.interval.end == part_start:
                        if neighbour.last_access == now:  # simlint: disable=SIM003
                            part_start = neighbour.interval.start
                            splice_lo = lo - 1
                if run_hi == hi and hi < len(starts):
                    neighbour = by_start[starts[hi]]
                    if neighbour.interval.start == part_end:
                        if neighbour.last_access == now:  # simlint: disable=SIM003
                            part_end = neighbour.interval.end
                            splice_hi = hi + 1
                part = interval
                if part_start != query_start or part_end != query_end:
                    part = Interval(part_start, part_end)
                pieces.append(self._push(part, now))
            if right is not None:
                pieces.append(right)
        used = self._used
        for start in starts[splice_lo:splice_hi]:
            extent = by_start.pop(start)
            extent.alive = False
            used -= extent.interval.end - start
        for extent in pieces:
            by_start[extent.interval.start] = extent
            used += extent.interval.end - extent.interval.start
        self._used = used
        starts[splice_lo:splice_hi] = [extent.interval.start for extent in pieces]
        return stamped

    def _push(self, interval: Interval, last_access: float) -> _Extent:
        """A new extent with a fresh LRU heap entry (the next tiebreak)."""
        extent = _Extent(interval, last_access)
        tiebreak = self._tiebreak + 1
        self._tiebreak = tiebreak
        heapq.heappush(self._lru_heap, (last_access, tiebreak, extent))
        return extent

    def _drop_extent(self, extent: _Extent) -> None:
        start = extent.interval.start
        del self._by_start[start]
        index = bisect_left(self._starts, start)
        assert self._starts[index] == start
        del self._starts[index]
        extent.alive = False
        interval = extent.interval
        self._used -= interval.end - interval.start

    def _evict_to_fit(self, protect: Interval) -> None:
        """Evict LRU extents until within capacity, never touching the
        freshly inserted ``protect`` range."""
        stash: List[Tuple[float, int, _Extent]] = []
        while self._used > self.capacity_events:
            if not self._lru_heap:
                raise CacheError("cache accounting corrupt: over capacity with empty LRU")
            entry = heapq.heappop(self._lru_heap)
            extent = entry[2]
            if not extent.alive:
                continue  # stale heap entry (lazy deletion)
            if extent.interval.overlaps(protect):
                stash.append(entry)
                continue
            excess = self._used - self.capacity_events
            if extent.interval.length > excess:
                # Partial eviction: keep the rightmost part (the part a
                # sequential reader touched last) under a fresh heap entry.
                start = extent.interval.start
                extent.alive = False
                keep = Interval(start + excess, extent.interval.end)
                self._starts[bisect_left(self._starts, start)] = start + excess
                del self._by_start[start]
                self._by_start[start + excess] = self._push(keep, extent.last_access)
                self._used -= excess
                self.stats.evicted_events += excess
            else:
                self.stats.evicted_events += extent.interval.length
                self._drop_extent(extent)
        for entry in stash:
            heapq.heappush(self._lru_heap, entry)

    # -- validation ---------------------------------------------------------------

    def check_invariants(self) -> None:
        """Assert internal consistency (tests / debug builds)."""
        if self._used > self.capacity_events:
            raise CacheError(f"used {self._used} > capacity {self.capacity_events}")
        total = 0
        previous: Optional[_Extent] = None
        for start in self._starts:
            extent = self._by_start[start]
            if extent.interval.start != start:
                raise CacheError("start index out of sync")
            if previous is not None:
                if start < previous.interval.end:
                    raise CacheError("extents overlap")
                if _uncoalesced(previous, extent):
                    raise CacheError("abutting extents share a stamp")
            previous = extent
            total += extent.interval.length
        if total != self._used:
            raise CacheError(f"used counter {self._used} != measured {total}")

    def validate(self) -> None:
        """Deep sim-sanitizer check: event accounting conservation, extent
        index consistency and LRU structure validity.

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
        if len(self._starts) != len(self._by_start):
            raise InvariantViolation(
                f"{who}: extent indexes out of sync "
                f"(starts={len(self._starts)}, extents={len(self._by_start)})"
            )
        total = 0
        previous: Optional[_Extent] = None
        for start in self._starts:
            extent = self._by_start.get(start)
            if extent is None:
                raise InvariantViolation(
                    f"{who}: start index {start} has no backing extent"
                )
            if extent.interval.start != start:
                raise InvariantViolation(
                    f"{who}: extent {extent.interval} filed under start {start}"
                )
            if not extent.alive:
                raise InvariantViolation(
                    f"{who}: dead extent {extent.interval} still indexed"
                )
            if previous is not None:
                if start < previous.interval.end:
                    raise InvariantViolation(
                        f"{who}: extents overlap at {start} "
                        f"(previous extent ends at {previous.interval.end})"
                    )
                if _uncoalesced(previous, extent):
                    raise InvariantViolation(
                        f"{who}: abutting extents {previous.interval} and "
                        f"{extent.interval} share stamp {extent.last_access} "
                        "(not coalesced)"
                    )
            previous = extent
            total += extent.interval.length
        if total != self._used:
            raise InvariantViolation(
                f"{who}: event accounting not conserved — used counter says "
                f"{self._used} but extents measure {total}"
            )
        # LRU validity: every live extent must be reachable by eviction,
        # with the heap stamp matching its access time, and the lazy heap
        # must still satisfy the binary-heap ordering property.
        stamped: Dict[int, float] = {}
        for entry_index, entry in enumerate(self._lru_heap):
            for child_index in (2 * entry_index + 1, 2 * entry_index + 2):
                if (
                    child_index < len(self._lru_heap)
                    and self._lru_heap[child_index][:2] < entry[:2]
                ):
                    raise InvariantViolation(
                        f"{who}: LRU heap order violated at index {entry_index}"
                    )
            stamped.setdefault(id(entry[2]), entry[0])
        for extent in self._by_start.values():
            stamp = stamped.get(id(extent))
            if stamp is None:
                raise InvariantViolation(
                    f"{who}: live extent {extent.interval} missing from the "
                    "LRU heap (unreachable by eviction)"
                )
            if not (stamp == extent.last_access):  # simlint: disable=SIM003
                # Exact match intended: the heap entry is a copy of the
                # extent's stamp, never the result of arithmetic.
                raise InvariantViolation(
                    f"{who}: LRU stamp {stamp} != extent access time "
                    f"{extent.last_access} for {extent.interval}"
                )

    def __repr__(self) -> str:
        return (
            f"LRUSegmentCache(used={self._used}/{self.capacity_events} events, "
            f"extents={len(self._by_start)})"
        )
