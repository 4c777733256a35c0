"""Half-open integer intervals and disjoint interval sets.

Every piece of data in the simulated system — a job's data segment, a
subjob's remaining work, a disk cache extent, a delayed-scheduling stripe —
is a contiguous range of event indices.  This module provides the algebra
those components are built on:

* :class:`Interval` — an immutable half-open range ``[start, end)`` of
  event indices;
* :class:`RunMap` — sorted, disjoint runs of event indices, each with a
  payload, edited by one span-and-splice primitive; the disk caches and
  the access counters are built on it;
* :class:`IntervalSet` — the run map with a unit payload: a canonical
  (sorted, disjoint, merged) set of intervals with union / intersection /
  difference / measure.

The representation is canonical: a :class:`RunMap` never holds empty or
overlapping runs, nor abutting runs of equal payload, so two sets
covering the same points always compare equal.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Any, Generic, Iterable, Iterator, List, Optional, Sequence, Tuple, TypeVar, Union

import numpy as np

from ..core.errors import IntervalError, InvariantViolation


@dataclass(frozen=True, order=True, slots=True)
class Interval:
    """A half-open range ``[start, end)`` of integer event indices.

    >>> Interval(0, 10).length
    10
    >>> Interval(0, 10).intersection(Interval(5, 20))
    Interval(5, 10)
    """

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise IntervalError(f"end < start in [{self.start}, {self.end})")

    # -- basic queries -----------------------------------------------------

    @property
    def length(self) -> int:
        """Number of events in the interval."""
        return self.end - self.start

    @property
    def empty(self) -> bool:
        return self.end <= self.start

    def contains(self, point: int) -> bool:
        return self.start <= point < self.end

    def covers(self, other: "Interval") -> bool:
        """True if ``other`` lies entirely inside this interval."""
        return other.empty or (self.start <= other.start and other.end <= self.end)

    def overlaps(self, other: "Interval") -> bool:
        """True if the two intervals share at least one point."""
        return self.start < other.end and other.start < self.end

    # -- algebra -------------------------------------------------------------

    def intersection(self, other: "Interval") -> "Interval":
        """The common part (possibly empty, normalised to zero length)."""
        start = max(self.start, other.start)
        end = min(self.end, other.end)
        if end <= start:
            return Interval(start, start)
        return Interval(start, end)

    def hull(self, other: "Interval") -> "Interval":
        """Smallest interval covering both operands."""
        if self.empty:
            return other
        if other.empty:
            return self
        return Interval(min(self.start, other.start), max(self.end, other.end))

    def subtract(self, other: "Interval") -> Tuple["Interval", ...]:
        """Points of ``self`` not in ``other`` (0, 1 or 2 pieces)."""
        inter = self.intersection(other)
        if inter.empty:
            return (self,) if not self.empty else ()
        pieces = []
        if self.start < inter.start:
            pieces.append(Interval(self.start, inter.start))
        if inter.end < self.end:
            pieces.append(Interval(inter.end, self.end))
        return tuple(pieces)

    def split_even(self, parts: int, min_length: int = 1) -> Tuple["Interval", ...]:
        """Split into at most ``parts`` near-equal contiguous pieces.

        No piece is shorter than ``min_length`` (the paper's minimal subjob
        size); if the interval is too small for ``parts`` pieces, fewer are
        returned.  The pieces tile the interval exactly.

        >>> [i.length for i in Interval(0, 10).split_even(3)]
        [4, 3, 3]
        """
        if parts < 1:
            raise IntervalError(f"parts must be >= 1, got {parts}")
        if min_length < 1:
            raise IntervalError(f"min_length must be >= 1, got {min_length}")
        if self.empty:
            return ()
        parts = min(parts, max(1, self.length // min_length))
        base, extra = divmod(self.length, parts)
        pieces: List[Interval] = []
        cursor = self.start
        for index in range(parts):
            size = base + (1 if index < extra else 0)
            pieces.append(Interval(cursor, cursor + size))
            cursor += size
        assert cursor == self.end
        return tuple(pieces)

    def take_left(self, count: int) -> "Interval":
        """The leftmost ``count`` events (clamped to the interval)."""
        if count >= self.end - self.start:
            return self
        if count < 0:
            count = 0
        return Interval(self.start, self.start + count)

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.start, self.end))

    def __repr__(self) -> str:
        return f"Interval({self.start}, {self.end})"


IntervalLike = Union[Interval, "IntervalSet"]

V = TypeVar("V")


class RunMap(Generic[V]):
    """Sorted, disjoint runs of event indices, each carrying a payload.

    Run ``i`` covers ``[_starts[i], _ends[i])`` and carries ``_values[i]``.
    The data layer keeps every "what holds at event *i*?" answer in one of
    these maps, and each user adds only its own rule:

    * :class:`IntervalSet` — the unit payload ``True``, plus set algebra;
    * :class:`~repro.data.cache.LRUSegmentCache` — one run per cached
      extent, carrying its LRU record, plus stamps and eviction;
    * :class:`~repro.cluster.access.RemoteAccessCounter` — the access
      count, plus the bump-and-cap rule.

    The form is canonical: runs are non-empty, sorted and disjoint, and no
    two abutting runs carry equal payloads (:meth:`check`).  Writers go
    through :meth:`splice`, which keeps that form by merging abutting runs
    of equal payload at every seam it makes, or through :meth:`replace`
    when their runs are canonical already (only
    :meth:`IntervalSet.add_measure` edits the lists in place); the data
    layer's hot paths read the three lists directly.

    >>> counts = RunMap()
    >>> counts.splice(0, 0, [0, 10, 30], [10, 20, 40], [1, 1, 2])
    >>> len(counts), counts.value_at(15), counts.value_at(25)
    (2, 1, None)
    >>> counts.span(5, 35)
    (0, 2)
    """

    __slots__ = ("_starts", "_ends", "_values")

    def __init__(self) -> None:
        self._starts: List[int] = []
        self._ends: List[int] = []
        self._values: List[V] = []

    def __len__(self) -> int:
        """Number of runs (not the number of points)."""
        return len(self._starts)

    # -- queries ---------------------------------------------------------------

    def span(self, start: int, end: int) -> Tuple[int, int]:
        """Index range ``[lo, hi)`` of the runs overlapping ``[start, end)``
        (empty for an empty query)."""
        lo = bisect_right(self._ends, start)
        if end <= start:
            return lo, lo
        return lo, bisect_left(self._starts, end, lo)

    def value_at(self, point: int) -> Optional[V]:
        """Payload of the run holding ``point`` (``None`` if no run does)."""
        index = bisect_right(self._starts, point) - 1
        if index >= 0 and point < self._ends[index]:
            return self._values[index]
        return None

    def overlap(self, start: int, end: int) -> int:
        """Number of points of ``[start, end)`` inside some run."""
        lo, hi = self.span(start, end)
        if lo == hi:
            return 0
        starts, ends = self._starts, self._ends
        total = sum(ends[lo:hi]) - sum(starts[lo:hi])
        if starts[lo] < start:
            total -= start - starts[lo]
        if ends[hi - 1] > end:
            total -= ends[hi - 1] - end
        return total

    # -- mutation ----------------------------------------------------------------

    def splice(
        self, lo: int, hi: int, starts: List[int], ends: List[int], values: List[V]
    ) -> None:
        """Replace runs ``lo..hi-1`` by the runs given as three parallel
        lists (taken over, not copied): non-empty, sorted and disjoint,
        lying between run ``lo - 1`` and run ``hi``.

        Abutting runs of equal payload merge at every seam: between two
        given runs, and between the first and last of them and runs
        ``lo - 1`` and ``hi``.  A merged run keeps the payload given.
        """
        if starts:
            for index in range(len(starts) - 1, 0, -1):
                if ends[index - 1] == starts[index] and values[index - 1] == values[index]:
                    ends[index - 1] = ends[index]
                    del starts[index], ends[index], values[index]
            if lo > 0 and self._ends[lo - 1] == starts[0] and self._values[lo - 1] == values[0]:
                lo -= 1
                starts[0] = self._starts[lo]
            if hi < len(self._starts) and self._starts[hi] == ends[-1] and self._values[hi] == values[-1]:
                ends[-1] = self._ends[hi]
                hi += 1
        self.replace(lo, hi, starts, ends, values)

    def replace(
        self, lo: int, hi: int, starts: List[int], ends: List[int], values: List[V]
    ) -> None:
        """Replace runs ``lo..hi-1`` by the given runs as they are: the
        plain slice replacement :meth:`splice` ends with, for writers whose
        runs are already canonical against each other and their neighbours
        (the cache's re-stamp and eviction)."""
        self._starts[lo:hi] = starts
        self._ends[lo:hi] = ends
        self._values[lo:hi] = values

    # -- validation ---------------------------------------------------------------

    def check(self, who: str = "run map") -> None:
        """Raise :class:`InvariantViolation`, naming ``who``, unless the
        map is canonical: parallel lists of one length, runs non-empty,
        sorted and disjoint, and abutting runs of different payloads."""
        starts, ends, values = self._starts, self._ends, self._values
        if not len(starts) == len(ends) == len(values):
            raise InvariantViolation(
                f"{who}: run lists out of sync (starts={len(starts)}, "
                f"ends={len(ends)}, values={len(values)})"
            )
        previous_end: Optional[int] = None
        for index, (start, end) in enumerate(zip(starts, ends)):
            if end <= start:
                raise InvariantViolation(f"{who}: empty run [{start},{end}) stored")
            if previous_end is not None:
                if start < previous_end:
                    raise InvariantViolation(
                        f"{who}: runs overlap or are unsorted at {start} "
                        f"(previous run ends at {previous_end})"
                    )
                if start == previous_end and values[index - 1] == values[index]:
                    raise InvariantViolation(
                        f"{who}: abutting runs [{starts[index - 1]},{start}) and "
                        f"[{start},{end}) share {values[index]!r} (not coalesced)"
                    )
            previous_end = end


class IntervalSet(RunMap[bool]):
    """A canonical set of disjoint, non-adjacent, sorted intervals: the
    :class:`RunMap` whose every run carries the unit payload ``True``.

    Supports the set algebra the schedulers rely on::

        cached   = node_cache.extents()            # IntervalSet
        hit      = cached & job.segment            # intersection
        miss     = IntervalSet([job.segment]) - hit
        coverage = hit.measure() / job.segment.length
    """

    __slots__ = ()

    def __init__(self, intervals: Iterable[Interval] = ()) -> None:
        super().__init__()
        for interval in intervals:
            self.add(interval)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_pairs(cls, pairs: Iterable[Tuple[int, int]]) -> "IntervalSet":
        return cls(Interval(a, b) for a, b in pairs)

    @classmethod
    def covered(cls, runs: RunMap[Any], start: int, end: int) -> "IntervalSet":
        """The points of ``runs`` inside ``[start, end)``, payloads dropped
        and abutting runs merged."""
        result = cls()
        lo, hi = runs.span(start, end)
        if lo < hi:
            starts = runs._starts[lo:hi]
            ends = runs._ends[lo:hi]
            if starts[0] < start:
                starts[0] = start
            if ends[-1] > end:
                ends[-1] = end
            result.splice(0, 0, starts, ends, [True] * len(starts))
        return result

    def copy(self) -> "IntervalSet":
        clone = IntervalSet.__new__(IntervalSet)
        clone._starts = list(self._starts)
        clone._ends = list(self._ends)
        clone._values = list(self._values)
        return clone

    # -- queries ---------------------------------------------------------------

    def __iter__(self) -> Iterator[Interval]:
        for start, end in zip(self._starts, self._ends):
            yield Interval(start, end)

    def pairs(self) -> List[Tuple[int, int]]:
        return list(zip(self._starts, self._ends))

    def measure(self) -> int:
        """Total number of points covered."""
        return sum(self._ends) - sum(self._starts)

    def contains_point(self, point: int) -> bool:
        return self.value_at(point) is not None

    def covers(self, interval: Interval) -> bool:
        """True if every point of ``interval`` is in the set."""
        if interval.empty:
            return True
        index = bisect_right(self._starts, interval.start) - 1
        return index >= 0 and interval.end <= self._ends[index]

    def intersection_with(self, interval: Interval) -> "IntervalSet":
        """The sub-set of points also inside ``interval``."""
        return IntervalSet.covered(self, interval.start, interval.end)

    def overlap_measure(self, interval: Interval) -> int:
        """Number of points of ``interval`` covered by the set (no alloc of
        a result set; this is the hot query of cache-aware policies)."""
        return self.overlap(interval.start, interval.end)

    # -- mutation ----------------------------------------------------------------

    def add(self, interval: Interval) -> None:
        """Insert ``interval``, merging with any overlapping/adjacent runs."""
        self.add_measure(interval.start, interval.end)

    def add_measure(self, start: int, end: int) -> int:
        """Insert ``[start, end)`` like :meth:`add` and return the number
        of its points that were not in the set before.

        One binary-searched pass does both: the result equals
        ``end - start - overlap(start, end)`` taken before the insert,
        without walking the covered runs twice.  This runs on every
        tertiary read, so it edits the lists in place (the one-run case
        of :meth:`splice`) with no call or allocation per run.
        """
        if end <= start:
            return 0
        starts, ends = self._starts, self._ends
        # All runs with end < start stay untouched on the left, all runs
        # with start > end on the right.
        lo = bisect_left(ends, start)
        hi = bisect_right(starts, end, lo)
        if lo == hi:
            starts.insert(lo, start)
            ends.insert(lo, end)
            self._values.insert(lo, True)
            return end - start
        if hi == lo + 1:
            # One run overlaps or touches: widen it in place (a node
            # extending its own run of reads lands here).
            added = 0
            if start < starts[lo]:
                added = starts[lo] - start
                starts[lo] = start
            if end > ends[lo]:
                added += end - ends[lo]
                ends[lo] = end
            return added
        # Runs lo..hi-1 overlap or touch ``interval``: they merge with it
        # into one run, and their own points were already covered.
        covered = sum(ends[lo:hi]) - sum(starts[lo:hi])
        if starts[lo] < start:
            start = starts[lo]
        if ends[hi - 1] > end:
            end = ends[hi - 1]
        starts[lo:hi] = [start]
        ends[lo:hi] = [end]
        if hi - lo > 1:
            del self._values[lo + 1:hi]
        return end - start - covered

    def remove(self, interval: Interval) -> None:
        """Delete every point of ``interval`` from the set."""
        lo, hi = self.span(interval.start, interval.end)
        if lo == hi:
            return
        starts: List[int] = []
        ends: List[int] = []
        if self._starts[lo] < interval.start:
            starts.append(self._starts[lo])
            ends.append(interval.start)
        if self._ends[hi - 1] > interval.end:
            starts.append(interval.end)
            ends.append(self._ends[hi - 1])
        self.splice(lo, hi, starts, ends, [True] * len(starts))

    def clear(self) -> None:
        self.splice(0, len(self), [], [], [])

    # -- operators ----------------------------------------------------------------

    def _coerce(self, other: IntervalLike) -> "IntervalSet":
        if isinstance(other, Interval):
            out = IntervalSet()
            out.add(other)
            return out
        return other

    def union(self, other: IntervalLike) -> "IntervalSet":
        result = self.copy()
        for interval in self._coerce(other):
            result.add(interval)
        return result

    def difference(self, other: IntervalLike) -> "IntervalSet":
        result = self.copy()
        for interval in self._coerce(other):
            result.remove(interval)
        return result

    def intersection(self, other: IntervalLike) -> "IntervalSet":
        if isinstance(other, Interval):
            return self.intersection_with(other)
        result = IntervalSet()
        for interval in other:
            # Pieces of disjoint, non-adjacent intervals never abut.
            piece = self.intersection_with(interval)
            tail = len(result)
            result.splice(tail, tail, piece._starts, piece._ends, piece._values)
        return result

    __or__ = union
    __sub__ = difference
    __and__ = intersection

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self._starts == other._starts and self._ends == other._ends

    def __hash__(self) -> int:
        return hash((tuple(self._starts), tuple(self._ends)))

    def __repr__(self) -> str:
        inner = ", ".join(f"[{s},{e})" for s, e in zip(self._starts, self._ends))
        return f"IntervalSet({inner})"

    def check_invariants(self) -> None:
        """Assert canonical form; used by tests and debug builds."""
        self.check("interval set")


class PositionIndex:
    """Frozen offset→event-index lookup over an :class:`IntervalSet`.

    Snapshots the set's layout once and maps the ``k``-th covered point
    (0-based, in event order) to its event index by binary search over
    cumulative interval lengths — O(log intervals) per lookup instead of
    the O(intervals) linear scan, and vectorized for whole numpy batches
    via :meth:`positions_at`.  The workload generator draws millions of
    hotspot start positions from two fixed sets; this is that hot path.

    The index does **not** track later mutations of the source set —
    build it after the set is final (both users here are immutable after
    construction).

    >>> index = PositionIndex(IntervalSet.from_pairs([(0, 3), (10, 12)]))
    >>> [index.position_at(k) for k in range(index.measure)]
    [0, 1, 2, 10, 11]
    """

    __slots__ = ("_starts", "_cumulative", "_starts_arr", "_cumulative_arr", "measure")

    def __init__(self, source: IntervalSet) -> None:
        starts: List[int] = []
        cumulative: List[int] = [0]
        covered = 0
        for interval in source:
            starts.append(interval.start)
            covered += interval.length
            cumulative.append(covered)
        self._starts = starts
        self._cumulative = cumulative
        self._starts_arr = np.asarray(starts, dtype=np.int64)
        self._cumulative_arr = np.asarray(cumulative, dtype=np.int64)
        #: Total number of covered points (== ``source.measure()``).
        self.measure = covered

    def position_at(self, offset: int) -> int:
        """Event index of the ``offset``-th covered point."""
        if not 0 <= offset < self.measure:
            raise IntervalError(
                f"offset {offset} outside [0, {self.measure})"
            )
        index = bisect_right(self._cumulative, offset) - 1
        return self._starts[index] + (offset - self._cumulative[index])

    def positions_at(self, offsets: Sequence[int]) -> np.ndarray:
        """Vectorized :meth:`position_at` over a whole batch of offsets."""
        batch = np.asarray(offsets, dtype=np.int64)
        if batch.size == 0:
            return batch
        if int(batch.min()) < 0 or int(batch.max()) >= self.measure:
            raise IntervalError(
                f"offsets outside [0, {self.measure}): {offsets!r}"
            )
        index = np.searchsorted(self._cumulative_arr, batch, side="right") - 1
        return self._starts_arr[index] + (batch - self._cumulative_arr[index])


def complement(universe: Interval, covered: IntervalLike) -> IntervalSet:
    """Points of ``universe`` not covered by ``covered``.

    >>> complement(Interval(0, 10), IntervalSet([Interval(2, 4)])).pairs()
    [(0, 2), (4, 10)]
    """
    base = IntervalSet([universe])
    if isinstance(covered, Interval):
        other = IntervalSet([covered])
    else:
        other = covered
    return base.difference(other)


def partition_by(interval: Interval, cut_points: Sequence[int]) -> List[Interval]:
    """Split ``interval`` at each in-range cut point (sorted, deduplicated).

    >>> partition_by(Interval(0, 10), [4, 7, 7, 20])
    [Interval(0, 4), Interval(4, 7), Interval(7, 10)]
    """
    points = sorted({p for p in cut_points if interval.start < p < interval.end})
    pieces: List[Interval] = []
    cursor = interval.start
    for point in points:
        pieces.append(Interval(cursor, point))
        cursor = point
    pieces.append(Interval(cursor, interval.end))
    return [p for p in pieces if not p.empty]
