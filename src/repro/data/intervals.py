"""Half-open integer intervals and disjoint interval sets.

Every piece of data in the simulated system — a job's data segment, a
subjob's remaining work, a disk cache extent, a delayed-scheduling stripe —
is a contiguous range of event indices.  This module provides the algebra
those components are built on:

* :class:`Interval` — an immutable half-open range ``[start, end)`` of
  event indices;
* :class:`IntervalSet` — a canonical (sorted, disjoint, merged) set of
  intervals with union / intersection / difference / measure.

The representation is canonical: an :class:`IntervalSet` never contains
empty, overlapping or adjacent intervals, so two sets covering the same
points always compare equal.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence, Tuple, Union

import numpy as np

from ..core.errors import IntervalError


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

    def adjacent(self, other: "Interval") -> bool:
        """True if the intervals touch without overlapping."""
        return self.end == other.start or other.end == self.start

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

    def split_at(self, point: int) -> Tuple["Interval", "Interval"]:
        """Split into ``[start, point)`` and ``[point, end)``.

        ``point`` must lie within ``[start, end]``.
        """
        if not (self.start <= point <= self.end):
            raise IntervalError(
                f"split point {point} outside [{self.start}, {self.end}]"
            )
        return Interval(self.start, point), Interval(point, self.end)

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

    def drop_left(self, count: int) -> "Interval":
        """Everything but the leftmost ``count`` events (clamped)."""
        count = max(0, min(count, self.length))
        return Interval(self.start + count, self.end)

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.start, self.end))

    def __repr__(self) -> str:
        return f"Interval({self.start}, {self.end})"


IntervalLike = Union[Interval, "IntervalSet"]


class IntervalSet:
    """A canonical set of disjoint, non-adjacent, sorted intervals.

    Supports the set algebra the schedulers rely on::

        cached   = node_cache.extents()            # IntervalSet
        hit      = cached & job.segment            # intersection
        miss     = IntervalSet([job.segment]) - hit
        coverage = hit.measure() / job.segment.length

    Internally two parallel lists of starts and ends allow binary-searched
    point and range queries.
    """

    __slots__ = ("_starts", "_ends")

    def __init__(self, intervals: Iterable[Interval] = ()) -> None:
        self._starts: List[int] = []
        self._ends: List[int] = []
        for interval in intervals:
            self.add(interval)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_pairs(cls, pairs: Iterable[Tuple[int, int]]) -> "IntervalSet":
        return cls(Interval(a, b) for a, b in pairs)

    def copy(self) -> "IntervalSet":
        clone = IntervalSet.__new__(IntervalSet)
        clone._starts = list(self._starts)
        clone._ends = list(self._ends)
        return clone

    # -- queries ---------------------------------------------------------------

    def __len__(self) -> int:
        """Number of disjoint intervals (not the number of points)."""
        return len(self._starts)

    def __bool__(self) -> bool:
        return bool(self._starts)

    def __iter__(self) -> Iterator[Interval]:
        for start, end in zip(self._starts, self._ends):
            yield Interval(start, end)

    def intervals(self) -> Tuple[Interval, ...]:
        return tuple(self)

    def pairs(self) -> List[Tuple[int, int]]:
        return list(zip(self._starts, self._ends))

    def measure(self) -> int:
        """Total number of points covered."""
        return sum(e - s for s, e in zip(self._starts, self._ends))

    def contains_point(self, point: int) -> bool:
        index = bisect_right(self._starts, point) - 1
        return index >= 0 and point < self._ends[index]

    def covers(self, interval: Interval) -> bool:
        """True if every point of ``interval`` is in the set."""
        if interval.empty:
            return True
        index = bisect_right(self._starts, interval.start) - 1
        return index >= 0 and interval.end <= self._ends[index]

    def intersects(self, interval: Interval) -> bool:
        """True if the set shares at least one point with ``interval``."""
        if interval.empty or not self._starts:
            return False
        index = bisect_right(self._starts, interval.start) - 1
        if index >= 0 and interval.start < self._ends[index]:
            return True
        nxt = index + 1
        return nxt < len(self._starts) and self._starts[nxt] < interval.end

    def intersection_with(self, interval: Interval) -> "IntervalSet":
        """The sub-set of points also inside ``interval``."""
        result = IntervalSet()
        if interval.empty or not self._starts:
            return result
        lo = bisect_right(self._ends, interval.start)
        hi = bisect_left(self._starts, interval.end)
        for i in range(lo, hi):
            start = max(self._starts[i], interval.start)
            end = min(self._ends[i], interval.end)
            if start < end:
                result._starts.append(start)
                result._ends.append(end)
        return result

    def overlap_measure(self, interval: Interval) -> int:
        """Number of points of ``interval`` covered by the set (no alloc of
        a result set; this is the hot query of cache-aware policies)."""
        if interval.empty or not self._starts:
            return 0
        lo = bisect_right(self._ends, interval.start)
        hi = bisect_left(self._starts, interval.end)
        total = 0
        for i in range(lo, hi):
            start = self._starts[i] if self._starts[i] > interval.start else interval.start
            end = self._ends[i] if self._ends[i] < interval.end else interval.end
            if start < end:
                total += end - start
        return total

    def boundary_points(self, interval: Interval) -> List[int]:
        """Interior boundaries of the set clipped to ``interval``.

        These are the natural split points turning ``interval`` into pieces
        that are each fully-cached or fully-uncached.
        """
        points: List[int] = []
        if interval.empty or not self._starts:
            return points
        lo = bisect_right(self._ends, interval.start)
        hi = bisect_left(self._starts, interval.end)
        for i in range(lo, hi):
            for point in (self._starts[i], self._ends[i]):
                if interval.start < point < interval.end:
                    points.append(point)
        return points

    # -- mutation ----------------------------------------------------------------

    def add(self, interval: Interval) -> None:
        """Insert ``interval``, merging with any overlapping/adjacent runs."""
        self.add_measure(interval)

    def add_measure(self, interval: Interval) -> int:
        """Insert ``interval`` like :meth:`add` and return the number of
        its points that were not in the set before.

        One binary-searched pass does both: the result equals
        ``interval.length - overlap_measure(interval)`` taken before the
        insert, without walking the covered runs twice.
        """
        start = interval.start
        end = interval.end
        if end <= start:
            return 0
        starts, ends = self._starts, self._ends
        # All runs with end < start stay untouched on the left.
        lo = bisect_left(ends, start)
        # All runs with start > end stay untouched on the right.
        hi = bisect_right(starts, end)
        if lo == hi:
            starts.insert(lo, start)
            ends.insert(lo, end)
            return end - start
        # Runs lo..hi-1 overlap or touch ``interval``: they merge with it
        # into one run, and their own points were already covered.
        covered = sum(ends[lo:hi]) - sum(starts[lo:hi])
        if starts[lo] < start:
            start = starts[lo]
        if ends[hi - 1] > end:
            end = ends[hi - 1]
        starts[lo:hi] = [start]
        ends[lo:hi] = [end]
        return end - start - covered

    def remove(self, interval: Interval) -> None:
        """Delete every point of ``interval`` from the set."""
        if interval.empty or not self._starts:
            return
        starts, ends = self._starts, self._ends
        lo = bisect_right(ends, interval.start)
        hi = bisect_left(starts, interval.end)
        if lo >= hi:
            return
        replacement_starts: List[int] = []
        replacement_ends: List[int] = []
        if starts[lo] < interval.start:
            replacement_starts.append(starts[lo])
            replacement_ends.append(interval.start)
        if ends[hi - 1] > interval.end:
            replacement_starts.append(interval.end)
            replacement_ends.append(ends[hi - 1])
        starts[lo:hi] = replacement_starts
        ends[lo:hi] = replacement_ends

    def clear(self) -> None:
        self._starts.clear()
        self._ends.clear()

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
            piece = self.intersection_with(interval)
            result._starts.extend(piece._starts)
            result._ends.extend(piece._ends)
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

    # -- validation ---------------------------------------------------------------

    def check_invariants(self) -> None:
        """Assert canonical form; used by tests and debug builds."""
        previous_end = None
        for start, end in zip(self._starts, self._ends):
            if end <= start:
                raise IntervalError(f"empty run [{start},{end}) stored")
            if previous_end is not None and start <= previous_end:
                raise IntervalError(
                    f"runs not disjoint/merged: ...,{previous_end}) then [{start},..."
                )
            previous_end = end


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
