"""Tests for the extent algebra (repro.data.intervals).

The property tests compare :class:`IntervalSet` against a reference model:
plain Python sets of integer points over a small universe.  Every set
operation must agree with its pointwise counterpart.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import IntervalError, InvariantViolation
from repro.data.intervals import (
    Interval,
    IntervalSet,
    RunMap,
    complement,
    partition_by,
)

# -- strategies ---------------------------------------------------------------

POINT = st.integers(min_value=0, max_value=120)


@st.composite
def intervals(draw):
    start = draw(POINT)
    length = draw(st.integers(min_value=0, max_value=40))
    return Interval(start, start + length)


interval_lists = st.lists(intervals(), max_size=12)


def points_of(interval: Interval) -> set:
    return set(range(interval.start, interval.end))


def points_of_set(iset: IntervalSet) -> set:
    out = set()
    for interval in iset:
        out |= points_of(interval)
    return out


# -- Interval basics ---------------------------------------------------------------


class TestInterval:
    def test_length_and_empty(self):
        assert Interval(2, 7).length == 5
        assert Interval(3, 3).empty
        assert not Interval(3, 4).empty

    def test_invalid_bounds_raise(self):
        with pytest.raises(IntervalError):
            Interval(5, 4)

    def test_contains(self):
        interval = Interval(2, 5)
        assert interval.contains(2)
        assert interval.contains(4)
        assert not interval.contains(5)
        assert not interval.contains(1)

    def test_covers(self):
        assert Interval(0, 10).covers(Interval(3, 7))
        assert Interval(0, 10).covers(Interval(0, 10))
        assert not Interval(0, 10).covers(Interval(5, 11))
        assert Interval(0, 10).covers(Interval(4, 4))  # empty is covered

    def test_overlaps_and_adjacent(self):
        assert Interval(0, 5).overlaps(Interval(4, 8))
        assert not Interval(0, 5).overlaps(Interval(5, 8))

    def test_intersection(self):
        assert Interval(0, 5).intersection(Interval(3, 9)) == Interval(3, 5)
        assert Interval(0, 5).intersection(Interval(7, 9)).empty

    def test_hull(self):
        assert Interval(0, 2).hull(Interval(8, 9)) == Interval(0, 9)
        assert Interval(0, 2).hull(Interval(5, 5)) == Interval(0, 2)

    def test_subtract_middle(self):
        pieces = Interval(0, 10).subtract(Interval(3, 6))
        assert pieces == (Interval(0, 3), Interval(6, 10))

    def test_subtract_disjoint(self):
        assert Interval(0, 5).subtract(Interval(7, 9)) == (Interval(0, 5),)

    def test_subtract_all(self):
        assert Interval(2, 4).subtract(Interval(0, 10)) == ()

    def test_take_drop_left(self):
        interval = Interval(10, 20)
        assert interval.take_left(3) == Interval(10, 13)
        assert interval.take_left(100) == interval

    def test_iter(self):
        assert list(Interval(3, 6)) == [3, 4, 5]


class TestSplitEven:
    def test_exact_division(self):
        pieces = Interval(0, 12).split_even(3)
        assert [p.length for p in pieces] == [4, 4, 4]

    def test_remainder_spread_left(self):
        pieces = Interval(0, 10).split_even(3)
        assert [p.length for p in pieces] == [4, 3, 3]

    def test_min_length_limits_parts(self):
        pieces = Interval(0, 25).split_even(10, min_length=10)
        assert len(pieces) == 2
        assert all(p.length >= 10 for p in pieces)

    def test_interval_smaller_than_min_gives_single_piece(self):
        pieces = Interval(0, 5).split_even(3, min_length=10)
        assert pieces == (Interval(0, 5),)

    def test_empty_interval(self):
        assert Interval(3, 3).split_even(4) == ()

    def test_invalid_args(self):
        with pytest.raises(IntervalError):
            Interval(0, 10).split_even(0)
        with pytest.raises(IntervalError):
            Interval(0, 10).split_even(2, min_length=0)

    @given(intervals(), st.integers(1, 8), st.integers(1, 8))
    def test_pieces_tile_interval(self, interval, parts, min_length):
        pieces = interval.split_even(parts, min_length)
        if interval.empty:
            assert pieces == ()
            return
        assert pieces[0].start == interval.start
        assert pieces[-1].end == interval.end
        for left, right in zip(pieces, pieces[1:]):
            assert left.end == right.start
        assert len(pieces) <= parts


# -- IntervalSet vs reference model --------------------------------------------------


class TestIntervalSetBasics:
    def test_add_merges_overlaps(self):
        iset = IntervalSet([Interval(0, 5), Interval(3, 8)])
        assert iset.pairs() == [(0, 8)]

    def test_add_merges_adjacent(self):
        iset = IntervalSet([Interval(0, 5), Interval(5, 8)])
        assert iset.pairs() == [(0, 8)]

    def test_disjoint_stay_separate(self):
        iset = IntervalSet([Interval(0, 3), Interval(5, 8)])
        assert iset.pairs() == [(0, 3), (5, 8)]

    def test_empty_interval_ignored(self):
        iset = IntervalSet([Interval(4, 4)])
        assert not iset

    def test_measure(self):
        iset = IntervalSet([Interval(0, 3), Interval(10, 14)])
        assert iset.measure() == 7

    def test_remove_splits(self):
        iset = IntervalSet([Interval(0, 10)])
        iset.remove(Interval(3, 6))
        assert iset.pairs() == [(0, 3), (6, 10)]

    def test_contains_point(self):
        iset = IntervalSet([Interval(2, 5)])
        assert iset.contains_point(2)
        assert not iset.contains_point(5)
        assert not iset.contains_point(0)

    def test_covers(self):
        iset = IntervalSet([Interval(0, 10)])
        assert iset.covers(Interval(2, 8))
        assert not iset.covers(Interval(8, 12))
        assert iset.covers(Interval(3, 3))

    def test_equality_is_canonical(self):
        a = IntervalSet([Interval(0, 3), Interval(3, 6)])
        b = IntervalSet([Interval(0, 6)])
        assert a == b
        assert hash(a) == hash(b)

    def test_copy_is_independent(self):
        a = IntervalSet([Interval(0, 5)])
        b = a.copy()
        b.add(Interval(10, 12))
        assert a.pairs() == [(0, 5)]

    def test_overlap_measure(self):
        iset = IntervalSet([Interval(0, 4), Interval(10, 14)])
        assert iset.overlap_measure(Interval(2, 12)) == 2 + 2


class TestAddMeasure:
    """``add_measure`` inserts like ``add`` and returns the points that
    were new, in one pass; it must agree with ``overlap_measure``
    followed by ``add``."""

    @staticmethod
    def two_pass(iset: IntervalSet, interval: Interval) -> int:
        fresh = interval.length - iset.overlap_measure(interval)
        iset.add(interval)
        return fresh

    @pytest.mark.parametrize(
        "pairs, interval, fresh, after",
        [
            ([], Interval(3, 7), 4, [(3, 7)]),  # into an empty set
            ([(0, 5)], Interval(5, 5), 0, [(0, 5)]),  # empty interval
            ([(0, 5)], Interval(5, 8), 3, [(0, 8)]),  # adjacent on the right
            ([(5, 8)], Interval(0, 5), 5, [(0, 8)]),  # adjacent on the left
            ([(0, 5)], Interval(3, 8), 3, [(0, 8)]),  # overlapping
            ([(2, 4), (6, 8)], Interval(0, 10), 6, [(0, 10)]),  # containing
            ([(0, 10)], Interval(2, 6), 0, [(0, 10)]),  # contained
            ([(0, 3), (5, 8)], Interval(3, 5), 2, [(0, 8)]),  # bridging
            ([(0, 3), (9, 12)], Interval(5, 7), 2, [(0, 3), (5, 7), (9, 12)]),
        ],
    )
    def test_cases(self, pairs, interval, fresh, after):
        iset = IntervalSet.from_pairs(pairs)
        assert iset.add_measure(interval.start, interval.end) == fresh
        assert iset.pairs() == after
        iset.check_invariants()

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_walk_matches_two_pass(self, seed):
        rng = random.Random(seed)
        fused, reference = IntervalSet(), IntervalSet()
        for _ in range(400):
            start = rng.randrange(0, 500)
            interval = Interval(start, start + rng.randrange(0, 30))
            assert fused.add_measure(interval.start, interval.end) == self.two_pass(
                reference, interval
            )
            fused.check_invariants()
            assert fused == reference

    @settings(max_examples=150)
    @given(interval_lists, intervals())
    def test_matches_pointwise(self, items, probe):
        iset = IntervalSet(items)
        before = points_of_set(iset)
        assert iset.add_measure(probe.start, probe.end) == len(points_of(probe) - before)
        iset.check_invariants()
        assert points_of_set(iset) == before | points_of(probe)


class TestIntervalSetProperties:
    @settings(max_examples=150)
    @given(interval_lists)
    def test_canonical_form(self, items):
        iset = IntervalSet(items)
        iset.check_invariants()

    @settings(max_examples=150)
    @given(interval_lists)
    def test_union_matches_pointwise(self, items):
        iset = IntervalSet(items)
        expected = set().union(*(points_of(i) for i in items)) if items else set()
        assert points_of_set(iset) == expected

    @settings(max_examples=150)
    @given(interval_lists, intervals())
    def test_remove_matches_pointwise(self, items, to_remove):
        iset = IntervalSet(items)
        expected = points_of_set(iset) - points_of(to_remove)
        iset.remove(to_remove)
        iset.check_invariants()
        assert points_of_set(iset) == expected

    @settings(max_examples=150)
    @given(interval_lists, interval_lists)
    def test_set_operators_match_pointwise(self, a_items, b_items):
        a, b = IntervalSet(a_items), IntervalSet(b_items)
        pa, pb = points_of_set(a), points_of_set(b)
        assert points_of_set(a | b) == pa | pb
        assert points_of_set(a - b) == pa - pb
        assert points_of_set(a & b) == pa & pb

    @settings(max_examples=150)
    @given(interval_lists, intervals())
    def test_queries_match_pointwise(self, items, probe):
        iset = IntervalSet(items)
        pts = points_of_set(iset)
        probe_pts = points_of(probe)
        assert iset.overlap_measure(probe) == len(pts & probe_pts)
        assert iset.covers(probe) == (probe_pts <= pts)
        assert points_of_set(iset.intersection_with(probe)) == pts & probe_pts

    @settings(max_examples=100)
    @given(interval_lists, st.integers(min_value=0, max_value=160))
    def test_contains_point_matches(self, items, point):
        iset = IntervalSet(items)
        assert iset.contains_point(point) == (point in points_of_set(iset))


class TestHelpers:
    def test_complement(self):
        got = complement(Interval(0, 10), IntervalSet([Interval(2, 4), Interval(6, 8)]))
        assert got.pairs() == [(0, 2), (4, 6), (8, 10)]

    def test_complement_of_interval(self):
        assert complement(Interval(0, 10), Interval(0, 10)).measure() == 0

    @settings(max_examples=100)
    @given(intervals(), interval_lists)
    def test_complement_partitions_universe(self, universe, covered):
        cov = IntervalSet(covered)
        comp = complement(universe, cov)
        universe_pts = points_of(universe)
        assert points_of_set(comp) == universe_pts - points_of_set(cov)

    def test_partition_by(self):
        pieces = partition_by(Interval(0, 10), [4, 7])
        assert pieces == [Interval(0, 4), Interval(4, 7), Interval(7, 10)]

    def test_partition_by_ignores_out_of_range(self):
        pieces = partition_by(Interval(5, 10), [0, 5, 10, 20])
        assert pieces == [Interval(5, 10)]

    @settings(max_examples=100)
    @given(intervals(), st.lists(POINT, max_size=10))
    def test_partition_tiles_interval(self, interval, cuts):
        pieces = partition_by(interval, cuts)
        if interval.empty:
            assert pieces == []
            return
        assert pieces[0].start == interval.start
        assert pieces[-1].end == interval.end
        for left, right in zip(pieces, pieces[1:]):
            assert left.end == right.start
            assert not left.empty and not right.empty


# -- RunMap: the span-and-splice primitive under the data layer ---------------------

#: Payloads of the generated runs: few, so abutting equal payloads (which
#: must merge) are common; ``None`` leaves a gap.
PAYLOADS = st.sampled_from([None, 0, 1, 2])


@st.composite
def splices(draw):
    """A query range, the index range to replace (the runs it overlaps,
    optionally widened to the abutting ones), and the new runs tiling
    parts of the range."""
    start = draw(st.integers(0, 60))
    end = start + draw(st.integers(0, 25))
    cuts = sorted(set(draw(st.lists(st.integers(start, end), max_size=5))) | {start, end})
    runs = [
        (a, b, value)
        for (a, b), value in zip(zip(cuts, cuts[1:]), draw(st.lists(PAYLOADS, min_size=len(cuts))))
        if value is not None
    ]
    return start, end, draw(st.booleans()), runs


class TestRunMap:
    """Random splices against a per-point model: the map holds the same
    payload at every point and stays canonical after every call."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(splices(), max_size=15))
    def test_splices_match_pointwise_model(self, operations):
        runs = RunMap()
        model = {}
        for start, end, widen, new_runs in operations:
            lo, hi = runs.span(start, end)
            if widen and lo > 0 and runs._ends[lo - 1] == start:
                lo -= 1
            if widen and hi < len(runs) and runs._starts[hi] == end:
                hi += 1
            for a, b in zip(runs._starts[lo:hi], runs._ends[lo:hi]):
                for point in range(a, b):
                    del model[point]
            for a, b, value in new_runs:
                for point in range(a, b):
                    model[point] = value
            runs.splice(
                lo,
                hi,
                [a for a, _, _ in new_runs],
                [b for _, b, _ in new_runs],
                [value for _, _, value in new_runs],
            )
            runs.check()
            for point in range(-1, 90):
                assert runs.value_at(point) == model.get(point)
            assert runs.overlap(start, end) == sum(1 for p in range(start, end) if p in model)

    def test_span(self):
        runs = RunMap()
        runs.splice(0, 0, [0, 20], [10, 30], [1, 2])
        assert runs.span(10, 20) == (1, 1)
        assert runs.span(5, 25) == (0, 2)
        lo, hi = runs.span(5, 5)
        assert lo == hi

    @pytest.mark.parametrize(
        "starts, ends, values, message",
        [
            ([0, 10], [10, 10], [1, 2], "empty run"),
            ([0, 5], [10, 20], [1, 2], "overlap"),
            ([0, 10], [10, 20], [1, 1], "share 1"),
        ],
    )
    def test_check_rejects(self, starts, ends, values, message):
        runs = RunMap()
        runs._starts[:] = starts
        runs._ends[:] = ends
        runs._values[:] = values
        with pytest.raises(InvariantViolation, match=message):
            runs.check()
