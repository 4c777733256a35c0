"""Tests for DataSpace and TertiaryStorage."""

import pytest

from repro.core import units
from repro.core.errors import ConfigurationError
from repro.data.dataspace import DataSpace
from repro.data.intervals import Interval
from repro.data.tertiary import TertiaryStorage


class TestDataSpace:
    def test_paper_dimensions(self):
        space = DataSpace.from_bytes(2 * units.TB, 600 * units.KB)
        assert space.total_events == 3_333_333
        assert space.event_bytes == 600_000

    def test_conversions(self):
        space = DataSpace(total_events=1000, event_bytes=600_000)
        assert space.events_to_bytes(10) == 6_000_000
        assert space.bytes_to_events(6_000_000) == 10
        assert space.bytes_to_events(599_999) == 0
        assert space.total_bytes == 600_000_000

    def test_universe_and_clamp(self):
        space = DataSpace(total_events=100, event_bytes=1)
        assert space.universe == Interval(0, 100)
        assert space.clamp(Interval(50, 200)) == Interval(50, 100)

    def test_validate_segment(self):
        space = DataSpace(total_events=100, event_bytes=1)
        assert space.validate_segment(Interval(0, 100)) == Interval(0, 100)
        with pytest.raises(ConfigurationError):
            space.validate_segment(Interval(50, 101))
        with pytest.raises(ConfigurationError):
            space.validate_segment(Interval(-1, 10))

    def test_invalid_construction(self):
        with pytest.raises(ConfigurationError):
            DataSpace(total_events=0, event_bytes=1)
        with pytest.raises(ConfigurationError):
            DataSpace(total_events=10, event_bytes=0)
        with pytest.raises(ConfigurationError):
            DataSpace.from_bytes(100, 0)


class TestTertiaryStorage:
    def test_read_accounting(self, dataspace):
        storage = TertiaryStorage(dataspace)
        storage.read(0, 0, 100)
        storage.read(1, 50, 150)
        assert storage.stats.events_read == 200
        assert storage.stats.read_requests == 2
        assert storage.stats.events_read_per_node == {0: 100, 1: 100}

    def test_distinct_and_redundancy(self, dataspace):
        storage = TertiaryStorage(dataspace)
        storage.read(0, 0, 100)
        storage.read(1, 0, 100)
        assert storage.distinct_events_read == 100
        assert storage.redundancy_factor == pytest.approx(2.0)

    def test_unique_fraction_tracks_fresh_reads(self, dataspace):
        # Regression: unique_fraction used to return a constant 0.0/1.0
        # instead of distinct/total.
        storage = TertiaryStorage(dataspace)
        assert storage.stats.unique_fraction == 0.0
        storage.read(0, 0, 100)
        assert storage.stats.unique_fraction == pytest.approx(1.0)
        storage.read(1, 0, 100)  # full re-read: nothing fresh
        assert storage.stats.distinct_events_read == 100
        assert storage.stats.unique_fraction == pytest.approx(0.5)
        storage.read(0, 50, 150)  # half fresh, half re-read
        assert storage.stats.distinct_events_read == 150
        assert storage.stats.unique_fraction == pytest.approx(150 / 300)
        # The incremental counter matches the interval-set ground truth
        # and the redundancy factor stays its exact inverse.
        assert storage.stats.distinct_events_read == storage._distinct.measure()
        assert storage.stats.unique_fraction == pytest.approx(
            1.0 / storage.redundancy_factor
        )

    def test_empty_read_ignored(self, dataspace):
        storage = TertiaryStorage(dataspace)
        storage.read(0, 5, 5)
        assert storage.stats.events_read == 0
        assert storage.redundancy_factor == 1.0

    def test_out_of_space_read_raises(self, dataspace):
        storage = TertiaryStorage(dataspace)
        with pytest.raises(ConfigurationError):
            storage.read(0, 0, dataspace.total_events + 1)
