"""Tests for workload characterization (generator round-trip)."""

import pytest

from repro.core import units
from repro.core.errors import WorkloadError
from repro.core.rng import RandomStreams
from repro.data.dataspace import DataSpace
from repro.exec import Executor
from repro.workload.characterize import (
    characterize,
    estimate_arrivals,
    estimate_job_size,
    find_hot_regions,
)
from repro.workload.distributions import (
    ErlangJobSize,
    HotspotStartDistribution,
    uniform_start_distribution,
)
from repro.workload.generator import WorkloadGenerator
from repro.workload.jobs import JobRequest


@pytest.fixture(scope="module")
def space():
    return DataSpace(total_events=1_000_000, event_bytes=600 * units.KB)


@pytest.fixture(scope="module")
def paper_like_trace(space):
    generator = WorkloadGenerator(
        dataspace=space,
        arrival_rate_per_hour=2.0,
        job_size=ErlangJobSize(5_000, 4),
        start_distribution=HotspotStartDistribution(space),
        streams=RandomStreams(17),
    )
    return generator.generate_list(60 * units.DAY)


class TestRoundTrip:
    def test_arrival_rate_recovered(self, paper_like_trace):
        estimate = estimate_arrivals(paper_like_trace)
        assert estimate.rate_per_hour == pytest.approx(2.0, rel=0.08)
        assert estimate.poisson_like

    def test_erlang_shape_recovered(self, paper_like_trace):
        estimate = estimate_job_size(paper_like_trace)
        assert estimate.mean_events == pytest.approx(5_000, rel=0.05)
        assert estimate.erlang_shape == 4

    def test_hot_regions_found(self, paper_like_trace, space):
        regions = find_hot_regions(paper_like_trace, space.total_events)
        assert 1 <= len(regions) <= 3
        total_share = sum(r.start_share for r in regions)
        # The paper's hot half of the starts, found from data alone.
        assert total_share == pytest.approx(0.5, abs=0.1)

    def test_full_profile(self, paper_like_trace, space):
        profile = characterize(paper_like_trace, space.total_events)
        assert profile.n_jobs == len(paper_like_trace)
        assert profile.span_days == pytest.approx(60, abs=3)
        rows = profile.summary_rows()
        assert any("hot region" in str(row[0]) for row in rows)


class TestUniformTrace:
    def test_no_hot_regions_detected(self, space):
        generator = WorkloadGenerator(
            dataspace=space,
            arrival_rate_per_hour=2.0,
            job_size=ErlangJobSize(5_000, 4),
            start_distribution=uniform_start_distribution(space),
            streams=RandomStreams(18),
        )
        trace = generator.generate_list(40 * units.DAY)
        assert find_hot_regions(trace, space.total_events) == ()


class TestValidation:
    def test_too_few_jobs(self):
        with pytest.raises(WorkloadError):
            estimate_arrivals([JobRequest(0, 0.0, 0, 10)])

    def test_unsorted_trace(self):
        trace = [
            JobRequest(0, 100.0, 0, 10),
            JobRequest(1, 50.0, 0, 10),
            JobRequest(2, 150.0, 0, 10),
        ]
        with pytest.raises(WorkloadError):
            estimate_arrivals(trace)

    def test_empty_trace(self, space):
        with pytest.raises(WorkloadError):
            characterize([], space.total_events)

    def test_bad_total_events(self):
        with pytest.raises(WorkloadError):
            find_hot_regions([JobRequest(0, 0.0, 0, 10)], 0)

    def test_simultaneous_arrivals(self):
        trace = [JobRequest(i, 5.0, 0, 10) for i in range(5)]
        with pytest.raises(WorkloadError):
            estimate_arrivals(trace)


class TestGnuplotExport:
    def test_export_sweep(self, tmp_path):
        from repro.experiments.gnuplot import export_sweep
        from repro.sim.config import quick_config
        from repro.sim.runner import load_sweep, run_sweep

        sweep = run_sweep(
            load_sweep(
                quick_config(duration=2 * units.DAY), "farm", [1.0, 2.0]
            ),
            executor=Executor(jobs=1),
        )
        script = export_sweep(sweep, tmp_path / "fig", title="demo")
        assert script.exists()
        content = script.read_text()
        assert "set logscale y" in content
        assert "farm.speedup.dat" in content
        dat = (tmp_path / "fig" / "farm.speedup.dat").read_text()
        assert dat.startswith("# farm")
        assert len(dat.strip().splitlines()) == 3  # header + 2 loads
