"""The ``repro.perf`` benchmark-regression harness.

Three concerns:

* the ``BENCH_scale.json`` schema round-trips exactly (and rejects foreign
  schema versions),
* the committed-baseline comparison flags real slowdowns and nothing
  else,
* the optimized kernel is still the *same simulator*: metrics are
  bit-identical to the pre-optimization goldens, with the sim-sanitizer
  (``check_invariants=True``) watching the heap the whole time.
"""

from __future__ import annotations

import json
import os
import pickle

import pytest

from repro.core import units
from repro.perf import (
    DEFAULT_THRESHOLD,
    REPORT_FILENAME,
    BenchRecord,
    BenchReport,
    compare_reports,
    load_baseline,
    render_report,
    scale_config,
    scale_point,
)
from repro.perf.report import peak_rss_kb

# Aliased imports: pytest collects ``bench_*`` names (the benchmarks/
# directory convention), so the plain names would be mistaken for tests.
from repro.perf import bench_point as time_point
from repro.perf import bench_points as points_of
from repro.sched import available_policies
from repro.sim.config import paper_config, quick_config
from repro.sim.simulator import run_simulation

GOLDENS = os.path.join(os.path.dirname(__file__), "goldens", "seed_metrics.json")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _report(**overrides) -> BenchReport:
    defaults = dict(
        kind="scale",
        records=(
            BenchRecord(
                name="sim.scale.n10",
                wall_seconds=0.5,
                work=100_000,
                unit="events",
                repeats=1,
            ),
            BenchRecord(
                name="sim.quick.farm",
                wall_seconds=0.25,
                work=50_000,
                unit="events",
                repeats=1,
            ),
        ),
    )
    defaults.update(overrides)
    return BenchReport(**defaults)


# -- schema round-trip --------------------------------------------------------


class TestSchema:
    def test_json_round_trip_is_exact(self):
        report = _report()
        assert BenchReport.from_json(report.to_json()) == report

    def test_file_round_trip(self, tmp_path):
        report = _report()
        path = tmp_path / REPORT_FILENAME
        report.write(str(path))
        assert BenchReport.read(str(path)) == report

    def test_write_creates_parent_directories(self, tmp_path):
        report = _report()
        path = tmp_path / "nested" / "dir" / REPORT_FILENAME
        report.write(str(path))
        assert path.exists()

    def test_schema_version_is_stamped(self):
        payload = json.loads(_report().to_json())
        assert payload["schema_version"] == 1
        assert "git_sha" in payload
        assert "peak_rss_kb" in payload

    def test_foreign_schema_version_rejected(self):
        payload = json.loads(_report().to_json())
        payload["schema_version"] = 99
        with pytest.raises(ValueError, match="schema version"):
            BenchReport.from_dict(payload)

    def test_throughput_derivation(self):
        record = BenchRecord(
            name="x", wall_seconds=0.5, work=100, unit="ops", repeats=1
        )
        assert record.throughput == 200.0
        zero = BenchRecord(name="x", wall_seconds=0.0, work=100, unit="ops", repeats=1)
        assert zero.throughput == 0.0

    def test_render_report_mentions_every_record(self):
        text = render_report(_report())
        assert "sim.scale.n10" in text
        assert "sim.quick.farm" in text

    def test_rss_kb_round_trips_and_is_omitted_when_absent(self):
        with_rss = BenchRecord(
            name="sim.scale.n10", wall_seconds=1.0, work=1000,
            unit="events", repeats=1, rss_kb=54_321,
        )
        assert "rss_kb" not in _report().records[0].as_dict()
        assert with_rss.as_dict()["rss_kb"] == 54_321
        assert BenchRecord.from_dict(with_rss.as_dict()) == with_rss
        report = BenchReport(kind="scale", records=(with_rss,))
        assert BenchReport.from_json(report.to_json()) == report
        assert "rss 53 MiB" in render_report(report)


# -- baseline comparison ------------------------------------------------------


def _single(name: str, wall_seconds: float) -> BenchReport:
    return BenchReport(
        kind="scale",
        records=(
            BenchRecord(
                name=name, wall_seconds=wall_seconds, work=1000, unit="ops", repeats=1
            ),
        ),
    )


class TestBaseline:
    def test_equal_speed_passes(self):
        result = compare_reports(
            _single("a", 1.0), _single("a", 1.0)
        )
        assert not result.regressed
        assert result.compared[0].slowdown == pytest.approx(1.0)

    def test_slowdown_beyond_threshold_fails(self):
        result = compare_reports(
            _single("a", 3.0), _single("a", 1.0), threshold=2.0
        )
        assert result.regressed
        assert "REGRESSED" in result.describe()

    def test_slowdown_within_threshold_passes(self):
        result = compare_reports(
            _single("a", 1.5), _single("a", 1.0), threshold=2.0
        )
        assert not result.regressed

    def test_speedup_never_fails(self):
        result = compare_reports(
            _single("a", 0.1), _single("a", 1.0), threshold=2.0
        )
        assert not result.regressed
        assert result.compared[0].slowdown < 1.0

    def test_records_counting_different_units_are_refused(self):
        # A baseline of engine events/s against dispatches/s would gate
        # nothing: a change that cuts engine events reads as a slowdown.
        events = BenchReport(
            kind="scale",
            records=(
                BenchRecord(
                    name="a", wall_seconds=1.0, work=1000, unit="events", repeats=1
                ),
            ),
        )
        with pytest.raises(ValueError, match="counts ops but the baseline counts events"):
            compare_reports(_single("a", 1.0), events)
        # Unmatched records are never compared, whatever their unit.
        assert not compare_reports(_single("b", 1.0), events).compared

    def test_unmatched_records_reported_but_not_failing(self):
        current = _single("sim.quick.farm", 1.0)
        baseline = _single("sim.scale.n1000", 1.0)
        result = compare_reports(current, baseline, threshold=DEFAULT_THRESHOLD)
        assert not result.regressed
        assert result.compared == ()
        assert result.only_current == ("sim.quick.farm",)
        assert result.only_baseline == ("sim.scale.n1000",)

    def _scale_report(self, wall_seconds: float, rss_kb) -> BenchReport:
        return BenchReport(
            kind="scale",
            records=(
                BenchRecord(
                    name="sim.scale.n100", wall_seconds=wall_seconds,
                    work=1000, unit="events", repeats=1, rss_kb=rss_kb,
                ),
            ),
        )

    def test_rss_growth_beyond_threshold_fails(self):
        result = compare_reports(
            self._scale_report(1.0, rss_kb=300_000),
            self._scale_report(1.0, rss_kb=100_000),
            rss_threshold=2.0,
        )
        assert result.regressed
        assert result.compared[0].rss_regressed
        assert result.compared[0].slowdown == pytest.approx(1.0)
        assert "rss  3.00x" in result.describe()

    def test_rss_growth_within_threshold_passes(self):
        result = compare_reports(
            self._scale_report(1.0, rss_kb=150_000),
            self._scale_report(1.0, rss_kb=100_000),
            rss_threshold=2.0,
        )
        assert not result.regressed
        assert result.compared[0].rss_growth == pytest.approx(1.5)

    def test_missing_rss_on_either_side_disables_the_gate(self):
        result = compare_reports(
            self._scale_report(1.0, rss_kb=900_000),
            self._scale_report(1.0, rss_kb=None),
        )
        assert not result.regressed
        assert result.compared[0].rss_growth is None

    def test_zero_current_throughput_is_infinite_slowdown(self):
        broken = _single("a", 0.0)  # wall 0 -> throughput 0
        result = compare_reports(broken, _single("a", 1.0))
        assert result.compared[0].slowdown == float("inf")
        assert result.regressed

    def test_load_baseline_missing_returns_none(self, tmp_path):
        assert load_baseline(str(tmp_path)) is None

    def test_load_baseline_round_trip(self, tmp_path):
        report = _report()
        report.write(str(tmp_path / REPORT_FILENAME))
        loaded = load_baseline(str(tmp_path))
        assert loaded == report

    def test_committed_baselines_exist_at_repo_root(self):
        baseline = load_baseline(ROOT)
        assert baseline is not None, f"missing committed {REPORT_FILENAME}"
        assert baseline.kind == "scale"
        assert all(r.throughput > 0 for r in baseline.records)

    def test_committed_scale_baseline_carries_rss(self):
        # compare_reports only lists a record missing from either side, so
        # the committed records must be exactly the full-mode points (the
        # quick ones among them), each with a memory figure: a stale
        # record would sit there unnoticed, and a point without a
        # committed record would run ungated.
        baseline = load_baseline(ROOT)
        assert baseline is not None
        points = points_of()
        assert sorted(record.name for record in baseline.records) == sorted(
            point.name for point in points
        )
        for point in points:
            record = baseline.record(point.name)
            assert record is not None
            assert record.unit == "dispatches"
            assert record.rss_kb is not None and record.rss_kb > 0, point.name


# -- harness smoke ------------------------------------------------------------


class TestHarness:
    def test_scale_point_in_process(self):
        record = time_point(scale_point(3, duration_days=0.1), in_process=True)
        assert record.name == "sim.scale.n3"
        assert record.unit == "dispatches"
        assert record.work > 0
        assert record.rss_kb is not None and record.rss_kb > 0

    def test_scale_config_scales_load_with_nodes(self):
        small, large = scale_config(10), scale_config(1000)
        assert large.n_nodes == 1000
        assert large.arrival_rate_per_hour == pytest.approx(
            100 * small.arrival_rate_per_hour
        )
        # The tier's seed is dedicated — not the test fixtures' seed 0.
        assert small.seed == large.seed == 7

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/status"), reason="needs Linux /proc"
    )
    def test_spawned_point_reports_its_own_peak_not_the_parents(self):
        # Linux carries ru_maxrss across fork and exec: a child spawned
        # from a large parent would report the parent's peak.
        ballast = b"\x01" * (160 * 1024 * 1024)  # resident, not just mapped
        parent_peak = peak_rss_kb()
        record = time_point(scale_point(3, duration_days=0.05))
        del ballast
        assert parent_peak > 160 * 1024
        assert 0 < record.rss_kb < parent_peak - 100 * 1024

    def test_points_cover_every_policy_tier_and_size(self):
        quick = [point.name for point in points_of(quick=True)]
        policies = available_policies()
        assert len(policies) == 10
        assert quick == (
            ["sim.scale.n10", "sim.scale.n100"]
            + ["sim.scale.ooo.n10", "sim.scale.ooo.n100"]
            + [f"sim.quick.{policy}" for policy in policies]
            + ["sim.tier.d1", "sim.tier.d2", "sim.tier.d3"]
        )
        full = [point.name for point in points_of()]
        assert full == (
            quick[:2] + ["sim.scale.n1000"]
            + quick[2:4] + ["sim.scale.ooo.n1000"]
            + quick[4:]
        )

    def test_points_pickle_for_the_spawned_child(self):
        for point in points_of(quick=True):
            assert pickle.loads(pickle.dumps(point)) == point


# -- determinism: optimized kernel == seed goldens ---------------------------


def _snap(result) -> dict:
    return {
        "engine_events": result.engine_events,
        "events_by_source": result.events_by_source,
        "jobs_arrived": result.jobs_arrived,
        "jobs_completed": result.jobs_completed,
        "mean_processing": result.measured.mean_processing,
        "mean_sojourn": result.measured.mean_sojourn,
        "mean_speedup": result.measured.mean_speedup,
        "mean_waiting": result.measured.mean_waiting,
        "mean_waiting_excl_delay": result.measured.mean_waiting_excl_delay,
        "n_jobs": result.measured.n_jobs,
        "node_utilization": result.node_utilization,
        "overloaded": result.overload.overloaded,
        "p95_waiting": result.measured.p95_waiting,
        "tertiary_distinct_events": result.tertiary_distinct_events,
        "tertiary_redundancy": result.tertiary_redundancy,
        "tertiary_events_read": result.tertiary_events_read,
    }


def _golden() -> dict:
    with open(GOLDENS, "r", encoding="utf-8") as handle:
        return json.load(handle)


#: quick/delayed was recorded with an 11-hour period and 500-event
#: stripes; every other golden uses the policy defaults.
_GOLDEN_PARAMS = {"delayed": {"period": 11 * units.HOUR, "stripe_events": 500}}

_QUICK_POLICIES = (
    "adaptive",
    "cache-splitting",
    "delayed",
    "farm",
    "mixed",
    "out-of-order",
    "replication",
    "splitting",
)


class TestDeterminism:
    @pytest.mark.parametrize("policy", _QUICK_POLICIES)
    def test_quick_metrics_bit_identical_to_goldens(self, policy):
        golden = _golden()[f"quick/{policy}"]
        result = run_simulation(
            quick_config(),
            policy,
            check_invariants=True,
            **_GOLDEN_PARAMS.get(policy, {}),
        )
        snap = _snap(result)
        assert {key: snap[key] for key in golden} == golden

    def test_paper5d_out_of_order_bit_identical_to_golden(self):
        golden = _golden()["paper5d/out-of-order"]
        result = run_simulation(
            paper_config(duration=5 * units.DAY, arrival_rate_per_hour=1.6),
            "out-of-order",
            check_invariants=True,
        )
        snap = _snap(result)
        assert {key: snap[key] for key in golden} == golden
