"""The ``repro.perf`` benchmark-regression harness.

Three concerns:

* the ``BENCH_*.json`` schema round-trips exactly (and rejects foreign
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

import pytest

from repro.core import units
from repro.perf import (
    DEFAULT_THRESHOLD,
    BenchRecord,
    BenchReport,
    Hotspot,
    compare_reports,
    load_baseline,
    profile_call,
    render_report,
    report_filename,
    run_kernel_bench,
    scale_config,
)

# Aliased import: pytest collects ``bench_*`` names (the benchmarks/
# directory convention), so the plain name would be mistaken for a test.
from repro.perf import bench_scale_point as scale_point
from repro.sim.config import paper_config, quick_config
from repro.sim.simulator import run_simulation

GOLDENS = os.path.join(os.path.dirname(__file__), "goldens", "seed_metrics.json")


def _report(**overrides) -> BenchReport:
    defaults = dict(
        kind="kernel",
        records=(
            BenchRecord(
                name="engine.dispatch",
                wall_seconds=0.5,
                work=100_000,
                unit="events",
                repeats=3,
                hotspots=(
                    Hotspot(
                        function="engine.py:180(run)",
                        calls=1,
                        total_seconds=0.4,
                        cumulative_seconds=0.5,
                    ),
                ),
            ),
            BenchRecord(
                name="cache.lru_ops",
                wall_seconds=0.25,
                work=50_000,
                unit="ops",
                repeats=3,
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
        path = tmp_path / report_filename(report.kind)
        report.write(str(path))
        assert BenchReport.read(str(path)) == report

    def test_write_creates_parent_directories(self, tmp_path):
        report = _report()
        path = tmp_path / "nested" / "dir" / "BENCH_kernel.json"
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
        assert "engine.dispatch" in text
        assert "cache.lru_ops" in text

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


def _single(kind: str, name: str, wall_seconds: float) -> BenchReport:
    return BenchReport(
        kind=kind,
        records=(
            BenchRecord(
                name=name, wall_seconds=wall_seconds, work=1000, unit="ops", repeats=1
            ),
        ),
    )


class TestBaseline:
    def test_equal_speed_passes(self):
        result = compare_reports(
            _single("kernel", "a", 1.0), _single("kernel", "a", 1.0)
        )
        assert not result.regressed
        assert result.compared[0].slowdown == pytest.approx(1.0)

    def test_slowdown_beyond_threshold_fails(self):
        result = compare_reports(
            _single("kernel", "a", 3.0), _single("kernel", "a", 1.0), threshold=2.0
        )
        assert result.regressed
        assert "REGRESSED" in result.describe()

    def test_slowdown_within_threshold_passes(self):
        result = compare_reports(
            _single("kernel", "a", 1.5), _single("kernel", "a", 1.0), threshold=2.0
        )
        assert not result.regressed

    def test_speedup_never_fails(self):
        result = compare_reports(
            _single("kernel", "a", 0.1), _single("kernel", "a", 1.0), threshold=2.0
        )
        assert not result.regressed
        assert result.compared[0].slowdown < 1.0

    def test_unmatched_records_reported_but_not_failing(self):
        current = _single("policies", "sim.quick.farm", 1.0)
        baseline = _single("policies", "sim.fig5.out-of-order", 1.0)
        result = compare_reports(current, baseline, threshold=DEFAULT_THRESHOLD)
        assert not result.regressed
        assert result.compared == ()
        assert result.only_current == ("sim.quick.farm",)
        assert result.only_baseline == ("sim.fig5.out-of-order",)

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
        broken = _single("kernel", "a", 0.0)  # wall 0 -> throughput 0
        result = compare_reports(broken, _single("kernel", "a", 1.0))
        assert result.compared[0].slowdown == float("inf")
        assert result.regressed

    def test_load_baseline_missing_returns_none(self, tmp_path):
        assert load_baseline(str(tmp_path), "kernel") is None

    def test_load_baseline_round_trip(self, tmp_path):
        report = _report()
        report.write(str(tmp_path / report_filename("kernel")))
        loaded = load_baseline(str(tmp_path), "kernel")
        assert loaded == report

    def test_committed_baselines_exist_at_repo_root(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        for kind in ("kernel", "policies", "scale"):
            baseline = load_baseline(root, kind)
            assert baseline is not None, f"missing committed BENCH_{kind}.json"
            assert baseline.kind == kind
            assert all(r.throughput > 0 for r in baseline.records)

    def test_committed_scale_baseline_carries_rss(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        baseline = load_baseline(root, "scale")
        assert baseline is not None
        names = [r.name for r in baseline.records]
        assert names == ["sim.scale.n10", "sim.scale.n100", "sim.scale.n1000"]
        assert all(r.rss_kb is not None and r.rss_kb > 0 for r in baseline.records)


# -- harness smoke ------------------------------------------------------------


class TestHarness:
    def test_quick_kernel_bench_produces_all_records(self):
        report = run_kernel_bench(quick=True)
        names = [record.name for record in report.records]
        assert names == [
            "engine.dispatch",
            "engine.cancel_churn",
            "intervals.arith",
            "intervals.set_ops",
            "cache.lru_ops",
            "node.chunk_loop",
            "exec.fingerprint",
            "sched.bidding",
            "sched.netchannel",
            "lint.flow",
            "topo.route",
        ]
        for record in report.records:
            assert record.wall_seconds > 0
            assert record.throughput > 0

    def test_scale_point_in_process(self):
        record = scale_point(3, duration_days=0.1, in_process=True)
        assert record.name == "sim.scale.n3"
        assert record.unit == "events"
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

    def test_profile_call_returns_value_and_hotspots(self):
        value, hotspots = profile_call(lambda: sum(range(10_000)), top_n=5)
        assert value == sum(range(10_000))
        assert len(hotspots) <= 5
        for spot in hotspots:
            assert spot.calls >= 1
            assert spot.total_seconds >= 0.0


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
