"""Tests for result/record export (repro.sim.export)."""

import json

import pytest

from repro.core import units
from repro.exec import Executor
from repro.sim.config import FaultConfig, NetFaultConfig, quick_config
from repro.sim.export import (
    SCHEMA_VERSION,
    load_records_csv,
    load_result_json,
    result_summary_dict,
    write_backlog_csv,
    write_records_csv,
    write_result_json,
)
from repro.sim.metrics import BacklogSample
from repro.sim.runner import RunSpec, run_sweep
from repro.sim.simulator import run_simulation
from repro.topo.spec import topology_preset


@pytest.fixture(scope="module")
def result():
    return run_simulation(
        quick_config(seed=21, duration=3 * units.DAY, arrival_rate_per_hour=3.0),
        "out-of-order",
    )


class TestRecordsCsv:
    def test_roundtrip(self, result, tmp_path):
        path = tmp_path / "records.csv"
        count = write_records_csv(path, result.records)
        assert count == len(result.records) > 0
        loaded = load_records_csv(path)
        assert loaded == result.records

    def test_derived_columns_present(self, result, tmp_path):
        path = tmp_path / "records.csv"
        write_records_csv(path, result.records)
        header = path.read_text().splitlines()[0]
        for column in ("waiting_time", "speedup", "sojourn_time"):
            assert column in header

    def test_empty_records(self, tmp_path):
        path = tmp_path / "empty.csv"
        assert write_records_csv(path, []) == 0
        assert load_records_csv(path) == []


class TestBacklogCsv:
    def test_write(self, tmp_path):
        path = tmp_path / "backlog.csv"
        samples = [
            BacklogSample(time=0.0, jobs_in_system=1, busy_nodes=2),
            BacklogSample(time=10.0, jobs_in_system=3, busy_nodes=4),
        ]
        assert write_backlog_csv(path, samples) == 2
        lines = path.read_text().splitlines()
        assert lines[0] == "time,jobs_in_system,busy_nodes"
        assert lines[2] == "10.0,3,4"


class TestResultJson:
    def test_summary_dict_fields(self, result):
        payload = result_summary_dict(result)
        assert payload["policy"] == "out-of-order"
        assert payload["jobs_arrived"] == result.jobs_arrived
        assert payload["measured"]["n_jobs"] == result.measured.n_jobs
        assert "config" in payload
        assert isinstance(payload["overloaded"], bool)

    def test_json_serialisable(self, result, tmp_path):
        path = tmp_path / "summary.json"
        write_result_json(path, result)
        payload = json.loads(path.read_text())
        assert payload["policy"] == "out-of-order"
        assert payload["config"]["n_nodes"] == result.config.n_nodes

    def test_schema_version_stamped(self, result):
        payload = result_summary_dict(result)
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["policy_stats"] == result.policy_stats
        assert payload["events_by_source"] == result.events_by_source

    def test_load_roundtrip(self, result, tmp_path):
        path = tmp_path / "summary.json"
        write_result_json(path, result)
        loaded = load_result_json(path)
        assert loaded == json.loads(json.dumps(result_summary_dict(result)))
        assert loaded["schema_version"] == SCHEMA_VERSION
        assert "policy_stats" in loaded and "events_by_source" in loaded

    def test_load_upgrades_preversioned_files(self, result, tmp_path):
        path = tmp_path / "old.json"
        payload = result_summary_dict(result)
        del payload["schema_version"]
        del payload["policy_stats"]
        del payload["events_by_source"]
        path.write_text(json.dumps(payload, default=float))
        loaded = load_result_json(path)
        assert loaded["schema_version"] == 1
        assert loaded["policy_stats"] == {}
        assert loaded["events_by_source"] == {}

    def test_load_rejects_newer_schema(self, result, tmp_path):
        path = tmp_path / "future.json"
        payload = result_summary_dict(result)
        payload["schema_version"] = SCHEMA_VERSION + 1
        path.write_text(json.dumps(payload, default=float))
        with pytest.raises(ValueError, match="newer"):
            load_result_json(path)

    def test_load_rejects_missing_keys(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"schema_version": SCHEMA_VERSION}))
        with pytest.raises(ValueError, match="missing keys"):
            load_result_json(path)


#: The nested summary sections' key order, as written to disk.
FAULTS_KEYS = [
    "failures", "stalls", "subjobs_aborted", "retries", "giveups",
    "lost_events", "lost_seconds", "downtime_seconds", "stall_seconds",
    "goodput", "degraded_makespan",
]
SCHED_KEYS = [
    "mode", "rounds", "rules_published", "bids", "grants", "messages",
    "control_bytes", "control_seconds", "subjobs_started", "retransmits",
    "duplicates_dropped", "timeouts", "dead_letters", "failovers",
    "messages_per_subjob",
]
TOPO_KEYS = [
    "depth", "placement", "tier_hit_events", "tier_miss_events",
    "replicated_events", "storage_event_seconds", "link_saturated_plans",
    "tiers",
]
TIER_KEYS = [
    "name", "parent", "level", "nodes", "cache_capacity_events",
    "cache_hit_events", "cache_miss_events", "cache_evicted_events",
    "storage_event_seconds", "link_events", "link_saturated_plans",
    "link_peak_streams",
]


@pytest.fixture(scope="module")
def chaos_config():
    """Faulted, lossy, depth-3: every nested summary section is filled."""
    return quick_config(
        n_nodes=8,
        arrival_rate_per_hour=12.0,
        duration=0.5 * units.DAY,
        seed=3,
        topology=topology_preset("depth3", "proactive-site"),
        net=NetFaultConfig(loss=0.1, duplicate=0.02, delay_mean=0.01, reorder=0.05),
        faults=FaultConfig(node_mtbf=2 * units.DAY, node_mttr=1 * units.HOUR),
    )


def _assert_nested_layout(entry):
    assert list(entry["faults"]) == FAULTS_KEYS
    assert list(entry["sched"]) == SCHED_KEYS
    assert list(entry["topo"]) == TOPO_KEYS
    assert isinstance(entry["topo"]["tiers"], list)
    assert list(entry["topo"]["tiers"][0]) == TIER_KEYS


class TestNestedSummaryLayout:
    def test_result_summary_dict(self, chaos_config):
        payload = result_summary_dict(run_simulation(chaos_config, "out-of-order"))
        _assert_nested_layout(payload)
        # In memory exactly what a reader gets back from disk.
        nested = {key: payload[key] for key in ("faults", "sched", "topo")}
        assert json.loads(json.dumps(nested, default=float)) == nested

    def test_sweep_json(self, chaos_config):
        sweep = run_sweep(
            [RunSpec.make(chaos_config, "decentral")],
            executor=Executor(jobs=1),
        )
        (entry,) = json.loads(sweep.to_json())["results"]
        _assert_nested_layout(entry)


class TestCliIntegration:
    def test_simulate_dump_flags(self, tmp_path, capsys):
        from repro.cli import main

        records = tmp_path / "r.csv"
        summary = tmp_path / "s.json"
        code = main(
            [
                "simulate",
                "--policy",
                "farm",
                "--load",
                "0.5",
                "--days",
                "2",
                "--dump-records",
                str(records),
                "--dump-json",
                str(summary),
            ]
        )
        assert code == 0
        assert records.exists() and summary.exists()
        assert len(load_records_csv(records)) > 0
