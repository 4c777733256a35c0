"""Tests for the observability subsystem (``repro.obs``).

Covers the hook bus contract, deterministic event ordering, the
recorder's cross-check against :class:`SimulationResult`, the Chrome
trace exporter's format guarantees, the ASCII timeline and the ``repro
trace`` CLI command.
"""

import json

import pytest

from repro.cli import main
from repro.core import units
from repro.core.engine import Engine
from repro.core.errors import ObsError
from repro.core.events import EventPriority
from repro.obs import (
    NULL_BUS,
    HookBus,
    NullSink,
    TraceEvent,
    TraceRecorder,
    kinds,
    make_bus,
    render_timeline,
    write_chrome_trace,
)
from repro.obs.chrome_trace import (
    REQUIRED_KEYS,
    chrome_trace_events,
    to_chrome_trace,
    validate_trace_events,
)
from repro.sched.base import available_policies
from repro.sim.config import FaultConfig, NetFaultConfig, quick_config
from repro.sim.simulator import run_simulation
from repro.topo.spec import topology_preset


def _traced_run(policy="out-of-order", seed=3, **recorder_kwargs):
    """One small traced run; returns (recorder, result)."""
    recorder = TraceRecorder(**recorder_kwargs)
    config = quick_config(
        arrival_rate_per_hour=2.0,
        duration=3 * units.DAY,
        seed=seed,
    )
    result = run_simulation(config, policy, sink=recorder)
    recorder.close()
    return recorder, result


class ListSink:
    """Minimal sink capturing events for bus-level tests."""

    def __init__(self):
        self.events = []
        self.closed = False

    def on_event(self, event):
        self.events.append(event)

    def close(self):
        self.closed = True


class TestHookBus:
    def test_disabled_until_a_sink_attaches(self):
        bus = HookBus()
        assert not bus.enabled
        sink = ListSink()
        bus.attach(sink)
        assert bus.enabled
        bus.detach(sink)
        assert not bus.enabled

    def test_emit_without_sinks_is_dropped(self):
        bus = HookBus()
        bus.emit(1.0, kinds.JOB_ARRIVAL, "sim", job=1)  # must not raise

    def test_emit_fans_out_to_every_sink(self):
        bus = HookBus()
        first, second = ListSink(), ListSink()
        bus.attach(first)
        bus.attach(second)
        bus.emit(2.5, kinds.SUBJOB_START, "node", node=3, job=7, sid="7.0")
        assert len(first.events) == len(second.events) == 1
        event = first.events[0]
        assert event.time == 2.5
        assert event.kind == kinds.SUBJOB_START
        assert (event.node, event.job, event.sid) == (3, 7, "7.0")

    def test_double_attach_rejected(self):
        bus = HookBus()
        sink = ListSink()
        bus.attach(sink)
        with pytest.raises(ObsError):
            bus.attach(sink)

    def test_null_bus_refuses_sinks(self):
        with pytest.raises(ObsError):
            NULL_BUS.attach(NullSink())
        assert not NULL_BUS.enabled

    def test_make_bus_attaches(self):
        sink = ListSink()
        assert make_bus(sink).enabled
        assert not make_bus().enabled

    def test_close_propagates(self):
        sink = ListSink()
        bus = make_bus(sink)
        bus.close()
        assert sink.closed

    def test_event_key_includes_payload(self):
        a = TraceEvent(1.0, kinds.CACHE_HIT, "node", node=1, data={"events": 5})
        b = TraceEvent(1.0, kinds.CACHE_HIT, "node", node=1, data={"events": 6})
        assert a.key() != b.key()
        assert a.as_dict()["events"] == 5


class TestEngineDispatchOrdering:
    def test_dispatch_events_follow_time_priority_seq(self):
        """With ``engine_dispatch`` on, the emitted stream replays the
        calendar's deterministic ``(time, priority, seq)`` order."""
        sink = ListSink()
        bus = make_bus(sink)
        bus.engine_dispatch = True
        engine = Engine(obs=bus)
        noop = lambda: None  # noqa: E731
        # Same time, scrambled priorities; insertion order breaks ties.
        engine.call_at(10.0, noop, priority=EventPriority.PROBE, label="probe")
        engine.call_at(10.0, noop, priority=EventPriority.COMPLETION, label="done")
        engine.call_at(5.0, noop, priority=EventPriority.TIMER, label="early")
        engine.call_at(10.0, noop, priority=EventPriority.ARRIVAL, label="arr-0")
        engine.call_at(10.0, noop, priority=EventPriority.ARRIVAL, label="arr-1")
        engine.run()
        dispatched = [e for e in sink.events if e.kind == kinds.ENGINE_DISPATCH]
        assert [e.data["label"] for e in dispatched] == [
            "early",
            "done",
            "arr-0",
            "arr-1",
            "probe",
        ]
        keys = [
            (e.time, e.data["priority"], e.data["seq"]) for e in dispatched
        ]
        assert keys == sorted(keys)

    def test_dispatch_gate_off_by_default(self):
        sink = ListSink()
        engine = Engine(obs=make_bus(sink))
        engine.call_at(1.0, lambda: None)
        engine.run()
        assert not [e for e in sink.events if e.kind == kinds.ENGINE_DISPATCH]


class TestDeterminism:
    def test_identical_runs_identical_traces(self):
        first, _ = _traced_run(seed=11)
        second, _ = _traced_run(seed=11)
        assert first.total_emitted == second.total_emitted
        assert [e.key() for e in first.events] == [
            e.key() for e in second.events
        ]

    @pytest.mark.parametrize("policy", available_policies())
    def test_event_times_monotonic(self, policy):
        recorder, _ = _traced_run(policy)
        times = [e.time for e in recorder.events]
        backward = sum(1 for a, b in zip(times, times[1:]) if b < a)
        assert backward == 0, f"{backward} of {len(times)} records step back"


class TestRecorderCrossCheck:
    """The recorder's aggregates must agree with SimulationResult —
    both are derived independently from the same run."""

    def test_counters_match_result(self):
        recorder, result = _traced_run()
        summary = recorder.summary()
        assert summary["jobs_arrived"] == result.jobs_arrived
        assert summary["jobs_completed"] == result.jobs_completed
        assert summary["cache_hit_events"] == result.events_by_source["cache"]
        assert summary["tape_events"] == result.tertiary_events_read
        assert summary["subjobs_started"] == summary["subjobs_completed"]
        assert summary["steals"] == result.policy_stats["steals"]

    @pytest.mark.parametrize("policy", available_policies())
    def test_every_counter_matches_result_under_chaos(self, policy):
        """Faults, a lossy control plane and a 3-tier topology at once:
        every recorder counter with a result counterpart agrees with it."""
        recorder = TraceRecorder()
        config = quick_config(
            n_nodes=8,
            arrival_rate_per_hour=12.0,
            duration=0.5 * units.DAY,
            seed=3,
            topology=topology_preset("depth3", "proactive-site"),
            net=NetFaultConfig(
                loss=0.1, duplicate=0.02, delay_mean=0.01, reorder=0.05
            ),
            faults=FaultConfig(node_mtbf=2 * units.DAY, node_mttr=1 * units.HOUR),
        )
        result = run_simulation(config, policy, sink=recorder)
        recorder.close()
        summary = recorder.summary()
        sched, topo = result.sched, result.topo
        assert summary["jobs_arrived"] == result.jobs_arrived
        assert summary["jobs_completed"] == result.jobs_completed
        assert summary["tape_events"] == result.tertiary_events_read
        assert summary["cache_hit_events"] == result.events_by_source["cache"]
        assert summary["remote_events"] == result.events_by_source["remote"]
        assert summary["net_retransmits"] == sched.retransmits
        assert summary["net_timeouts"] == sched.timeouts
        assert summary["net_dead_letters"] == sched.dead_letters
        assert summary["net_duplicates"] == sched.duplicates_dropped
        assert summary["net_failovers"] == sched.failovers
        assert summary["tier_hit_events"] == topo.tier_hit_events
        assert summary["tier_miss_events"] == topo.tier_miss_events
        assert summary["tier_replicated_events"] == topo.replicated_events
        assert summary["link_saturations"] == topo.link_saturated_plans
        assert summary["rules_published"] == sched.rules_published
        assert summary["bid_rounds"] == sched.rounds
        if sched.mode == "decentral":
            # Landed grant batches vs tasks granted at arbitration.
            assert 0 < summary["grants"] <= sched.grants
        else:
            assert summary["grants"] == sched.grants == 0

    def test_sim_start_time_and_summary_keys(self):
        recorder, _ = _traced_run()
        assert recorder.sim_start_time == 0.0
        summary = recorder.summary()
        for key in ("rules_published", "bid_rounds", "grants"):
            assert key in summary

    def test_decentral_counters_accumulate(self):
        from repro.obs.hooks import HookBus
        from repro.obs.recorder import TraceRecorder

        bus = HookBus()
        recorder = TraceRecorder()
        bus.attach(recorder)
        bus.emit(1.0, kinds.RULE_PUBLISH, "sched", job=1)
        bus.emit(2.0, kinds.BID_ROUND, "sched", tasks=4)
        bus.emit(2.0, kinds.BID_ROUND, "sched", tasks=2)
        bus.emit(3.0, kinds.TASK_GRANT, "node", node=1)
        summary = recorder.summary()
        assert summary["rules_published"] == 1
        assert summary["bid_rounds"] == 2
        assert summary["grants"] == 1

    def test_untraced_run_unchanged(self):
        recorder, traced = _traced_run(seed=5)
        config = quick_config(
            arrival_rate_per_hour=2.0, duration=3 * units.DAY, seed=5
        )
        untraced = run_simulation(config, "out-of-order")
        assert traced.jobs_completed == untraced.jobs_completed
        assert traced.engine_events == untraced.engine_events
        assert traced.measured.mean_speedup == untraced.measured.mean_speedup

    def test_ring_buffer_keep_last(self):
        recorder, _ = _traced_run(capacity=500, keep="last")
        assert len(recorder.events) == 500
        assert recorder.dropped_events == recorder.total_emitted - 500
        # The tail of the run survives.
        assert recorder.events[-1].kind == kinds.SIM_END

    def test_ring_buffer_keep_first(self):
        recorder, _ = _traced_run(capacity=500, keep="first")
        assert len(recorder.events) == 500
        assert recorder.dropped_events == recorder.total_emitted - 500
        # The head of the run survives.
        assert recorder.events[0].kind == kinds.SIM_START

    def test_span_and_slice_caps_degrade_to_counters(self):
        capped, _ = _traced_run(max_spans=10, max_slices=25)
        unbounded, _ = _traced_run()
        assert len(capped.spans) == 10
        assert len(capped.chunk_slices) == 25
        # Nothing is lost silently: dropped tallies make up the difference.
        assert capped.spans_dropped == len(unbounded.spans) - 10
        assert capped.slices_dropped == len(unbounded.chunk_slices) - 25
        # The head of the run is what survives (keep-"first" semantics).
        assert capped.spans == unbounded.spans[:10]
        assert capped.chunk_slices == unbounded.chunk_slices[:25]
        summary = capped.summary()
        assert summary["spans_dropped"] == capped.spans_dropped
        assert summary["slices_dropped"] == capped.slices_dropped
        # Counters are derived from the event stream, not the capped
        # lists, so they are unaffected by retention.
        assert (
            summary["subjobs_completed"]
            == unbounded.summary()["subjobs_completed"]
        )

    def test_default_retention_reports_zero_drops(self):
        recorder, _ = _traced_run()
        assert recorder.spans_dropped == 0
        assert recorder.slices_dropped == 0
        assert recorder.summary()["spans_recorded"] == len(recorder.spans)

    def test_invalid_caps_rejected(self):
        with pytest.raises(ValueError, match="max_spans"):
            TraceRecorder(max_spans=0)
        with pytest.raises(ValueError, match="max_slices"):
            TraceRecorder(max_slices=-1)

    def test_counter_samples_accumulate(self):
        recorder, _ = _traced_run(sample_interval=3600.0)
        assert len(recorder.samples) > 24  # 3 days, hourly samples
        times = [s.time for s in recorder.samples]
        assert times == sorted(times)
        final = recorder.samples[-1]
        summary = recorder.summary()
        assert final.cache_hit_events == summary["cache_hit_events"]
        assert final.tape_events == summary["tape_events"]

    def test_counters_csv_roundtrip(self, tmp_path):
        import csv

        recorder, _ = _traced_run()
        path = tmp_path / "counters.csv"
        count = recorder.write_counters_csv(path)
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == count == len(recorder.samples)
        assert int(rows[-1]["tape_events"]) == recorder.summary()["tape_events"]


class TestChromeTrace:
    def test_entries_have_required_keys(self):
        recorder, _ = _traced_run()
        entries = chrome_trace_events(recorder)
        assert entries
        validate_trace_events(entries)
        for entry in entries:
            for key in REQUIRED_KEYS:
                assert key in entry

    def test_one_thread_name_per_node(self):
        recorder, result = _traced_run()
        entries = chrome_trace_events(recorder)
        names = [
            e["args"]["name"]
            for e in entries
            if e["ph"] == "M" and e["name"] == "thread_name" and e["pid"] == 0
        ]
        assert names == [
            f"node {i}" for i in range(result.config.n_nodes)
        ]

    def test_written_file_is_valid_json(self, tmp_path):
        recorder, _ = _traced_run()
        path = tmp_path / "run.trace.json"
        count = write_chrome_trace(path, recorder)
        trace = json.loads(path.read_text())
        assert len(trace["traceEvents"]) == count
        assert trace["displayTimeUnit"] == "ms"
        slices = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert slices and all("dur" in e for e in slices)
        assert all(e["dur"] >= 0 for e in slices)

    def test_empty_recorder_rejected(self):
        with pytest.raises(ObsError):
            to_chrome_trace(TraceRecorder())


class TestTimeline:
    def test_renders_one_row_per_node(self):
        recorder, result = _traced_run()
        art = render_timeline(recorder, width=60)
        for node in range(result.config.n_nodes):
            assert f"node {node} |" in art
        assert "busy" in art and "'#' cache" in art

    def test_empty_recorder_renders_placeholder(self):
        assert "no node activity" in render_timeline(TraceRecorder())

    def test_width_validated(self):
        recorder, _ = _traced_run()
        with pytest.raises(ValueError):
            render_timeline(recorder, width=4)


class TestTraceCli:
    def test_trace_smoke(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(
            [
                "simulate",
                "--policy",
                "out_of_order",  # underscores normalised to the registry name
                "--quick",
                "--days",
                "2",
                "--load",
                "1",
                "--seed",
                "4",
                "--trace",
                "run",
                "--width",
                "60",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "node 0 |" in out
        assert "chrome trace" in out
        trace = json.loads((tmp_path / "run.trace.json").read_text())
        validate_trace_events(trace["traceEvents"])
        assert (tmp_path / "run.counters.csv").exists()

    def test_trace_limit_events(self, capsys, tmp_path):
        code = main(
            [
                "simulate",
                "--policy",
                "farm",
                "--quick",
                "--days",
                "2",
                "--limit-events",
                "100",
                "--no-ascii",
                "--trace",
                str(tmp_path / "capped"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "event cap reached" in out

    def test_trace_files_match_the_library_run(self, capsys, tmp_path):
        code = main(
            [
                "simulate",
                "--policy",
                "decentral",
                "--quick",
                "--days",
                "1",
                "--seed",
                "2",
                "--topology",
                "depth3:proactive-site",
                "--faults",
                "--mtbf",
                "6h",
                "--mttr",
                "30mn",
                "--net-loss",
                "0.2",
                "--sample-seconds",
                "1800",
                "--no-ascii",
                "--trace",
                str(tmp_path / "cli"),
            ]
        )
        assert code == 0
        config = quick_config(
            duration=units.DAY,
            cache_bytes=100 * units.GB,  # --cache-gb's default, also under --quick
            seed=2,
            topology=topology_preset("depth3", "proactive-site"),
            faults=FaultConfig(node_mtbf=6 * units.HOUR, node_mttr=30 * units.MINUTE),
            net=NetFaultConfig(loss=0.2),
        )
        recorder = TraceRecorder(
            capacity=1_000_000, sample_interval=1800.0, keep="first"
        )
        run_simulation(config, "decentral", sink=recorder)
        recorder.close()
        write_chrome_trace(tmp_path / "lib.trace.json", recorder)
        recorder.write_counters_csv(tmp_path / "lib.counters.csv")
        for suffix in ("trace.json", "counters.csv"):
            cli = (tmp_path / f"cli.{suffix}").read_bytes()
            assert cli == (tmp_path / f"lib.{suffix}").read_bytes(), suffix

    def test_trace_unknown_policy_clean_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--policy", "bogus", "--trace", "run"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown policy" in err
        assert "out-of-order" in err  # lists the alternatives

    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out
