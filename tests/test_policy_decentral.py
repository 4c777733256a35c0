"""Tests for the decentralized rule/bid scheduling subsystem
(``repro.sched.decentral``): rule tiling, bid scoring, arbitration,
control-plane accounting, fault composition, and determinism."""

import json
import math

import pytest

from repro.core import units
from repro.core.errors import ConfigurationError
from repro.core.rng import RandomStreams
from repro.data.cache import LRUSegmentCache
from repro.data.intervals import Interval
from repro.sched.decentral import (
    Bid,
    ControlCostModel,
    arbitrate,
    plan_tasks,
    score_candidate,
)
from repro.sched.stats import CENTRAL_MESSAGE_BYTES, SchedulerStats
from repro.sim.config import FaultConfig, ScriptedFault, quick_config
from repro.sim.export import (
    SCHEMA_VERSION,
    load_result_json,
    result_summary_dict,
    write_result_json,
)
from repro.sim.simulator import run_simulation
from repro.workload.jobs import Job, JobRequest

from .policy_helpers import build_sim, micro_config, run_policy, trace


# ---------------------------------------------------------------------------
# rules: task tiling


class TestPlanTasks:
    def test_even_tiling(self):
        tasks = plan_tasks(Interval(0, 600), 200, 10)
        assert tasks == [Interval(0, 200), Interval(200, 400), Interval(400, 600)]

    def test_short_tail_merged_left(self):
        tasks = plan_tasks(Interval(0, 405), 200, 10)
        assert tasks == [Interval(0, 200), Interval(200, 405)]

    def test_tiny_segment_single_task(self):
        assert plan_tasks(Interval(50, 55), 200, 10) == [Interval(50, 55)]

    def test_tasks_tile_segment(self):
        tasks = plan_tasks(Interval(37, 1234), 100, 25)
        cursor = 37
        for task in tasks:
            assert task.start == cursor
            cursor = task.end
        assert cursor == 1234

    def test_min_events_floor(self):
        # task_events below the floor is clamped up to min_events.
        tasks = plan_tasks(Interval(0, 100), 5, 50)
        assert all(task.length >= 50 for task in tasks)

    def test_expansion_tiles_job_once(self):
        job = Job(JobRequest(job_id=0, arrival_time=0.0, start_event=0, n_events=500))
        from repro.sched.decentral.rules import expand_rule

        rule = expand_rule(job, 200, 10)
        assert len(rule.pending) == len(job.subjobs) == 3
        job.check_invariants()  # subjobs tile the job exactly


# ---------------------------------------------------------------------------
# bidding: local scores


class TestScoreCandidate:
    def _cost_model(self):
        return quick_config().cost_model()

    def test_cached_task_outscores_cold(self):
        cache = LRUSegmentCache(capacity_events=10_000)
        cache.insert(0, 1000, now=0.0)
        cold = LRUSegmentCache(capacity_events=10_000)
        kwargs = dict(locality_weight=1.0, aging_tau=units.HOUR, queue_depth=0)
        warm_score = score_candidate(
            cache, self._cost_model(), Interval(0, 1000), 0.0, **kwargs
        )
        cold_score = score_candidate(
            cold, self._cost_model(), Interval(0, 1000), 0.0, **kwargs
        )
        assert warm_score > cold_score == 0.0

    def test_zero_locality_weight_is_cache_blind(self):
        cache = LRUSegmentCache(capacity_events=10_000)
        cache.insert(0, 1000, now=0.0)
        cold = LRUSegmentCache(capacity_events=10_000)
        kwargs = dict(locality_weight=0.0, aging_tau=units.HOUR, queue_depth=0)
        assert score_candidate(
            cache, self._cost_model(), Interval(0, 1000), 300.0, **kwargs
        ) == score_candidate(
            cold, self._cost_model(), Interval(0, 1000), 300.0, **kwargs
        )

    def test_aging_lifts_cold_tasks(self):
        cold = LRUSegmentCache(capacity_events=10_000)
        kwargs = dict(locality_weight=1.0, aging_tau=units.HOUR, queue_depth=0)
        young = score_candidate(
            cold, self._cost_model(), Interval(0, 1000), 0.0, **kwargs
        )
        old = score_candidate(
            cold, self._cost_model(), Interval(0, 1000), 10 * units.HOUR, **kwargs
        )
        assert old > young
        # An old-enough cold task outbids a freshly published cached one.
        warm = LRUSegmentCache(capacity_events=10_000)
        warm.insert(0, 1000, now=0.0)
        fresh_cached = score_candidate(
            warm, self._cost_model(), Interval(0, 1000), 0.0, **kwargs
        )
        assert old > fresh_cached

    def test_queue_depth_penalised(self):
        cold = LRUSegmentCache(capacity_events=10_000)
        kwargs = dict(locality_weight=1.0, aging_tau=units.HOUR)
        free = score_candidate(
            cold, self._cost_model(), Interval(0, 1000), 0.0, queue_depth=0, **kwargs
        )
        loaded = score_candidate(
            cold, self._cost_model(), Interval(0, 1000), 0.0, queue_depth=3, **kwargs
        )
        assert free > loaded


# ---------------------------------------------------------------------------
# arbiter


class TestArbitrate:
    def _rng(self):
        return RandomStreams(0).get("sched.arbiter")

    def test_each_task_granted_once(self):
        bids = [
            Bid(node_id=n, task_index=t, score=1.0)
            for n in range(3)
            for t in range(4)
        ]
        grants = arbitrate(bids, grant_batch=4, rng=self._rng())
        granted = [t for tasks in grants.values() for t in tasks]
        assert sorted(granted) == [0, 1, 2, 3]

    def test_per_node_cap(self):
        bids = [Bid(node_id=0, task_index=t, score=1.0) for t in range(10)]
        grants = arbitrate(bids, grant_batch=4, rng=self._rng())
        assert len(grants[0]) == 4

    def test_progressive_fill_spreads_before_batching(self):
        # 3 tasks, 3 nodes, equal scores: every node gets exactly one
        # task before anyone gets a second, regardless of tie-breaks.
        bids = [
            Bid(node_id=n, task_index=t, score=0.5)
            for n in range(3)
            for t in range(3)
        ]
        grants = arbitrate(bids, grant_batch=4, rng=self._rng())
        assert sorted(len(tasks) for tasks in grants.values()) == [1, 1, 1]

    def test_highest_score_wins(self):
        bids = [
            Bid(node_id=0, task_index=0, score=2.0),
            Bid(node_id=1, task_index=0, score=0.1),
        ]
        grants = arbitrate(bids, grant_batch=1, rng=self._rng())
        assert grants == {0: [0]}

    def test_deterministic_tie_breaks(self):
        bids = [
            Bid(node_id=n, task_index=t, score=1.0)
            for n in range(4)
            for t in range(8)
        ]
        first = arbitrate(bids, grant_batch=2, rng=self._rng())
        second = arbitrate(bids, grant_batch=2, rng=self._rng())
        assert first == second

    def test_empty_bids(self):
        assert arbitrate([], grant_batch=4, rng=self._rng()) == {}


# ---------------------------------------------------------------------------
# control-plane cost model


class TestControlCostModel:
    def test_message_bytes(self):
        costs = ControlCostModel()
        assert costs.bid_bytes(10) == costs.bid_header_bytes + 10 * costs.bid_entry_bytes
        assert (
            costs.grant_bytes(4)
            == costs.grant_header_bytes + 4 * costs.grant_entry_bytes
        )

    def test_transfer_seconds(self):
        costs = ControlCostModel(throughput=1000.0, message_latency=0.5)
        assert costs.transfer_seconds(2000, 4) == pytest.approx(2.0 + 2.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ControlCostModel(throughput=0.0)
        with pytest.raises(ConfigurationError):
            ControlCostModel(message_latency=-1.0)


# ---------------------------------------------------------------------------
# SchedulerStats


class TestSchedulerStats:
    def test_round_trip(self):
        stats = SchedulerStats(
            mode="decentral",
            rounds=3,
            rules_published=2,
            bids=40,
            grants=12,
            messages=17,
            control_bytes=2048,
            control_seconds=0.25,
            subjobs_started=12,
        )
        assert SchedulerStats.from_dict(stats.as_dict()) == stats

    def test_central_estimate(self):
        stats = SchedulerStats.central_estimate(dispatches=10, completions=7)
        assert stats.mode == "central"
        assert stats.messages == 17
        assert stats.control_bytes == 17 * CENTRAL_MESSAGE_BYTES
        assert stats.messages_per_subjob() == pytest.approx(1.7)

    def test_messages_per_subjob_nan_when_idle(self):
        assert math.isnan(SchedulerStats().messages_per_subjob())

    def test_summary_json_round_trip(self, tmp_path):
        result = run_policy("decentral", trace((0.0, 0, 1000)))
        path = tmp_path / "summary.json"
        write_result_json(path, result)
        loaded = load_result_json(path)
        assert loaded["schema_version"] == SCHEMA_VERSION
        assert loaded["sched"] == json.loads(
            json.dumps(result.sched.as_dict(), default=float)
        )
        rebuilt = SchedulerStats.from_dict(loaded["sched"])
        assert rebuilt == result.sched

    def test_pre_v4_summaries_upgraded(self, tmp_path):
        result = run_policy("farm", trace((0.0, 0, 1000)))
        payload = result_summary_dict(result)
        payload["schema_version"] = 3
        del payload["sched"]
        path = tmp_path / "old.json"
        path.write_text(json.dumps(payload, default=float))
        loaded = load_result_json(path)
        assert loaded["sched"] is None


# ---------------------------------------------------------------------------
# policy behaviour


class TestDecentralPolicy:
    def test_all_jobs_complete(self):
        result = run_policy(
            "decentral",
            trace((0.0, 0, 1000), (100.0, 2000, 1500), (7200.0, 0, 1000)),
        )
        assert result.jobs_completed == 3
        assert result.sched is not None
        assert result.sched.mode == "decentral"
        assert result.sched.rules_published == 3
        assert result.sched.grants == result.sched.subjobs_started

    def test_locality_bidding_beats_cache_blind(self):
        # Jobs repeatedly hitting the same segments: the locality-aware
        # variant routes re-reads to the node that cached them.
        entries = [(3600.0 * i, (i % 2) * 4000, 2000) for i in range(10)]
        warm = run_policy("decentral", trace(*entries))
        blind = run_policy("decentral-nolocal", trace(*entries))
        assert warm.jobs_completed == blind.jobs_completed == 10
        assert warm.cache_hit_fraction() > blind.cache_hit_fraction()

    def test_messages_cheaper_than_central_push(self):
        entries = [(600.0 * i, 0, 2000) for i in range(8)]
        decentral = run_policy("decentral", trace(*entries))
        central = run_policy("out-of-order", trace(*entries))
        assert decentral.sched.messages_per_subjob() < 2.0
        assert central.sched.mode == "central"
        assert (
            decentral.sched.messages_per_subjob()
            < central.sched.messages_per_subjob()
        )

    def test_grant_batch_bounds_queue(self):
        sim = build_sim(
            "decentral",
            trace((0.0, 0, 5000)),
            micro_config(n_nodes=1),
            grant_batch=3,
            task_events=250,
        )
        sim.prime()
        sim.engine.run(until=30.0)
        queue = sim.policy.node_queues[0]
        # One task is running; the queue never exceeds grant_batch.
        assert len(queue) <= 3

    def test_describe_and_extra_stats(self):
        result = run_policy("decentral", trace((0.0, 0, 1000)), grant_batch=2)
        assert result.policy_params["grant_batch"] == 2
        assert result.policy_params["locality_weight"] == 1.0
        stats = result.policy_stats
        assert stats["rounds"] >= 1.0
        assert stats["grant_bounces"] == 0.0
        assert stats["queued_at_end"] == 0.0

    def test_obs_events_emitted(self):
        from repro.obs import TraceRecorder

        recorder = TraceRecorder()
        run_simulation(
            micro_config(), "decentral", trace=trace((0.0, 0, 1000)), sink=recorder
        )
        kinds_seen = {event.kind for event in recorder.events}
        assert "sched.rule_publish" in kinds_seen
        assert "sched.bid_round" in kinds_seen
        assert "sched.grant" in kinds_seen


class TestDecentralFaults:
    def test_grant_bounces_when_node_dies_mid_round(self):
        # Slow control plane: the grant is in flight for ~10 s; the only
        # node crashes inside that window, so the grant bounces, is
        # re-pended, and completes after recovery.
        config = micro_config(
            n_nodes=1,
            faults=FaultConfig(
                scripted=(ScriptedFault(time=5.0, duration=60.0, node_id=0),)
            ),
        )
        result = run_policy(
            "decentral",
            trace((0.0, 0, 500)),
            config,
            round_latency=1.0,
            costs=ControlCostModel(message_latency=5.0),
        )
        assert result.jobs_completed == 1
        assert result.policy_stats["grant_bounces"] >= 1.0

    def test_queued_grants_repended_on_crash(self):
        # Node 0 gets a batch, crashes mid-batch: queued tasks return to
        # the rule and the other node finishes the job.
        config = micro_config(
            faults=FaultConfig(
                scripted=(ScriptedFault(time=120.0, duration=4 * units.DAY, node_id=0),)
            )
        )
        result = run_policy(
            "decentral", trace((0.0, 0, 2000)), config, task_events=250
        )
        assert result.jobs_completed == 1
        assert result.faults is not None
        assert result.faults.failures == 1


class TestDecentralDeterminism:
    def _config(self):
        return quick_config(seed=11, duration=3 * units.DAY)

    def _comparable(self, result):
        summary = result_summary_dict(result)
        summary.pop("wall_seconds")
        return summary

    @pytest.mark.parametrize("policy", ["decentral", "decentral-nolocal"])
    def test_same_seed_bit_identical(self, policy):
        first = run_simulation(self._config(), policy)
        second = run_simulation(self._config(), policy)
        assert self._comparable(first) == self._comparable(second)

    def test_sanitizer_does_not_perturb(self):
        plain = run_simulation(self._config(), "decentral")
        checked = run_simulation(self._config(), "decentral", check_invariants=True)
        assert self._comparable(plain) == self._comparable(checked)

    def test_arbiter_stream_leaves_workload_untouched(self):
        # The extra sched.arbiter stream must not shift arrivals: the
        # decentral run sees the bit-identical workload of a farm run.
        decentral = run_simulation(self._config(), "decentral")
        farm = run_simulation(self._config(), "farm")
        assert decentral.jobs_arrived == farm.jobs_arrived

    def test_parallel_sweep_matches_serial(self):
        from repro.exec import Executor
        from repro.sim.runner import RunSpec, run_sweep

        specs = [
            RunSpec.make(self._config(), "decentral"),
            RunSpec.make(self._config(), "decentral-nolocal"),
        ]
        serial = run_sweep(specs, executor=Executor(jobs=1))
        parallel = run_sweep(specs, executor=Executor(jobs=2))
        assert serial.to_json() == parallel.to_json()


# ---------------------------------------------------------------------------
# crossover experiment registration


class TestCrossoverExperiment:
    def test_registered_with_expected_grid(self):
        from repro.experiments import Scale, get_experiment

        experiment = get_experiment("crossover")
        specs = experiment.specs(Scale.SMOKE)
        policies = {spec.policy for spec in specs}
        assert "decentral" in policies
        assert "decentral-nolocal" in policies
        assert "out-of-order" in policies
        seeds = {spec.config.seed for spec in specs}
        assert len(seeds) == 1
        full = experiment.specs(Scale.FULL)
        assert {spec.config.n_nodes for spec in full} >= {5, 20, 100, 500}
