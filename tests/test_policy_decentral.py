"""Tests for the decentralized rule/bid scheduling subsystem
(``repro.sched.decentral``): rule tiling, bid scoring, arbitration,
control-plane accounting, fault composition, and determinism."""

import json
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.costmodel import CostModel
from repro.core import units
from repro.core.errors import ConfigurationError
from repro.core.rng import RandomStreams
from repro.data.cache import LRUSegmentCache
from repro.data.intervals import Interval
from repro.sched.decentral import (
    ControlCostModel,
    arbitrate,
    plan_tasks,
    score_window,
    window_rows,
)
from repro.sched.decentral.bidding import LOAD_PENALTY
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
# oracles: the per-(node, task) scorer and the Bid-list arbiter that the
# per-round scorer and the parallel-list arbiter replaced


def score_candidate(
    cache, cost_model, remaining, age_seconds, *, locality_weight, aging_tau,
    queue_depth=0,
):
    """Bid score of one candidate task for one node (higher wins), from
    the task's remaining ``Interval``."""
    cached = cache.coverage.overlap_measure(remaining)
    fraction = cached / remaining.length
    per_event = (
        fraction * cost_model.cached_event_time
        + (1.0 - fraction) * cost_model.uncached_event_time
    )
    gain = cost_model.uncached_event_time / per_event - 1.0
    aging = age_seconds / aging_tau if aging_tau > 0 else 0.0
    return locality_weight * gain + aging - LOAD_PENALTY * queue_depth


@dataclass(frozen=True)
class Bid:
    """One node's score for one task of the round's candidate window."""

    node_id: int
    task_index: int
    score: float


def arbitrate_bids(bids, grant_batch, rng):
    """Progressive highest-score-first matching over a ``Bid`` list."""
    if not bids:
        return {}
    ties = rng.random(len(bids))
    order = sorted(range(len(bids)), key=lambda i: (-bids[i].score, ties[i]))
    grants = {}
    taken = set()
    for cap in range(1, grant_batch + 1):
        for index in order:
            bid = bids[index]
            if bid.task_index in taken:
                continue
            node_grants = grants.setdefault(bid.node_id, [])
            if len(node_grants) >= cap:
                continue
            node_grants.append(bid.task_index)
            taken.add(bid.task_index)
    return {node_id: tasks for node_id, tasks in grants.items() if tasks}


def _score(cache, cost_model, remaining, age_seconds, *, locality_weight,
           aging_tau, queue_depth=0):
    """One task's score through the round's scorer: a one-task window of
    a fresh subjob covering ``remaining``, ``age_seconds`` after its
    job arrived."""
    job = Job(
        JobRequest(
            job_id=0, arrival_time=0.0, start_event=remaining.start,
            n_events=remaining.length,
        )
    )
    window = window_rows([job.make_root_subjob()], age_seconds, aging_tau)
    return score_window(
        cache,
        window,
        cost_model.cached_event_time,
        cost_model.uncached_event_time,
        locality_weight=locality_weight,
        queue_depth=queue_depth,
    )[0]


def _arbitrate(bids, grant_batch, rng):
    """Arbitrate a ``Bid`` list through the parallel-list arbiter."""
    return arbitrate(
        [bid.node_id for bid in bids],
        [bid.task_index for bid in bids],
        [bid.score for bid in bids],
        grant_batch,
        rng,
    )


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
        warm_score = _score(
            cache, self._cost_model(), Interval(0, 1000), 0.0, **kwargs
        )
        cold_score = _score(
            cold, self._cost_model(), Interval(0, 1000), 0.0, **kwargs
        )
        assert warm_score > cold_score == 0.0

    def test_zero_locality_weight_is_cache_blind(self):
        cache = LRUSegmentCache(capacity_events=10_000)
        cache.insert(0, 1000, now=0.0)
        cold = LRUSegmentCache(capacity_events=10_000)
        kwargs = dict(locality_weight=0.0, aging_tau=units.HOUR, queue_depth=0)
        assert _score(
            cache, self._cost_model(), Interval(0, 1000), 300.0, **kwargs
        ) == _score(
            cold, self._cost_model(), Interval(0, 1000), 300.0, **kwargs
        )

    def test_aging_lifts_cold_tasks(self):
        cold = LRUSegmentCache(capacity_events=10_000)
        kwargs = dict(locality_weight=1.0, aging_tau=units.HOUR, queue_depth=0)
        young = _score(
            cold, self._cost_model(), Interval(0, 1000), 0.0, **kwargs
        )
        old = _score(
            cold, self._cost_model(), Interval(0, 1000), 10 * units.HOUR, **kwargs
        )
        assert old > young
        # An old-enough cold task outbids a freshly published cached one.
        warm = LRUSegmentCache(capacity_events=10_000)
        warm.insert(0, 1000, now=0.0)
        fresh_cached = _score(
            warm, self._cost_model(), Interval(0, 1000), 0.0, **kwargs
        )
        assert old > fresh_cached

    def test_queue_depth_penalised(self):
        cold = LRUSegmentCache(capacity_events=10_000)
        kwargs = dict(locality_weight=1.0, aging_tau=units.HOUR)
        free = _score(
            cold, self._cost_model(), Interval(0, 1000), 0.0, queue_depth=0, **kwargs
        )
        loaded = _score(
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
        grants = _arbitrate(bids, grant_batch=4, rng=self._rng())
        granted = [t for tasks in grants.values() for t in tasks]
        assert sorted(granted) == [0, 1, 2, 3]

    def test_per_node_cap(self):
        bids = [Bid(node_id=0, task_index=t, score=1.0) for t in range(10)]
        grants = _arbitrate(bids, grant_batch=4, rng=self._rng())
        assert len(grants[0]) == 4

    def test_progressive_fill_spreads_before_batching(self):
        # 3 tasks, 3 nodes, equal scores: every node gets exactly one
        # task before anyone gets a second, regardless of tie-breaks.
        bids = [
            Bid(node_id=n, task_index=t, score=0.5)
            for n in range(3)
            for t in range(3)
        ]
        grants = _arbitrate(bids, grant_batch=4, rng=self._rng())
        assert sorted(len(tasks) for tasks in grants.values()) == [1, 1, 1]

    def test_highest_score_wins(self):
        bids = [
            Bid(node_id=0, task_index=0, score=2.0),
            Bid(node_id=1, task_index=0, score=0.1),
        ]
        grants = _arbitrate(bids, grant_batch=1, rng=self._rng())
        assert grants == {0: [0]}

    def test_deterministic_tie_breaks(self):
        bids = [
            Bid(node_id=n, task_index=t, score=1.0)
            for n in range(4)
            for t in range(8)
        ]
        first = _arbitrate(bids, grant_batch=2, rng=self._rng())
        second = _arbitrate(bids, grant_batch=2, rng=self._rng())
        assert first == second

    def test_empty_bids(self):
        assert _arbitrate([], grant_batch=4, rng=self._rng()) == {}


@st.composite
def bid_rounds(draw):
    """One arbitration round: 1–5 nodes with small LRU caches filled by
    inserts that evict, a window of partly processed subjobs, and the
    round's scoring parameters."""
    n_nodes = draw(st.integers(1, 5))
    caches = []
    for _ in range(n_nodes):
        cache = LRUSegmentCache(capacity_events=draw(st.integers(20, 300)))
        inserts = draw(
            st.lists(
                st.tuples(st.integers(0, 500), st.integers(1, 120)), max_size=12
            )
        )
        for stamp, (start, length) in enumerate(inserts):
            cache.insert(start, start + length, now=float(stamp))
        caches.append(cache)
    tasks = []
    for job_id in range(draw(st.integers(1, 16))):
        length = draw(st.integers(1, 150))
        job = Job(
            JobRequest(
                job_id=job_id,
                arrival_time=draw(st.floats(0.0, 2 * units.DAY)),
                start_event=draw(st.integers(0, 500)),
                n_events=length,
            )
        )
        task = job.make_root_subjob()
        task.advance(draw(st.integers(0, length - 1)))
        tasks.append(task)
    now = max(task.job.arrival_time for task in tasks) + draw(
        st.floats(0.0, units.DAY)
    )
    cost_model = CostModel(
        cpu_time=draw(st.floats(0.001, 2.0)),
        disk_time=draw(st.floats(0.001, 2.0)),
        tertiary_time=draw(st.floats(0.001, 2.0)),
        pipelined=draw(st.booleans()),
    )
    params = dict(
        locality_weight=draw(st.sampled_from([0.0, 0.5, 1.0])),
        aging_tau=draw(st.sampled_from([6 * units.HOUR, units.HOUR, 0.0])),
    )
    depths = [draw(st.integers(0, 3)) for _ in range(n_nodes)]
    return caches, tasks, now, cost_model, params, depths


class TestRoundAgainstOracle:
    """The per-round scorer and the parallel-list arbiter against the
    per-(node, task) ``Interval`` scorer and the ``Bid``-list arbiter.
    ``locality_weight`` 0 is drawn too: it proves that skipping the
    cache lookup there leaves every score bit-identical."""

    @settings(max_examples=200, deadline=None)
    @given(bid_rounds(), st.integers(0, 5), st.integers(0, 2**32 - 1))
    def test_scores_and_grants_match(self, round_, grant_batch, seed):
        caches, tasks, now, cost_model, params, depths = round_
        window = window_rows(tasks, now, params["aging_tau"])
        node_ids, task_indices, scores, bids = [], [], [], []
        for node_id, (cache, depth) in enumerate(zip(caches, depths)):
            node_scores = score_window(
                cache,
                window,
                cost_model.cached_event_time,
                cost_model.uncached_event_time,
                locality_weight=params["locality_weight"],
                queue_depth=depth,
            )
            expected = [
                score_candidate(
                    cache,
                    cost_model,
                    task.remaining,
                    now - task.job.arrival_time,
                    queue_depth=depth,
                    **params,
                )
                for task in tasks
            ]
            # Bit for bit, the sign of zero included.
            assert [score.hex() for score in node_scores] == [
                score.hex() for score in expected
            ]
            node_ids.extend([node_id] * len(window))
            task_indices.extend(range(len(window)))
            scores.extend(node_scores)
            bids.extend(
                Bid(node_id=node_id, task_index=index, score=score)
                for index, score in enumerate(expected)
            )
        rng = np.random.default_rng(seed)
        oracle_rng = np.random.default_rng(seed)
        granted = arbitrate(node_ids, task_indices, scores, grant_batch, rng)
        expected_grants = arbitrate_bids(bids, grant_batch, oracle_rng)
        assert list(granted.items()) == list(expected_grants.items())
        # One draw per bid: both streams stand at the same place.
        assert rng.random() == oracle_rng.random()

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 6),
                st.integers(0, 12),
                st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0]),
            ),
            max_size=60,
        ),
        st.integers(0, 5),
        st.integers(0, 2**32 - 1),
    )
    def test_arbitrary_bids_match(self, triples, grant_batch, seed):
        # Bids on any subset of (node, task) pairs, duplicates and many
        # equal scores included, so the seeded tie-break decides often.
        bids = [Bid(node_id=n, task_index=t, score=x) for n, t, x in triples]
        rng = np.random.default_rng(seed)
        oracle_rng = np.random.default_rng(seed)
        granted = _arbitrate(bids, grant_batch, rng)
        assert list(granted.items()) == list(
            arbitrate_bids(bids, grant_batch, oracle_rng).items()
        )
        assert rng.random() == oracle_rng.random()


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
