"""Tests for the runtime sim-sanitizer (``--check-invariants``).

Two claims are verified: a checked run is *transparent* (bit-identical
metrics to an unchecked run, because the checks never schedule events),
and a checked run is *vigilant* (injected corruption of cache accounting,
event ordering, LRU structure or subjob assignment raises
:class:`InvariantViolation` with a descriptive message).
"""

from __future__ import annotations

import heapq
from dataclasses import replace

import pytest

from repro.cli import main
from repro.cluster.access import CachingPlanner
from repro.cluster.costmodel import CostModel, DataSource
from repro.cluster.node import Node
from repro.core import units
from repro.core.engine import Engine
from repro.core.errors import InvariantViolation
from repro.core.events import EventPriority, ScheduledEvent
from repro.data.cache import LRUSegmentCache
from repro.data.dataspace import DataSpace
from repro.data.tertiary import TertiaryStorage
from repro.sched.base import create_policy
from repro.sim.config import FaultConfig, quick_config
from repro.sim.sanitizer import InvariantChecker
from repro.sim.simulator import Simulation, run_simulation
from repro.topo import topology_preset
from repro.workload.jobs import SubjobState

from .helpers import make_subjob


def _config(seed: int = 11):
    return quick_config(duration=4 * units.DAY, seed=seed)


def _checked_simulation(policy: str = "out-of-order") -> Simulation:
    return Simulation(
        _config(), create_policy(policy), check_invariants=True
    )


class TestTransparency:
    @pytest.mark.parametrize("policy", ["farm", "cache-splitting", "out-of-order"])
    def test_checked_run_has_identical_metrics(self, policy):
        plain = run_simulation(_config(), policy)
        checked = run_simulation(_config(), policy, check_invariants=True)
        assert checked.measured.mean_speedup == plain.measured.mean_speedup
        assert checked.measured.mean_waiting == plain.measured.mean_waiting
        assert checked.records == plain.records
        assert checked.events_by_source == plain.events_by_source
        assert checked.engine_events == plain.engine_events
        assert checked.jobs_completed == plain.jobs_completed

    def test_checks_actually_ran(self):
        sim = _checked_simulation()
        sim.run()
        assert sim.checker is not None
        assert sim.checker.checks_run > 0

    def test_unchecked_run_installs_no_hooks(self):
        sim = Simulation(_config(), create_policy("farm"))
        assert sim.checker is None
        assert all(node.checker is None for node in sim.cluster)
        assert not sim.engine.check_invariants


class TestCacheCorruption:
    def test_accounting_corruption_is_caught(self):
        sim = _checked_simulation()
        sim.prime()

        def corrupt() -> None:
            # Test-only hook: break byte/event accounting conservation on
            # one node's cache; the next deep check must notice.
            node = next(iter(sim.cluster))
            node.cache._used += 7

        sim.engine.call_at(units.DAY, corrupt)
        with pytest.raises(InvariantViolation, match="not conserved"):
            sim.engine.run(until=sim.config.duration)

    def test_lru_structure_corruption_is_caught(self):
        sim = _checked_simulation()
        sim.prime()

        def corrupt() -> None:
            # Drop the LRU heap: live extents become unreachable by
            # eviction, which the validator must flag.
            for node in sim.cluster:
                if len(node.cache._lru_heap) > 0:
                    node.cache._lru_heap.clear()
                    return

        sim.engine.call_at(units.DAY, corrupt)
        with pytest.raises(InvariantViolation, match="LRU"):
            sim.engine.run(until=sim.config.duration)

    def test_validate_directly_on_healthy_cache(self):
        cache = LRUSegmentCache(1000)
        cache.insert(0, 400, now=1.0)
        cache.insert(600, 900, now=2.0)
        cache.touch(0, 100, now=3.0)
        cache.validate()
        cache._used -= 1
        with pytest.raises(InvariantViolation, match="accounting"):
            cache.validate()

    def test_uncoalesced_abutting_extents_are_caught(self):
        cache = LRUSegmentCache(1000)
        cache.insert(0, 100, now=1.0)
        cache.insert(100, 200, now=2.0)
        cache.validate()
        # Test-only hook: restamp the right extent (heap entry included)
        # so two abutting extents share a stamp, as a re-stamp that forgot
        # to coalesce would leave them.
        right = cache._runs.value_at(100)
        right.last_access = 1.0
        cache._lru_heap = [
            (extent.last_access, tiebreak, extent)
            for tiebreak, extent in enumerate(cache._runs._values)
        ]
        heapq.heapify(cache._lru_heap)
        with pytest.raises(InvariantViolation, match="share stamp 1.0"):
            cache.validate()

    def test_tier_cache_corruption_is_caught(self):
        config = quick_config(
            duration=4 * units.DAY,
            seed=11,
            topology=topology_preset("depth3", "lru-rack"),
        )
        sim = Simulation(config, create_policy("out-of-order"), check_invariants=True)
        sim.prime()
        assert sim.topo is not None

        def corrupt() -> None:
            # Test-only hook: break accounting in a tier cache holding
            # data; the node caches are untouched.
            tier = next(
                tier
                for tier in sim.topo.tiers.values()
                if tier.cache is not None and tier.cache.cache.used_events
            )
            tier.cache.cache._used += 7

        sim.engine.call_at(units.DAY, corrupt)
        with pytest.raises(InvariantViolation, match=r"tier \S+: cache: .*not conserved"):
            sim.engine.run(until=sim.config.duration)


class TestIdleIndexCorruption:
    def test_index_corruption_is_caught(self):
        sim = _checked_simulation("farm")
        sim.prime()

        def corrupt() -> None:
            # Test-only hook: drop an idle node from the cluster's index
            # behind the nodes' backs, as a transition that forgot to
            # resync would; the next deep check must notice.
            ids = sim.cluster._idle_ids
            assert ids, "expected an idle node to hide"
            del ids[0]

        sim.engine.call_at(units.DAY, corrupt)
        with pytest.raises(InvariantViolation, match="idle-node index"):
            sim.engine.run(until=sim.config.duration)

    def test_stale_idle_flag_is_caught(self):
        sim = _checked_simulation("farm")
        sim.prime()

        def corrupt() -> None:
            node = sim.cluster[0]
            node.idle = not node.idle

        sim.engine.call_at(units.DAY, corrupt)
        with pytest.raises(InvariantViolation, match="idle flag"):
            sim.engine.run(until=sim.config.duration)


class TestCompletionEventCorruption:
    """A node keeps its fired completion event while idle; the deep check
    holds it out of the calendar, and a running node's event in it."""

    @staticmethod
    def _run_with(corrupt, running: bool, match: str) -> None:
        sim = _checked_simulation("out-of-order")
        sim.prime()

        def attempt() -> None:
            # The first node in the wanted state that has an event, else
            # try again an hour later.
            for node in sim.cluster:
                if (node.current is not None) is running and node.completion_event():
                    corrupt(sim.engine, node.completion_event())
                    return
            sim.engine.call_at(sim.engine.now + units.HOUR, attempt)

        sim.engine.call_at(units.DAY, attempt)
        with pytest.raises(InvariantViolation, match=match):
            sim.engine.run(until=sim.config.duration)

    def test_rearmed_idle_event_is_caught(self):
        # Re-arm an idle node's kept event behind the node's back.
        self._run_with(
            lambda engine, event: engine.rearm(event, engine.now + 1.0),
            running=False,
            match="keeps a queued completion event",
        )

    def test_cancelled_idle_event_is_caught(self):
        self._run_with(
            lambda engine, event: engine.cancel(event),
            running=False,
            match="keeps a cancelled completion event",
        )

    def test_running_node_without_live_event_is_caught(self):
        self._run_with(
            lambda engine, event: engine.cancel(event),
            running=True,
            match="not live in the calendar",
        )

    def test_faulted_run_keeps_events_consistent(self):
        # Crashes cancel and drop a running node's event; an idle node's
        # crash keeps it.  Every probe's deep check must pass.
        config = replace(
            _config(),
            faults=FaultConfig(
                node_mtbf=12 * units.HOUR, node_mttr=units.HOUR, wipe_cache_on_failure=True
            ),
        )
        result = Simulation(config, create_policy("out-of-order"), check_invariants=True).run()
        assert result.faults is not None and result.faults.failures > 0


class TestWholeSegmentRunCorruption:
    """A farm run of several sub-chunks has one calendar event, at the
    end the chunk-time recurrence gives, and the planner's chunk-end index
    holds exactly the running runs' unsettled chunk ends."""

    @staticmethod
    def _farm_simulation() -> Simulation:
        config = replace(
            _config(),
            chunk_events=100,
            faults=FaultConfig(
                node_mtbf=12 * units.HOUR,
                node_mttr=units.HOUR,
                stall_interval=6 * units.HOUR,
            ),
        )
        return Simulation(config, create_policy("farm"), check_invariants=True)

    def _run_with(self, corrupt, match: str) -> None:
        sim = self._farm_simulation()
        sim.prime()

        def attempt() -> None:
            # Just before a probe, on the first node running several
            # sub-chunks; else try again at the next probe.
            for node in sim.cluster:
                plan = node.current_plan()
                if plan is not None and plan.end - plan.start > node.chunk_events:
                    corrupt(sim, node)
                    return
            sim.engine.call_after(sim.config.probe_interval, attempt)

        sim.engine.call_at(units.DAY, attempt)
        with pytest.raises(InvariantViolation, match=match):
            sim.engine.run(until=sim.config.duration)

    def test_faulted_farm_run_passes(self):
        result = self._farm_simulation().run()
        assert result.faults.failures > 0 and result.faults.stalls > 0

    def test_event_off_the_recurrence_is_caught(self):
        def corrupt(sim, node) -> None:
            # The run's rate changes behind its event's back.
            node._per_event *= 1.5

        self._run_with(corrupt, match="in-flight run ends at")

    def test_chunk_end_index_drift_is_caught(self):
        def corrupt(sim, node) -> None:
            sim.cluster.planner.ends[sim.engine.now + 1.5] = node

        self._run_with(corrupt, match="chunk-end index holds")


class TestAccountingBalanceCorruption:
    """Each balance the deep check holds across the chunk loop, broken
    behind the accounting code's back as a mis-credited chunk would."""

    @staticmethod
    def _run_with(corrupt, match: str) -> None:
        sim = _checked_simulation("farm")
        sim.prime()
        sim.engine.call_at(units.DAY, corrupt, sim)
        with pytest.raises(InvariantViolation, match=match):
            sim.engine.run(until=sim.config.duration)

    def test_events_by_source_imbalance_is_caught(self):
        def corrupt(sim) -> None:
            sim.cluster[0].stats.events_processed += 1

        self._run_with(corrupt, "events_by_source")

    def test_per_node_tertiary_reads_imbalance_is_caught(self):
        def corrupt(sim) -> None:
            per_node = sim.tertiary.stats.events_read_per_node
            per_node[0] = per_node.get(0, 0) + 1

        self._run_with(corrupt, "per-node reads")

    def test_distinct_count_drift_is_caught(self):
        def corrupt(sim) -> None:
            sim.tertiary.stats.distinct_events_read += 1

        self._run_with(corrupt, "distinct-event set")

    def test_node_to_tape_imbalance_is_caught(self):
        def corrupt(sim) -> None:
            # One node credits a tertiary event the tape never served; its
            # own total moves with it, so only the cross-layer law breaks.
            stats = sim.cluster[0].stats
            stats.events_by_source[DataSource.TERTIARY] += 1
            stats.events_processed += 1

        self._run_with(corrupt, "tape read")


class TestPolicyBookkeepingCorruption:
    def test_queue_events_total_drift_is_caught(self):
        sim = _checked_simulation("out-of-order")
        sim.prime()

        def corrupt() -> None:
            # A queue mutation that forgot its running total.
            sim.policy.node_queues[3].events += 5

        sim.engine.call_at(units.DAY, corrupt)
        with pytest.raises(
            InvariantViolation, match=r"node 3 queue events total \(\d+\)"
        ):
            sim.engine.run(until=sim.config.duration)


    @staticmethod
    def _busy_out_of_order() -> Simulation:
        """An out-of-order run stopped while some node is busy."""
        sim = _checked_simulation("out-of-order")
        sim.prime()
        sim.engine.run(until=units.DAY)
        while not any(node.current is not None for node in sim.cluster):
            assert sim.engine.step()
        sim.policy.check_invariants()
        return sim

    def test_donor_bound_below_a_load_is_caught(self):
        sim = self._busy_out_of_order()
        # A load rise that forgot to raise the node's donor bound.
        busy = next(node for node in sim.cluster if node.current is not None)
        sim.policy.donors.bound[busy.node_id] = busy.current.remaining_events - 1
        with pytest.raises(InvariantViolation, match="exceeds its donor-index bound"):
            sim.policy.check_invariants()

    def test_donor_bound_without_heap_entry_is_caught(self):
        sim = self._busy_out_of_order()
        sim.policy.donors.heap.clear()
        with pytest.raises(InvariantViolation, match="has no live heap entry"):
            sim.policy.check_invariants()

    @pytest.mark.parametrize(
        "policy, topology",
        [("replication", None), ("out-of-order", "proactive-site")],
    )
    def test_access_counter_corruption_is_caught(self, policy, topology):
        config = quick_config(
            duration=4 * units.DAY, seed=11, n_nodes=8, arrival_rate_per_hour=4.0,
            topology=(
                topology_preset("depth2", topology) if topology is not None else None
            ),
        )
        sim = Simulation(config, create_policy(policy), check_invariants=True)
        sim.prime()

        def corrupt() -> None:
            counters = list(sim.cluster.planner.access_counters())
            assert counters, "no access counter in use yet"
            counter = counters[0]
            counter._values[0] = counter.threshold + 1

        sim.engine.call_at(2 * units.DAY, corrupt)
        with pytest.raises(InvariantViolation, match="access counter"):
            sim.engine.run(until=sim.config.duration)


class TestStreamCountCorruption:
    """The stream counts planners hold for running chunks balance
    against the chunks actually running, at every probe."""

    def test_tier_stream_drift_is_caught(self):
        config = quick_config(
            duration=4 * units.DAY,
            seed=11,
            topology=topology_preset("depth3", "lru-rack"),
        )
        sim = Simulation(config, create_policy("farm"), check_invariants=True)
        sim.prime()
        assert sim.topo is not None

        def corrupt() -> None:
            # A stream acquired for a chunk that never ran.
            sim.topo.tiers["site1.rack0"].active_streams += 1

        sim.engine.call_at(units.DAY, corrupt)
        with pytest.raises(
            InvariantViolation,
            match=r"tier site1\.rack0 holds \d+ active streams but \d+ running",
        ):
            sim.engine.run(until=sim.config.duration)

    @pytest.mark.parametrize("topology", [None, "root-only"])
    def test_contention_stream_drift_is_caught(self, topology):
        config = quick_config(
            duration=4 * units.DAY, seed=11, n_nodes=8, arrival_rate_per_hour=4.0,
            topology=(
                topology_preset("depth2", topology) if topology is not None else None
            ),
        )
        policy = create_policy(
            "replication", network_contention=True, link_capacity_streams=2
        )
        sim = Simulation(config, policy, check_invariants=True)
        sim.prime()
        planner = policy._planner

        def corrupt() -> None:
            # A remote stream counted by a plan whose release went missing.
            planner._active_remote_streams += 1

        sim.engine.call_at(2 * units.DAY, corrupt)
        with pytest.raises(
            InvariantViolation, match=r"counts \d+ active remote streams but \d+"
        ):
            sim.engine.run(until=sim.config.duration)
        assert planner.peak_remote_streams > 0

    def test_contention_streams_balance_on_a_faulted_run(self):
        config = quick_config(
            duration=4 * units.DAY, seed=11, n_nodes=8, arrival_rate_per_hour=4.0,
            topology=topology_preset("depth2", "lru-rack"),
        )
        config = replace(
            config, faults=FaultConfig(node_mtbf=12 * units.HOUR, node_mttr=units.HOUR)
        )
        policy = create_policy(
            "replication", network_contention=True, link_capacity_streams=2
        )
        result = Simulation(config, policy, check_invariants=True).run()
        assert result.events_by_source["remote"] > 0
        assert result.faults is not None and result.faults.failures > 0


class TestEventOrderingCorruption:
    def test_non_monotone_dispatch_is_caught(self):
        engine = Engine(check_invariants=True)
        engine.call_at(10.0, lambda: None)
        assert engine.step()
        # Test-only hook: smuggle an event into the past, bypassing
        # call_at's validation — exactly what a buggy component that
        # caches a stale `now` would do.
        stale = ScheduledEvent(
            time=2.0,
            priority=int(EventPriority.ARRIVAL),
            seq=999,
            callback=lambda: None,
            label="stale",
        )
        heapq.heappush(
            engine._heap, (stale.time, stale.priority, stale.seq, stale)
        )
        with pytest.raises(InvariantViolation, match="non-monotone"):
            engine.step()

    def test_heap_property_corruption_is_caught(self):
        engine = Engine(check_invariants=True)
        for t in (5.0, 1.0, 9.0, 3.0):
            engine.call_at(t, lambda: None)
        engine.validate_heap()
        engine._heap[0], engine._heap[-1] = engine._heap[-1], engine._heap[0]
        with pytest.raises(InvariantViolation, match="heap property"):
            engine.validate_heap()

    def test_event_queued_twice_is_caught(self):
        engine = Engine(check_invariants=True)
        engine.call_at(1.0, lambda: None)
        pending = engine.call_at(5.0, lambda: None, label="chunk:1.0@3")
        engine.validate_heap()
        # Re-arming an event that has not fired yet queues it twice.
        engine.rearm(pending, 6.0)
        with pytest.raises(InvariantViolation, match="'chunk:1.0@3' is queued twice"):
            engine.validate_heap()

    def test_unchecked_engine_does_not_pay_for_checks(self):
        engine = Engine()
        assert not engine.check_invariants
        engine.call_at(1.0, lambda: None)
        engine.run()
        assert engine.now == 1.0


class TestAssignmentCorruption:
    def _node(self, engine: Engine, node_id: int, checker: InvariantChecker) -> Node:
        space = DataSpace(total_events=1_000_000, event_bytes=600 * units.KB)
        node = Node(
            node_id=node_id,
            engine=engine,
            cache=LRUSegmentCache(10_000),
            cost_model=CostModel.from_hardware(600 * units.KB),
            planner=CachingPlanner(TertiaryStorage(space)),
            chunk_events=100,
        )
        node.checker = checker
        node.on_subjob_complete = lambda n, s: None
        return node

    def test_double_assignment_is_caught(self):
        engine = Engine(check_invariants=True)
        checker = InvariantChecker()
        node_a = self._node(engine, 0, checker)
        node_b = self._node(engine, 1, checker)
        subjob = make_subjob(0, 500)
        node_a.start(subjob)
        # Test-only hook: reset the subjob's bookkeeping as a buggy policy
        # that lost track of its dispatch would, then hand the same subjob
        # to a second node.
        subjob.state = SubjobState.PENDING
        subjob.node = None
        with pytest.raises(InvariantViolation, match="double-assigned"):
            node_b.start(subjob)

    def test_unregistered_finish_is_caught(self):
        checker = InvariantChecker()
        engine = Engine()
        node = self._node(engine, 0, checker)
        subjob = make_subjob(0, 200)
        with pytest.raises(InvariantViolation, match="never registered"):
            checker.on_subjob_suspend(node, subjob)

    def test_legal_lifecycle_passes(self):
        engine = Engine(check_invariants=True)
        checker = InvariantChecker()
        node = self._node(engine, 0, checker)
        subjob = make_subjob(0, 300)
        node.start(subjob)
        engine.run()
        assert subjob.state is SubjobState.DONE
        assert checker.checks_run >= 2


class TestCli:
    def test_simulate_check_invariants_flag(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "--policy",
                    "out-of-order",
                    "--days",
                    "1",
                    "--check-invariants",
                ]
            )
            == 0
        )
        assert "mean speedup" in capsys.readouterr().out
