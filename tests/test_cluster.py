"""Tests for the Cluster container and its scheduling helpers."""

import random

import pytest

from repro.cluster.access import CachingPlanner
from repro.cluster.cluster import Cluster
from repro.cluster.costmodel import CostModel
from repro.core.engine import Engine
from repro.core.errors import ConfigurationError
from repro.core import units
from repro.data.tertiary import TertiaryStorage
from repro.sim.config import FaultConfig, NetFaultConfig, quick_config
from repro.sim.simulator import run_simulation

from .conftest import make_cluster
from .helpers import make_subjob


class TestConstruction:
    def test_node_count(self, engine, tertiary):
        cluster = make_cluster(engine, tertiary, n_nodes=5)
        assert len(cluster) == 5
        assert [node.node_id for node in cluster] == [0, 1, 2, 3, 4]

    def test_indexing(self, engine, tertiary):
        cluster = make_cluster(engine, tertiary)
        assert cluster[1].node_id == 1

    def test_zero_nodes_rejected(self, engine, tertiary):
        with pytest.raises(ConfigurationError):
            Cluster(
                engine, 0, 100, CostModel(), CachingPlanner(tertiary)
            )

    def test_speed_factor_length_checked(self, engine, tertiary):
        with pytest.raises(ConfigurationError):
            Cluster(
                engine, 3, 100, CostModel(), CachingPlanner(tertiary),
                speed_factors=[1.0, 2.0],
            )

    def test_heterogeneous_speeds(self, engine, tertiary):
        cluster = Cluster(
            engine, 2, 10_000,
            CostModel.from_hardware(600 * units.KB),
            CachingPlanner(tertiary),
            speed_factors=[1.0, 2.0],
        )
        for node in cluster:
            node.on_subjob_complete = lambda n, s: None
        cluster[0].start(make_subjob(0, 100))
        cluster[1].start(make_subjob(1000, 100))
        engine.run()
        # The slow node took twice as long.
        assert cluster[1].stats.busy_seconds == pytest.approx(
            2 * cluster[0].stats.busy_seconds
        )


class TestQueries:
    def test_idle_and_busy(self, engine, tertiary):
        cluster = make_cluster(engine, tertiary)
        for node in cluster:
            node.on_subjob_complete = lambda n, s: None
        assert len(cluster.idle_nodes()) == 3
        cluster[1].start(make_subjob(0, 1000))
        assert [n.node_id for n in cluster.idle_nodes()] == [0, 2]
        assert [n.node_id for n in cluster.busy_nodes()] == [1]

    def test_utilization_empty(self, engine, tertiary):
        cluster = make_cluster(engine, tertiary)
        assert cluster.utilization(0.0) == 0.0
        assert cluster.utilization(100.0) == 0.0


def _scanned_idle(cluster):
    return [
        node.node_id
        for node in cluster
        if node.current is None and not node.failed and not node.reserved
    ]


class TestIdleIndex:
    """The idle-node index tracks every node transition exactly."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_transitions_keep_index_equal_to_scan(
        self, engine, tertiary, seed
    ):
        rng = random.Random(seed)
        cluster = make_cluster(engine, tertiary, n_nodes=7, chunk_events=50)
        for node in cluster:
            node.on_subjob_complete = lambda n, s: None
        suspended = []
        next_start = 0
        steps = {"start": 0, "preempt": 0, "fail": 0, "recover": 0,
                 "reserve": 0, "unreserve": 0, "complete": 0}
        for _ in range(400):
            action = rng.choice(sorted(steps))
            if action == "complete":
                # Let the clock run so chunks (and whole subjobs) finish.
                engine.run(until=engine.now + rng.uniform(0.0, 30.0))
                steps[action] += 1
            else:
                candidates = {
                    "start": [n for n in cluster if n.idle],
                    "preempt": [n for n in cluster if n.busy],
                    "fail": [n for n in cluster if not n.failed],
                    "recover": [n for n in cluster if n.failed],
                    "reserve": [n for n in cluster if n.idle],
                    "unreserve": [n for n in cluster if n.reserved],
                }[action]
                if not candidates:
                    continue
                node = rng.choice(candidates)
                steps[action] += 1
                if action == "start":
                    if suspended:
                        subjob = suspended.pop()
                    else:
                        subjob = make_subjob(next_start, rng.randint(1, 400))
                        next_start += 1000
                    node.start(subjob)
                elif action == "preempt":
                    displaced = node.preempt()
                    if displaced is not None:
                        suspended.append(displaced)
                elif action == "fail":
                    aborted = node.fail()
                    if aborted is not None:
                        suspended.append(aborted)
                elif action == "recover":
                    node.recover()
                else:
                    node.reserved = action == "reserve"
            scanned = _scanned_idle(cluster)
            assert [n.node_id for n in cluster.idle_nodes()] == scanned
            assert [n.node_id for n in cluster if n.idle] == scanned
            first = cluster.first_idle()
            assert (first.node_id if first is not None else None) == (
                scanned[0] if scanned else None
            )
        assert all(count > 0 for count in steps.values()), steps

    def test_starting_nodes_while_iterating_a_snapshot(self, engine, tertiary):
        cluster = make_cluster(engine, tertiary, n_nodes=7)
        for node in cluster:
            node.on_subjob_complete = lambda n, s: None
        cluster[2].start(make_subjob(0, 1000))
        cluster[5].reserved = True
        visited = []
        for i, node in enumerate(cluster.idle_nodes()):
            visited.append(node.node_id)
            node.start(make_subjob(10_000 * (i + 1), 1000))
        assert visited == [0, 1, 3, 4, 6]
        assert cluster.idle_nodes() == []
        assert cluster.first_idle() is None

    @pytest.mark.parametrize("policy", ["farm", "out-of-order"])
    def test_sanitized_lossy_faulted_run_is_clean(self, policy):
        config = quick_config(
            seed=5,
            duration=2 * units.DAY,
            n_nodes=6,
            arrival_rate_per_hour=6.0,
            faults=FaultConfig(
                node_mtbf=6 * units.HOUR, node_mttr=30 * units.MINUTE
            ),
            net=NetFaultConfig(
                loss=0.2, duplicate=0.1, delay_mean=0.05, reorder=0.1,
                ack_timeout=2.0,
            ),
        )
        result = run_simulation(config, policy, check_invariants=True)
        assert result.faults is not None and result.faults.failures > 0
        assert result.jobs_completed > 0
