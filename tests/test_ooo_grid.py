"""Out-of-order decisions on a faulted, lossy 3-tier grid.

Two checks pin the grid's out-of-order paths:

* a cross-commit golden: an out-of-order and a replication run on a
  32-node ``depth3:proactive-site`` grid with node crashes and a lossy
  control plane, pinned to ``goldens/ooo_grid.json``.  The file was
  written by the full donor scan and the level-set access counter, so a
  donor index or count map that picks one different donor or promotes
  one different extent cannot pass it;
* a donor-index oracle: the same grid and a flat 10-node cluster run with
  ``_most_loaded_node`` wrapped by the full scan it replaced, and every
  search must agree.
"""

import dataclasses
import json
import os

import pytest

from repro.core import units
from repro.sched.base import create_policy
from repro.sched.out_of_order import DonorIndex
from repro.sim.config import FaultConfig, NetFaultConfig, quick_config
from repro.sim.simulator import Simulation
from repro.topo import topology_preset

GOLDENS = os.path.join(os.path.dirname(__file__), "goldens", "ooo_grid.json")

_GOLDEN_POLICIES = ("out-of-order", "replication")


def _grid_config(**overrides):
    """32 nodes under the grid's proactive-site promotion, with node
    crashes and a 10 %-lossy control plane."""
    defaults = dict(
        duration=2 * units.DAY, seed=7, n_nodes=32, arrival_rate_per_hour=8.0,
        topology=topology_preset("depth3", "proactive-site"),
        faults=FaultConfig(node_mtbf=2 * units.DAY, node_mttr=1 * units.HOUR),
        net=NetFaultConfig(loss=0.1),
    )
    defaults.update(overrides)
    return quick_config(**defaults)


def _grid_snapshot(policy: str) -> dict:
    sim = Simulation(_grid_config(), create_policy(policy))
    result = sim.run()
    assert result.topo is not None
    replication = getattr(sim.policy, "_planner", None)
    return {
        "policy_stats": result.policy_stats,
        "topo": {
            "replicated_events": result.topo.replicated_events,
            "tier_hit_events": result.topo.tier_hit_events,
            "tier_miss_events": result.topo.tier_miss_events,
            "tiers": [dataclasses.asdict(tier) for tier in result.topo.tiers],
        },
        "events_by_source": result.events_by_source,
        "replication": (
            dataclasses.asdict(replication.stats)
            if replication is not None
            else None
        ),
        "tertiary_events_read": result.tertiary_events_read,
        "tertiary_distinct_events": result.tertiary_distinct_events,
        "engine": {
            "dispatched": sim.engine.stats.dispatched,
            "scheduled": sim.engine.stats.scheduled,
        },
    }


def write_ooo_grid_golden(path: str = GOLDENS) -> None:
    """Regenerate ``goldens/ooo_grid.json`` (only on a deliberate change
    of donor choice or promotion)."""
    payload = {policy: _grid_snapshot(policy) for policy in _GOLDEN_POLICIES}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


class TestCrossCommitGolden:
    """The donor index and the count map pass every self-comparison by
    construction; they pass this one only if every steal and every
    promotion matches the scan and the level sets."""

    @pytest.mark.parametrize("policy", _GOLDEN_POLICIES)
    def test_grid_run_matches_committed_golden(self, policy):
        with open(GOLDENS, "r", encoding="utf-8") as handle:
            golden = json.load(handle)[policy]
        snapshot = json.loads(json.dumps(_grid_snapshot(policy)))
        assert snapshot == golden

    def test_golden_exercises_steals_and_promotion(self):
        with open(GOLDENS, "r", encoding="utf-8") as handle:
            golden = json.load(handle)
        for policy in _GOLDEN_POLICIES:
            assert golden[policy]["policy_stats"]["steals"] > 0
        # Tier promotion runs under out-of-order; under replication remote
        # reads serve the repeats, and the peer counters promote instead.
        assert golden["out-of-order"]["topo"]["replicated_events"] > 0
        assert golden["replication"]["events_by_source"]["remote"] > 0
        assert golden["replication"]["replication"]["replicated_events"] > 0


# -- oracle: the full donor scan the index replaced ---------------------------


def _scan_most_loaded(policy, exclude):
    """Every busy node but the thief, the highest load first, then (on a
    tiered grid) the closest to the thief, then the lowest id."""
    topo = policy.ctx.topo
    best = None
    best_load = 0
    best_distance = 0
    for node in policy.cluster:
        if node is exclude or node.idle:
            continue
        current = node.current
        load = policy.node_queues[node.node_id].events
        if current is not None:
            load += current.remaining_events
        if load > best_load:
            best_load = load
            best = node
            if topo is not None:
                best_distance = topo.distance(exclude.node_id, node.node_id)
        elif (
            topo is not None
            and best is not None
            and load == best_load
            and topo.distance(exclude.node_id, node.node_id) < best_distance
        ):
            best = node
            best_distance = topo.distance(exclude.node_id, node.node_id)
    if best_load < 2 * policy.min_subjob_events:
        return None
    return best


def _run_against_scan(config, policy_name="out-of-order"):
    """Run with every donor search checked against the scan; return the
    number of searches and of those that found a donor."""
    sim = Simulation(config, create_policy(policy_name))
    policy = sim.policy
    indexed = policy._most_loaded_node
    searches = []

    def checked(exclude):
        expected = _scan_most_loaded(policy, exclude)
        donor = indexed(exclude)
        assert donor is expected, (sim.engine.now, exclude.node_id)
        searches.append(donor)
        return donor

    policy._most_loaded_node = checked
    sim.run()
    return len(searches), sum(donor is not None for donor in searches)


class TestDonorIndexAgainstScan:
    def test_faulted_lossy_grid(self):
        searches, found = _run_against_scan(
            _grid_config(duration=1 * units.DAY, n_nodes=16)
        )
        assert searches > 0 and found > 0

    def test_replication_on_grid(self):
        searches, found = _run_against_scan(
            _grid_config(duration=1 * units.DAY, n_nodes=16), "replication"
        )
        assert searches > 0 and found > 0

    def test_flat_ten_nodes(self):
        searches, found = _run_against_scan(
            quick_config(
                duration=4 * units.DAY, seed=3, n_nodes=10,
                arrival_rate_per_hour=2.0,
            )
        )
        assert searches > 0 and found > 0


class TestDonorIndex:
    def test_raise_pushes_only_above_the_bound(self):
        donors = DonorIndex(4)
        donors.raise_to(2, 50)
        donors.raise_to(2, 40)
        donors.raise_to(2, 50)
        assert donors.bound == [0, 0, 50, 0]
        assert donors.heap == [(-50, 2)]

    def test_heap_rebuilt_past_twice_the_node_count(self):
        donors = DonorIndex(2)
        for load in range(1, 6):
            donors.raise_to(0, load)
        assert len(donors.heap) <= 4
        assert (-5, 0) in donors.heap
        donors.rebuild()
        assert donors.heap == [(-5, 0)]

    def test_duplicate_entries_keep_the_answer_and_live_entries(self):
        sim = Simulation(
            _grid_config(duration=1 * units.DAY), create_policy("out-of-order")
        )
        sim.prime()
        sim.engine.run(until=6 * units.HOUR)
        policy = sim.policy
        thief = sim.cluster[0]
        donors = policy.donors
        assert donors.heap
        # Duplicate every entry: a search must still agree with the scan
        # and leave a live entry per bound behind.
        donors.heap.extend(list(donors.heap))
        donors.heap.sort()
        assert policy._most_loaded_node(thief) is _scan_most_loaded(policy, thief)
        live = [
            (bound, node_id) for node_id, bound in enumerate(donors.bound) if bound
        ]
        for bound, node_id in live:
            assert (-bound, node_id) in donors.heap
        policy.check_invariants()
