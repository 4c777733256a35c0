"""Tests for the hierarchical topology layer (``repro.topo``).

Four contracts are pinned here:

* **spec validation** — well-formed :class:`TopologySpec` values build
  and round-trip; malformed ones (bad parent refs, cycles,
  zero-bandwidth links, duplicate names, multiple roots) fail with
  actionable :class:`ConfigurationError` messages, including under a
  seeded fuzzer;
* **routing** — node-to-leaf assignment, LCA distances and traversed
  uplinks are pure functions of (spec, n_nodes);
* **depth-1 equivalence** — running with the ``flat`` preset is
  bit-identical to the committed seed goldens for every stock policy
  (the automated cmp of ISSUE acceptance);
* **tiered determinism** — a 3-tier run replays bit-identically across
  ``--jobs`` settings, under ``check_invariants`` and through the
  exec result cache, and each replica placement policy leaves the
  accounting it promises.
"""

from __future__ import annotations

import json
import os
import random

import pytest

from repro.cluster.access import CachingPlanner, ContentionRemoteReadPlanner
from repro.cluster.costmodel import CostModel, DataSource
from repro.cluster.node import Node
from repro.core import units
from repro.core.engine import Engine
from repro.core.errors import ConfigurationError
from repro.data.cache import LRUSegmentCache
from repro.data.dataspace import DataSpace
from repro.data.tertiary import TertiaryStorage
from repro.exec import Executor, make_cache
from repro.obs.hooks import NULL_BUS
from repro.sim.config import quick_config
from repro.sim.runner import RunSpec, run_sweep
from repro.sim.simulator import run_simulation
from repro.topo.spec import (
    PLACEMENTS,
    TOPOLOGY_PRESETS,
    TierSpec,
    TopologySpec,
    topology_preset,
)
from repro.topo.planner import TieredPlanner
from repro.topo.tree import TierCache, Topology
from repro.workload.jobs import SubjobState

from .helpers import make_subjob

GOLDENS = os.path.join(os.path.dirname(__file__), "goldens", "seed_metrics.json")

#: Same policy list and recorded parameters as tests/test_perf.py.
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
_GOLDEN_PARAMS = {"delayed": {"period": 11 * units.HOUR, "stripe_events": 500}}


def _tiers(*entries) -> tuple:
    return tuple(TierSpec(**entry) for entry in entries)


# ---------------------------------------------------------------------------
# Spec validation
# ---------------------------------------------------------------------------


class TestSpecValidation:
    def test_presets_build_and_report_depth(self):
        assert topology_preset("flat").depth == 1
        assert topology_preset("depth2").depth == 2
        assert topology_preset("depth3").depth == 3

    def test_flat_preset_is_trivial(self):
        assert topology_preset("flat").is_trivial
        assert not topology_preset("depth2").is_trivial

    @pytest.mark.parametrize("placement", PLACEMENTS)
    def test_presets_accept_every_placement(self, placement):
        for name in TOPOLOGY_PRESETS:
            assert topology_preset(name, placement).placement == placement

    def test_unknown_preset_lists_available(self):
        with pytest.raises(ConfigurationError, match="available: depth2, depth3, flat"):
            topology_preset("dpeth2")

    def test_unknown_placement_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown placement"):
            topology_preset("depth2", "everywhere")

    def test_duplicate_tier_names_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate tier name"):
            TopologySpec(tiers=_tiers(
                {"name": "root"},
                {"name": "a", "parent": "root", "link_bandwidth": 1.0},
                {"name": "a", "parent": "root", "link_bandwidth": 1.0},
            ))

    def test_missing_root_rejected(self):
        with pytest.raises(ConfigurationError, match="exactly one root"):
            TopologySpec(tiers=_tiers(
                {"name": "a", "parent": "b", "link_bandwidth": 1.0},
                {"name": "b", "parent": "a", "link_bandwidth": 1.0},
            ))

    def test_two_roots_rejected(self):
        with pytest.raises(ConfigurationError, match="exactly one root"):
            TopologySpec(tiers=_tiers({"name": "r1"}, {"name": "r2"}))

    def test_unknown_parent_names_known_tiers(self):
        with pytest.raises(ConfigurationError, match="unknown parent 'rck'"):
            TopologySpec(tiers=_tiers(
                {"name": "root"},
                {"name": "a", "parent": "rck", "link_bandwidth": 1.0},
            ))

    def test_cycle_names_the_trail(self):
        with pytest.raises(ConfigurationError, match="cycle"):
            TopologySpec(tiers=_tiers(
                {"name": "root"},
                {"name": "a", "parent": "b", "link_bandwidth": 1.0},
                {"name": "b", "parent": "a", "link_bandwidth": 1.0},
            ))

    def test_zero_bandwidth_uplink_rejected(self):
        with pytest.raises(ConfigurationError, match="zero-bandwidth uplink"):
            TierSpec(name="a", parent="root", link_bandwidth=0.0)

    def test_root_with_uplink_rejected(self):
        with pytest.raises(ConfigurationError, match="must not declare an uplink"):
            TierSpec(name="root", link_bandwidth=5.0)

    def test_negative_cache_rejected(self):
        with pytest.raises(ConfigurationError, match="cache_bytes"):
            TierSpec(name="root", cache_bytes=-1)

    def test_promote_threshold_validated(self):
        with pytest.raises(ConfigurationError, match="promote_threshold"):
            TopologySpec(tiers=_tiers({"name": "root"}), promote_threshold=0)

    def test_round_trips_through_dict(self):
        for name in TOPOLOGY_PRESETS:
            spec = topology_preset(name, "lru-rack")
            clone = TopologySpec.from_dict(json.loads(json.dumps(spec.to_dict())))
            assert clone == spec

    def test_from_dict_rejects_missing_tiers(self):
        with pytest.raises(ConfigurationError, match="missing the 'tiers'"):
            TopologySpec.from_dict({"placement": "none"})

    def test_from_dict_rejects_unknown_tier_keys(self):
        with pytest.raises(ConfigurationError, match="unknown tier keys"):
            TopologySpec.from_dict(
                {"tiers": [{"name": "root", "bandwith": 3}]}
            )

    def test_from_dict_rejects_bool_threshold(self):
        with pytest.raises(ConfigurationError, match="must be an integer"):
            TopologySpec.from_dict(
                {"tiers": [{"name": "root"}], "promote_threshold": True}
            )


class TestSpecFuzz:
    """Seeded fuzz: random well-formed specs validate and round-trip;
    random single-defect mutations fail with a ConfigurationError."""

    def _well_formed(self, rng: random.Random) -> TopologySpec:
        n = rng.randint(1, 12)
        entries = [{"name": "t0"}]
        for i in range(1, n):
            entries.append({
                "name": f"t{i}",
                # Parents only among earlier tiers: acyclic by construction.
                "parent": f"t{rng.randrange(i)}",
                "cache_bytes": rng.choice([0, 1, 512, 10**9]),
                "link_bandwidth": rng.choice([1.0, 1e6, 1e8]),
                "link_capacity_streams": rng.randint(0, 8),
            })
        if rng.random() < 0.5:
            entries[0]["cache_bytes"] = rng.choice([1, 10**9])
        return TopologySpec(
            tiers=_tiers(*entries),
            placement=rng.choice(PLACEMENTS),
            promote_threshold=rng.randint(1, 5),
        )

    def test_well_formed_specs_validate_and_round_trip(self):
        rng = random.Random(0xA5)
        for _ in range(60):
            spec = self._well_formed(rng)
            assert spec.depth >= 1
            assert spec.root.name == "t0"
            assert TopologySpec.from_dict(spec.to_dict()) == spec
            # The runtime tree must build for any valid spec/node count.
            topo = Topology(spec, n_nodes=rng.randint(1, 9), event_bytes=1000)
            assert topo.depth == spec.depth

    def test_mutated_specs_fail_actionably(self):
        rng = random.Random(0x5A)
        defects = ("bad-parent", "cycle", "zero-bandwidth", "dup-name", "two-roots")
        for _ in range(60):
            spec = self._well_formed(rng)
            payload = spec.to_dict()
            # asdict keeps the tiers tuple; the mutations below append.
            tiers = payload["tiers"] = list(payload["tiers"])
            defect = rng.choice(defects)
            if defect == "bad-parent":
                victim = rng.choice(tiers)
                victim["parent"] = "no-such-tier"
                if victim["link_bandwidth"] == 0.0:
                    victim["link_bandwidth"] = 1.0
            elif defect == "cycle":
                tiers.append({
                    "name": "cyc-a", "parent": "cyc-b", "cache_bytes": 0,
                    "link_bandwidth": 1.0, "link_capacity_streams": 0,
                })
                tiers.append({
                    "name": "cyc-b", "parent": "cyc-a", "cache_bytes": 0,
                    "link_bandwidth": 1.0, "link_capacity_streams": 0,
                })
            elif defect == "zero-bandwidth":
                tiers.append({
                    "name": "dead", "parent": "t0", "cache_bytes": 0,
                    "link_bandwidth": 0.0, "link_capacity_streams": 0,
                })
            elif defect == "dup-name":
                clone = dict(rng.choice(tiers))
                clone["name"] = "t0"
                if clone.get("parent") is None:
                    clone["parent"] = "t0"
                    clone["link_bandwidth"] = 1.0
                tiers.append(clone)
            else:  # two-roots
                tiers.append({
                    "name": "root2", "parent": None, "cache_bytes": 0,
                    "link_bandwidth": 0.0, "link_capacity_streams": 0,
                })
            with pytest.raises(ConfigurationError) as excinfo:
                TopologySpec.from_dict(payload)
            assert str(excinfo.value), defect


# ---------------------------------------------------------------------------
# Routing
# ---------------------------------------------------------------------------


class TestRouting:
    def _topo(self, n_nodes=8, placement="none"):
        return Topology(
            topology_preset("depth3", placement), n_nodes=n_nodes,
            event_bytes=1000,
        )

    def test_nodes_attach_in_contiguous_blocks(self):
        topo = self._topo(n_nodes=8)
        assert [topo.tier_name_of(n) for n in range(8)] == [
            "site0.rack0", "site0.rack0",
            "site0.rack1", "site0.rack1",
            "site1.rack0", "site1.rack0",
            "site1.rack1", "site1.rack1",
        ]

    def test_uneven_nodes_spill_to_early_leaves(self):
        topo = self._topo(n_nodes=6)
        names = [topo.tier_name_of(n) for n in range(6)]
        assert names.count("site0.rack0") == 2
        assert names.count("site0.rack1") == 2
        assert names.count("site1.rack0") == 1
        assert names.count("site1.rack1") == 1

    def test_distance_is_lca_hops(self):
        topo = self._topo(n_nodes=8)
        assert topo.distance(0, 1) == 0  # same rack
        assert topo.distance(0, 2) == 2  # sibling racks, same site
        assert topo.distance(0, 4) == 4  # across sites via the grid root
        assert topo.distance(4, 0) == topo.distance(0, 4)

    def test_uplinks_between_spans_both_sides_of_the_lca(self):
        topo = self._topo(n_nodes=8)
        assert [t.name for t in topo.uplinks_between(0, 1)] == []
        assert [t.name for t in topo.uplinks_between(0, 2)] == [
            "site0.rack0", "site0.rack1"
        ]
        assert sorted(t.name for t in topo.uplinks_between(0, 6)) == [
            "site0", "site0.rack0", "site1", "site1.rack1"
        ]

    def test_path_of_runs_leaf_to_root(self):
        topo = self._topo(n_nodes=8)
        assert [t.name for t in topo.path_of(5)] == [
            "site1.rack0", "site1", "grid"
        ]

    def test_declaration_order_independent(self):
        # Children may be declared before their parents.
        spec = TopologySpec(tiers=_tiers(
            {"name": "rack", "parent": "site", "link_bandwidth": 1e6},
            {"name": "site", "parent": "root", "link_bandwidth": 1e6},
            {"name": "root"},
        ))
        topo = Topology(spec, n_nodes=2, event_bytes=1000)
        assert [t.name for t in topo.path_of(0)] == ["rack", "site", "root"]
        assert [t.level for t in topo.path_of(0)] == [2, 1, 0]


# ---------------------------------------------------------------------------
# Tier cache accounting
# ---------------------------------------------------------------------------


class TestTierCache:
    def test_storage_integral_is_piecewise_constant(self):
        cache = TierCache("rack", capacity_events=100, obs=NULL_BUS)
        cache.admit(0, 10, now=5.0)      # 10 events from t=5
        cache.admit(10, 30, now=10.0)    # 30 events from t=10
        cache.finalize(until=20.0)
        # 10 events * 5 s + 30 events * 10 s.
        assert cache.storage_event_seconds == 10 * 5 + 30 * 10
        cache.finalize(until=99.0)  # idempotent
        assert cache.storage_event_seconds == 10 * 5 + 30 * 10

    def test_hits_and_misses_count_events(self):
        cache = TierCache("rack", capacity_events=100, obs=NULL_BUS)
        cache.admit(0, 10, now=0.0)
        cache.serve(0, 10, now=1.0)
        cache.record_miss(10, 40, now=1.0)
        assert cache.hit_events == 10
        assert cache.miss_events == 30

    def test_admission_evicts_lru_at_capacity(self):
        cache = TierCache("rack", capacity_events=20, obs=NULL_BUS)
        cache.admit(0, 20, now=0.0)
        cache.admit(50, 60, now=1.0)
        assert cache.cache.stats.evicted_events >= 10
        assert cache.cached_prefix(50, 60) == 60


class TestLinkContention:
    def test_uncontended_link_prices_base_time(self):
        topo = Topology(
            topology_preset("depth2"), n_nodes=8, event_bytes=1000
        )
        rack = topo.tiers["rack0"]
        base = rack.link_time_per_event
        assert base == 1000 / (100 * units.MB)
        for _ in range(rack.link_capacity_streams - 1):
            rack.acquire()
        assert rack.planned_link_time(0.0) == base  # at capacity, not over
        assert rack.saturated_plans == 0

    def test_oversubscribed_link_queues_and_counts(self):
        topo = Topology(
            topology_preset("depth2"), n_nodes=8, event_bytes=1000
        )
        rack = topo.tiers["rack0"]
        base = rack.link_time_per_event
        for _ in range(rack.link_capacity_streams):
            rack.acquire()
        assert rack.planned_link_time(0.0) == base * (5 / 4)
        assert rack.saturated_plans == 1
        assert rack.peak_streams == 4


class TestLinkStreamLifetime:
    """A chunk holds its uplinks from :meth:`TieredPlanner.plan_chunk`
    to the one :meth:`TieredPlanner.on_chunk_processed` the node makes
    for it: on completion, on preemption, or empty after a crash."""

    @staticmethod
    def _grid(base_planner=None):
        space = DataSpace(total_events=1_000_000, event_bytes=600 * units.KB)
        engine = Engine()
        tertiary = TertiaryStorage(space)
        topo = Topology(topology_preset("depth3"), n_nodes=4, event_bytes=space.event_bytes)
        base = base_planner(tertiary) if base_planner else CachingPlanner(tertiary)
        planner = TieredPlanner(base, topo)
        nodes = [
            Node(
                node_id=i,
                engine=engine,
                cache=LRUSegmentCache(10_000),
                cost_model=CostModel.from_hardware(space.event_bytes),
                planner=planner,
                chunk_events=100,
            )
            for i in range(4)
        ]
        for node in nodes:
            node.on_subjob_complete = lambda n, s: None
        return engine, nodes, topo, planner

    @staticmethod
    def _streams(topo):
        return {name: tier.active_streams for name, tier in topo.tiers.items()}

    @staticmethod
    def _check(planner, nodes):
        # The sanitizer's law: every tier (and the contention planner)
        # counts exactly the running chunks' streams.
        planner.check_stream_counts(
            [n.current_plan() for n in nodes if n.current_plan() is not None]
        )

    def test_tertiary_chunks_hold_the_path_uplinks(self):
        engine, nodes, topo, planner = self._grid()
        nodes[0].start(make_subjob(0, 300))
        assert nodes[0].current_source() is DataSource.TERTIARY
        streams = self._streams(topo)
        assert streams["site0.rack0"] == streams["site0"] == 1
        assert sum(streams.values()) == 2
        self._check(planner, nodes)
        engine.run()
        assert sum(self._streams(topo).values()) == 0
        assert topo.tiers["site0"].peak_streams == 1
        assert topo.tiers["site0"].link_events == 300

    def test_tier_hit_holds_only_the_links_below_and_preempt_releases(self):
        engine, nodes, topo, planner = self._grid()
        topo.tiers["site0"].cache.admit(0, 300, 0.0)
        subjob = make_subjob(0, 300)
        nodes[0].start(subjob)
        plan = nodes[0].current_plan()
        assert plan.source is DataSource.TIER and plan.tier is topo.tiers["site0"]
        assert self._streams(topo)["site0.rack0"] == 1
        assert sum(self._streams(topo).values()) == 1
        self._check(planner, nodes)
        engine.run(until=10.0)
        assert nodes[0].preempt() is subjob
        assert sum(self._streams(topo).values()) == 0
        nodes[0].start(subjob)
        engine.run()
        assert subjob.state is SubjobState.DONE
        assert sum(self._streams(topo).values()) == 0
        assert nodes[0].stats.events_by_source[DataSource.TIER] == 300

    def test_crash_releases_uplinks_and_remote_stream(self):
        engine, nodes, topo, planner = self._grid(ContentionRemoteReadPlanner)
        planner.base.set_peers(nodes)
        nodes[3].cache.insert(0, 300, now=0.0)
        nodes[0].start(make_subjob(0, 300))
        plan = nodes[0].current_plan()
        assert plan.source is DataSource.REMOTE and plan.owner is nodes[3]
        assert planner.base._active_remote_streams == 1
        # Both sides of the grid root: rack and site uplinks on each.
        assert sum(self._streams(topo).values()) == 4
        self._check(planner, nodes)
        engine.run(until=10.0)
        assert nodes[0].fail() is not None
        assert planner.base._active_remote_streams == 0
        assert sum(self._streams(topo).values()) == 0
        self._check(planner, nodes)


# ---------------------------------------------------------------------------
# Depth-1 equivalence: flat preset == committed seed goldens
# ---------------------------------------------------------------------------


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


class TestFlatEqualsSeedGoldens:
    """The ISSUE's cmp-style acceptance test: a depth-1 topology run is
    bit-identical to the committed seed goldens for every stock policy."""

    @pytest.mark.parametrize("policy", _QUICK_POLICIES)
    def test_flat_preset_matches_golden(self, policy):
        with open(GOLDENS, "r", encoding="utf-8") as handle:
            golden = json.load(handle)[f"quick/{policy}"]
        result = run_simulation(
            quick_config(topology=topology_preset("flat")),
            policy,
            check_invariants=True,
            **_GOLDEN_PARAMS.get(policy, {}),
        )
        # Trivial spec: no Topology object, no tier accounting at all.
        assert result.topo is None
        assert "tier" not in result.events_by_source
        snap = _snap(result)
        assert {key: snap[key] for key in golden} == golden


# ---------------------------------------------------------------------------
# Tiered determinism
# ---------------------------------------------------------------------------


def _tiered_config(placement="lru-rack", **overrides):
    defaults = dict(
        n_nodes=8,
        duration=2 * units.DAY,
        arrival_rate_per_hour=4.0,
        seed=7,
        topology=topology_preset("depth3", placement),
    )
    defaults.update(overrides)
    return quick_config(**defaults)


def _tiered_specs():
    return [
        RunSpec.make(
            _tiered_config(placement), "out-of-order", label=placement
        )
        for placement in ("none", "root-only", "lru-rack", "proactive-site")
    ]


class TestTieredDeterminism:
    def test_bit_identical_across_jobs(self):
        serial = run_sweep(_tiered_specs(), executor=Executor(jobs=1))
        pooled = run_sweep(_tiered_specs(), executor=Executor(jobs=3))
        assert serial.to_json() == pooled.to_json()

    def test_bit_identical_under_invariant_checks(self):
        plain = run_simulation(_tiered_config(), "out-of-order")
        checked = run_simulation(
            _tiered_config(), "out-of-order", check_invariants=True
        )
        assert _snap(plain) == _snap(checked)
        assert plain.topo == checked.topo

    def test_bit_identical_through_cache_and_resume(self, tmp_path):
        specs = _tiered_specs()
        cold = run_sweep(
            specs, executor=Executor(jobs=1, cache=make_cache(tmp_path))
        )
        warm = run_sweep(
            specs, executor=Executor(jobs=2, cache=make_cache(tmp_path))
        )
        assert warm.stats.executed == 0
        assert cold.to_json() == warm.to_json()


class TestPlacementAccounting:
    def _run(self, placement):
        return run_simulation(_tiered_config(placement), "out-of-order")

    def test_none_placement_never_populates_tier_caches(self):
        topo = self._run("none").topo
        assert topo is not None
        assert topo.tier_hit_events == 0
        assert topo.storage_event_seconds == 0.0
        assert topo.replicated_events == 0

    def test_root_only_fills_only_site_caches(self):
        topo = self._run("root-only").topo
        by_name = {tier.name: tier for tier in topo.tiers}
        assert topo.tier_hit_events > 0
        assert (
            by_name["site0"].storage_event_seconds
            + by_name["site1"].storage_event_seconds
        ) > 0.0
        assert by_name["site0.rack0"].storage_event_seconds == 0.0
        assert by_name["site0.rack0"].cache_hit_events == 0

    def test_lru_rack_pulls_data_down_to_racks(self):
        topo = self._run("lru-rack").topo
        rack_storage = sum(
            tier.storage_event_seconds
            for tier in topo.tiers
            if "rack" in tier.name
        )
        assert rack_storage > 0.0
        assert topo.tier_hit_events > 0

    def test_proactive_site_counts_replicated_events(self):
        topo = self._run("proactive-site").topo
        assert topo.replicated_events > 0
        assert topo.storage_event_seconds > 0.0

    def test_tier_reads_ride_in_events_by_source(self):
        result = self._run("lru-rack")
        assert result.events_by_source.get("tier", 0) > 0
        # Conservation: the four sources partition all processed events.
        assert set(result.events_by_source) == {
            "cache", "tertiary", "remote", "tier"
        }

    def test_summary_json_carries_topo_v7(self):
        from repro.sim.export import SCHEMA_VERSION, result_summary_dict

        summary = result_summary_dict(self._run("lru-rack"))
        assert SCHEMA_VERSION == 7
        topo = summary["topo"]
        assert topo["depth"] == 3
        assert topo["placement"] == "lru-rack"
        assert len(topo["tiers"]) == 7
        for tier in topo["tiers"]:
            for key in (
                "cache_hit_events", "cache_miss_events",
                "cache_evicted_events", "storage_event_seconds",
                "link_events", "link_saturated_plans", "link_peak_streams",
            ):
                assert key in tier
