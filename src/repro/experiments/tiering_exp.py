"""The ``tiering`` experiment — replica placement on a multi-tier grid.

The paper's cluster is flat: every node is one disk hop from the shared
tertiary store, so "where should replicas live?" has a trivial answer
(the node disk cache, §4.2).  The ``repro.topo`` layer breaks that
flatness: racks and sites get their own disk-pool caches behind
contended uplinks, and the replica-placement policy decides which of
them absorb tertiary reads.

This experiment sweeps topology depth (flat / depth2 / depth3) x
replica placement (none / root-only / lru-rack / proactive-site) x
offered load under the best central policy (out-of-order) and reports,
per point, the delivered performance (mean waiting, speedup) next to
the tiering bill from the schema-v7 ``topo`` accounting: tier-cache hit
fraction, link-saturation count, and the storage cost of the replicas
in GB-hours.  The flat point runs with no topology object at all, so
the curves are anchored to the exact bit-identical baseline of every
other experiment.

The verdict: on the flat cluster replication changes nothing by
construction, but on both deeper grids root-only and lru-rack serve
reads from their tier caches and beat ``none`` on speedup at every
load, unsaturated uplinks included: depth2 never saturates a link and
still gains (root-only 11.87 -> 14.59 at quick), while depth3 saturates
links at every point.  The table prices each placement in storage
GB-hours.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..analysis.tables import format_table
from ..core import units
from ..sim.config import quick_config
from ..sim.runner import RunSpec, SweepResult
from ..sim.simulator import SimulationResult
from ..topo.spec import TopologySpec, topology_preset
from .registry import Experiment, Scale, failed_claims, register_experiment

#: One seed for every point (the sweep compares topologies, not seeds).
_SEED = 13

#: Cluster size; divisible by the rack counts of both presets (2 racks
#: at depth2, 4 racks at depth3) so every rack hosts the same number of
#: nodes and no point is skewed by an uneven split.
_N_NODES = 8

#: Placements swept at every non-flat depth.  Flat runs once per load
#: as ``flat`` — placement is meaningless there (no tier caches exist)
#: and the run must stay on the stock data path.
_PLACEMENTS = ("none", "root-only", "lru-rack", "proactive-site")

_DEPTHS = ("depth2", "depth3")

_LOADS = {
    Scale.SMOKE: [2.0],
    Scale.QUICK: [2.0, 6.0],
    Scale.FULL: [2.0, 4.0, 6.0, 8.0],
}

_DURATIONS = {
    Scale.SMOKE: 1 * units.DAY,
    Scale.QUICK: 2 * units.DAY,
    Scale.FULL: 4 * units.DAY,
}


def _config_for(load: float, duration: float, topology: Optional[TopologySpec]):
    return quick_config(
        n_nodes=_N_NODES,
        arrival_rate_per_hour=load,
        duration=duration,
        seed=_SEED,
        topology=topology,
    )


def _tiering_build(scale: Scale) -> List[RunSpec]:
    duration = _DURATIONS[scale]
    specs: List[RunSpec] = []
    for load in _LOADS[scale]:
        specs.append(
            RunSpec.make(
                _config_for(load, duration, None), "out-of-order", label="flat"
            )
        )
        for depth in _DEPTHS:
            for placement in _PLACEMENTS:
                specs.append(
                    RunSpec.make(
                        _config_for(
                            load, duration, topology_preset(depth, placement)
                        ),
                        "out-of-order",
                        label=f"{depth}/{placement}",
                    )
                )
    return specs


def _tier_hit_fraction(result) -> float:
    """Fraction of non-node-cache reads served by a tier cache."""
    tier = result.events_by_source.get("tier", 0)
    tertiary = result.events_by_source.get("tertiary", 0)
    total = tier + tertiary
    return tier / total if total else 0.0


def _link_saturations(result) -> int:
    return result.topo.link_saturated_plans if result.topo is not None else 0


def _storage_gb_hours(result, event_bytes: int) -> float:
    if result.topo is None:
        return 0.0
    return (
        result.topo.storage_event_seconds * event_bytes / units.GB / units.HOUR
    )


def _tiering_render(sweep: SweepResult) -> str:
    rows = []
    for spec, result in sweep.pairs():
        load = spec.config.arrival_rate_per_hour
        topo = result.topo
        storage = _storage_gb_hours(result, spec.config.event_bytes)
        rows.append(
            [
                spec.label,
                f"{load:.1f}",
                units.fmt_duration(result.measured.mean_waiting),
                f"{result.measured.mean_speedup:.2f}",
                f"{_tier_hit_fraction(result):.2f}" if topo is not None else "-",
                topo.link_saturated_plans if topo is not None else "-",
                topo.replicated_events if topo is not None else "-",
                f"{storage:.1f}" if topo is not None else "-",
                "OVERLOADED" if result.overload.overloaded else "steady",
            ]
        )
    return format_table(
        [
            "topology/placement",
            "load/h",
            "mean wait",
            "speedup",
            "tier hit",
            "link sat",
            "replicated",
            "GB-hours",
            "state",
        ],
        rows,
        title=(
            "Replica placement economics on a tiered data grid "
            "(out-of-order policy; flat = the paper's cluster, "
            "bit-identical to every other experiment)"
        ),
    )


def _tiering_verdict(sweep: SweepResult, scale: Scale) -> List[str]:
    # (load, depth) -> placement -> result; flat points carry no depth.
    points: Dict[Tuple[float, str], Dict[str, SimulationResult]] = {}
    for spec, result in sweep.pairs():
        depth, _, placement = spec.label.partition("/")
        key = (spec.config.arrival_rate_per_hour, depth)
        points.setdefault(key, {})[placement] = result
    checks: List[Tuple[bool, str]] = []
    for (load, depth), results in sorted(points.items()):
        if depth not in _DEPTHS:
            continue
        at = f"at {depth}, load {load:.1f}/h"
        none = results["none"].measured.mean_speedup
        for placement in ("root-only", "lru-rack"):
            speedup = results[placement].measured.mean_speedup
            hits = _tier_hit_fraction(results[placement])
            checks += [
                (speedup > none,
                 f"{placement} beats none on speedup {at}: "
                 f"{speedup:.2f} vs {none:.2f}"),
                (hits > 0.0, f"{placement} hits its tier caches {at}: {hits:.2f}"),
            ]
        saturated = {
            placement: _link_saturations(result)
            for placement, result in results.items()
        }
        if depth == "depth2":
            checks.append((
                not any(saturated.values()),
                f"no uplink saturates {at}: {saturated}",
            ))
        else:
            checks.append((
                all(saturated.values()),
                f"uplinks saturate under every placement {at}: {saturated}",
            ))
    return failed_claims(*checks)


register_experiment(
    Experiment(
        exp_id="tiering",
        title="Replica placement on a multi-tier data grid",
        paper_ref="beyond the paper (its cluster is flat by construction)",
        build=_tiering_build,
        render=_tiering_render,
        expectation=(
            "flat and 'none' placements anchor the baseline; on both "
            "depth2 (no uplink ever saturates) and depth3 (uplinks "
            "saturate at every point), root-only and lru-rack hit their "
            "tier caches and beat 'none' on speedup at every load, priced "
            "in storage GB-hours"
        ),
        verdict=_tiering_verdict,
    )
)
