"""Runtime tier tree: contended links, tier caches, per-tier accounting.

Built once per run from a validated
:class:`~repro.topo.spec.TopologySpec`.  Three runtime concerns live
here:

* **routing** — every node's precomputed leaf-to-root tier path, plus the
  LCA hop :meth:`Topology.distance` the tier-locality-aware schedulers
  score with (through the narrow :class:`TopologyView` protocol, so
  policies never see link or cache internals);
* **link contention** — each non-root tier's uplink counts its active
  streams; a plan that oversubscribes the link's stream capacity is
  priced with a queueing multiplier and counted as a saturation event
  (the same deterministic snapshot-at-plan-time model as
  :class:`~repro.cluster.access.ContentionRemoteReadPlanner`);
* **tier caches** — an LRU segment cache per caching tier, with hit /
  miss / eviction counts and a storage-cost integral (cached
  event-seconds), so replica-placement policies carry a measurable
  price, not just a benefit.

Nothing here draws random numbers; all state advances on planner hooks,
so topology accounting replays bit-identically with the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, Tuple

from ..core.errors import ConfigurationError
from ..data.cache import LRUSegmentCache
from ..data.intervals import Interval
from ..obs.hooks import NULL_BUS, HookBus, kinds
from .spec import TierSpec, TopologySpec


class TierCache:
    """A tier-level LRU cache with hit/miss and storage-cost accounting.

    Wraps :class:`~repro.data.cache.LRUSegmentCache` (built with a
    disabled bus — tier evictions are re-emitted as ``tier.evict``
    events here, not as node ``cache.evict``) and maintains the
    occupancy integral ``storage_event_seconds``: cached events
    integrated over simulated time, the run's storage bill for hosting
    replicas at this tier.
    """

    def __init__(self, tier_name: str, capacity_events: int, obs: HookBus) -> None:
        self.tier_name = tier_name
        self.cache = LRUSegmentCache(capacity_events, obs=NULL_BUS)
        self.obs = obs
        self.hit_events = 0
        self.miss_events = 0
        self.storage_event_seconds = 0.0
        self._last_advance = 0.0
        self._finalized = False

    # -- storage-cost integral --------------------------------------------

    def _advance(self, now: float) -> None:
        """Accrue occupancy cost up to ``now`` (piecewise-constant)."""
        if now > self._last_advance:
            self.storage_event_seconds += self.cache.used_events * (
                now - self._last_advance
            )
            self._last_advance = now

    def finalize(self, until: float) -> None:
        """Close the occupancy integral at the end of the run."""
        if not self._finalized:
            self._advance(until)
            self._finalized = True

    # -- cache operations --------------------------------------------------

    def cached_prefix(self, interval: Interval) -> Interval:
        return self.cache.cached_prefix(interval)

    def serve(self, interval: Interval, now: float) -> None:
        """Account a hit: ``interval`` was read from this tier cache."""
        self._advance(now)
        self.cache.touch(interval, now)
        self.hit_events += interval.length
        if self.obs.enabled:
            self.obs.emit(
                now,
                kinds.TIER_HIT,
                "topo",
                events=interval.length,
                tier=self.tier_name,
            )

    def record_miss(self, interval: Interval, now: float) -> None:
        """Account a lookup that walked past this tier empty-handed."""
        self.miss_events += interval.length
        if self.obs.enabled:
            self.obs.emit(
                now,
                kinds.TIER_MISS,
                "topo",
                events=interval.length,
                tier=self.tier_name,
            )

    def admit(self, interval: Interval, now: float) -> None:
        """Insert ``interval`` (replica placement), emitting evictions."""
        self._advance(now)
        evicted_before = self.cache.stats.evicted_events
        self.cache.insert(interval, now)
        if self.obs.enabled:
            evicted = self.cache.stats.evicted_events - evicted_before
            if evicted:
                self.obs.emit(
                    now,
                    kinds.TIER_EVICT,
                    "topo",
                    events=evicted,
                    tier=self.tier_name,
                )


class Tier:
    """One runtime tier: spec + uplink contention state + optional cache."""

    def __init__(
        self,
        spec: TierSpec,
        parent: Optional["Tier"],
        event_bytes: int,
        obs: HookBus,
    ) -> None:
        self.spec = spec
        self.parent = parent
        self.obs = obs
        #: Root depth 0, children 1, ... (hop metric for distance()).
        self.level: int = 0 if parent is None else parent.level + 1
        #: Uplink seconds per event (0.0 at the root — no uplink).
        self.link_time_per_event: float = (
            0.0 if spec.parent is None else event_bytes / spec.link_bandwidth
        )
        self.link_capacity_streams = spec.link_capacity_streams
        self.active_streams = 0
        self.peak_streams = 0
        self.saturated_plans = 0
        self.link_events = 0
        self.cache: Optional[TierCache] = None
        if spec.cache_bytes > 0:
            capacity = int(spec.cache_bytes // event_bytes)
            self.cache = TierCache(spec.name, capacity, obs)

    @property
    def name(self) -> str:
        return self.spec.name

    # -- uplink contention -------------------------------------------------

    def planned_link_time(self, now: float) -> float:
        """Uplink seconds/event for a stream planned *now*, pricing one
        more stream on top of the currently active ones; counts a
        saturation event when the link is oversubscribed."""
        base = self.link_time_per_event
        if base == 0.0:
            return 0.0
        capacity = self.link_capacity_streams
        if capacity <= 0:
            return base
        streams = self.active_streams + 1
        if streams <= capacity:
            return base
        self.saturated_plans += 1
        if self.obs.enabled:
            self.obs.emit(
                now,
                kinds.LINK_SATURATED,
                "topo",
                tier=self.name,
                streams=streams,
                capacity=capacity,
            )
        return base * (streams / capacity)

    def acquire(self) -> None:
        self.active_streams += 1
        if self.active_streams > self.peak_streams:
            self.peak_streams = self.active_streams

    def release(self) -> None:
        self.active_streams -= 1
        assert self.active_streams >= 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tier({self.name!r}, level={self.level})"


class TopologyView(Protocol):
    """The narrow, read-only face schedulers see.

    Distance-blind policies (farm, splitting) never touch it; the
    cache-aware ones use :meth:`distance` as a locality tie-break, so
    they stay byte-identical on flat topologies (all distances 0).
    """

    @property
    def depth(self) -> int:
        """Tiers along the longest root-to-leaf path."""
        ...

    def distance(self, node_a: int, node_b: int) -> int:
        """Tree hops between two nodes' tiers (0 = same tier)."""
        ...

    def tier_name_of(self, node_id: int) -> str:
        """Name of the leaf tier hosting ``node_id``."""
        ...


@dataclass(frozen=True)
class TierSummary:
    """Per-tier accounting of one run (part of summary-JSON schema v7)."""

    name: str
    parent: Optional[str]
    level: int
    nodes: int
    cache_capacity_events: int
    cache_hit_events: int
    cache_miss_events: int
    cache_evicted_events: int
    storage_event_seconds: float
    link_events: int
    link_saturated_plans: int
    link_peak_streams: int



@dataclass(frozen=True)
class TopoSummary:
    """Whole-topology accounting of one run."""

    depth: int
    placement: str
    tier_hit_events: int
    tier_miss_events: int
    replicated_events: int
    storage_event_seconds: float
    link_saturated_plans: int
    tiers: List[TierSummary]



class Topology:
    """The runtime tier tree of one simulation run.

    Nodes are assigned to leaf tiers in declaration order as contiguous
    id blocks (the first ``n_nodes % leaves`` leaves take one extra node)
    — fully determined by the spec and ``n_nodes``.
    """

    def __init__(
        self,
        spec: TopologySpec,
        n_nodes: int,
        event_bytes: int,
        obs: HookBus = NULL_BUS,
    ) -> None:
        if n_nodes < 1:
            raise ConfigurationError(f"need at least one node, got {n_nodes}")
        if event_bytes < 1:
            raise ConfigurationError(
                f"event_bytes must be >= 1, got {event_bytes}"
            )
        self.spec = spec
        self.obs = obs
        #: Events proactively promoted into tier caches (placement cost).
        self.replicated_events = 0
        self.tiers: Dict[str, Tier] = {}
        for tier_spec in spec.tiers:
            parent = self.tiers.get(tier_spec.parent) if tier_spec.parent else None
            self.tiers[tier_spec.name] = Tier(
                tier_spec, parent, event_bytes, obs
            )
        # spec validation guarantees parents precede nowhere — tiers may
        # be declared in any order, so resolve missed parents in a second
        # pass if the first wired one early.
        for tier_spec in spec.tiers:
            tier = self.tiers[tier_spec.name]
            if tier_spec.parent is not None and tier.parent is None:
                tier.parent = self.tiers[tier_spec.parent]
                tier.level = tier.parent.level + 1
                # re-derive levels below (declaration order may interleave)
        self._fix_levels()
        leaves = [self.tiers[leaf.name] for leaf in spec.leaves]
        #: node_id -> leaf-to-root tier path (leaf first).
        self._paths: List[Tuple[Tier, ...]] = []
        per_leaf, extra = divmod(n_nodes, len(leaves))
        for index, leaf in enumerate(leaves):
            count = per_leaf + (1 if index < extra else 0)
            path = self._path_up(leaf)
            self._paths.extend([path] * count)
        assert len(self._paths) == n_nodes

    def _fix_levels(self) -> None:
        for tier in self.tiers.values():
            level = 0
            current = tier
            while current.parent is not None:
                level += 1
                current = current.parent
            tier.level = level

    @staticmethod
    def _path_up(leaf: Tier) -> Tuple[Tier, ...]:
        path: List[Tier] = [leaf]
        while path[-1].parent is not None:
            path.append(path[-1].parent)
        return tuple(path)

    # -- routing (TopologyView) --------------------------------------------

    @property
    def depth(self) -> int:
        return self.spec.depth

    @property
    def placement(self) -> str:
        return self.spec.placement

    def path_of(self, node_id: int) -> Tuple[Tier, ...]:
        """``node_id``'s tier chain, leaf first, root last."""
        return self._paths[node_id]

    def tier_of(self, node_id: int) -> Tier:
        return self._paths[node_id][0]

    def tier_name_of(self, node_id: int) -> str:
        return self._paths[node_id][0].name

    def distance(self, node_a: int, node_b: int) -> int:
        """Tree hops between the two nodes' leaf tiers (via the LCA)."""
        a = self.tier_of(node_a)
        b = self.tier_of(node_b)
        while a.level > b.level:
            assert a.parent is not None
            a = a.parent
        while b.level > a.level:
            assert b.parent is not None
            b = b.parent
        hops = abs(self.tier_of(node_a).level - self.tier_of(node_b).level)
        while a is not b:
            assert a.parent is not None and b.parent is not None
            a = a.parent
            b = b.parent
            hops += 2
        return hops

    def uplinks_between(self, node_a: int, node_b: int) -> Tuple[Tier, ...]:
        """Tiers whose uplinks a node_a <-> node_b transfer traverses
        (both sides of the LCA, excluding the LCA itself)."""
        a = self.tier_of(node_a)
        b = self.tier_of(node_b)
        left: List[Tier] = []
        right: List[Tier] = []
        while a.level > b.level:
            left.append(a)
            assert a.parent is not None
            a = a.parent
        while b.level > a.level:
            right.append(b)
            assert b.parent is not None
            b = b.parent
        while a is not b:
            left.append(a)
            right.append(b)
            assert a.parent is not None and b.parent is not None
            a = a.parent
            b = b.parent
        return tuple(left + right)

    # -- summary -----------------------------------------------------------

    def finalize(self, until: float) -> None:
        """Close every tier cache's storage-cost integral at ``until``."""
        for tier in self.tiers.values():
            if tier.cache is not None:
                tier.cache.finalize(until)

    def summary(self) -> TopoSummary:
        node_counts: Dict[str, int] = {}
        for path in self._paths:
            leaf = path[0].name
            node_counts[leaf] = node_counts.get(leaf, 0) + 1
        tiers: List[TierSummary] = []
        hits = misses = saturated = 0
        storage = 0.0
        for tier_spec in self.spec.tiers:
            tier = self.tiers[tier_spec.name]
            cache = tier.cache
            tiers.append(
                TierSummary(
                    name=tier.name,
                    parent=tier_spec.parent,
                    level=tier.level,
                    nodes=node_counts.get(tier.name, 0),
                    cache_capacity_events=(
                        cache.cache.capacity_events if cache else 0
                    ),
                    cache_hit_events=cache.hit_events if cache else 0,
                    cache_miss_events=cache.miss_events if cache else 0,
                    cache_evicted_events=(
                        cache.cache.stats.evicted_events if cache else 0
                    ),
                    storage_event_seconds=(
                        cache.storage_event_seconds if cache else 0.0
                    ),
                    link_events=tier.link_events,
                    link_saturated_plans=tier.saturated_plans,
                    link_peak_streams=tier.peak_streams,
                )
            )
            if cache is not None:
                hits += cache.hit_events
                misses += cache.miss_events
                storage += cache.storage_event_seconds
            saturated += tier.saturated_plans
        return TopoSummary(
            depth=self.depth,
            placement=self.placement,
            tier_hit_events=hits,
            tier_miss_events=misses,
            replicated_events=self.replicated_events,
            storage_event_seconds=storage,
            link_saturated_plans=saturated,
            tiers=tiers,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Topology(depth={self.depth}, tiers={len(self.tiers)}, "
            f"nodes={len(self._paths)}, placement={self.placement!r})"
        )
