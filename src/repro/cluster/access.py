"""Data-access planning: where each chunk's events come from.

A :class:`DataAccessPlanner` answers, for the node about to execute the
next chunk of a subjob, two questions:

1. *plan*: how far can we read at a uniform rate, and from which source
   (local cache / tertiary storage / a remote node's disk)?
2. *account*: once (part of) the chunk has actually been processed, update
   the caches, LRU timestamps, tertiary counters and replication state.

Policies differ only in the planner they install:

* processing farm & plain job splitting never touch the caches
  (:class:`NoCachePlanner`);
* every cache-aware policy uses :class:`CachingPlanner` (tertiary reads
  populate the local LRU cache, hits refresh it);
* the §4.2 replication variant uses :class:`RemoteReadPlanner`, which
  serves misses from a peer's disk when possible and replicates a segment
  on its 3rd remote access.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..data.intervals import Interval, IntervalSet
from ..data.tertiary import TertiaryStorage
from ..obs.hooks import kinds
from .costmodel import DataSource

if TYPE_CHECKING:  # pragma: no cover
    from ..topo.tree import Tier, TopologyView
    from .node import Node


class ChunkPlan:
    """One uniform-rate chunk: events, source, and (for remote reads)
    which node owns the cached copy.

    ``rate_factor`` scales the chunk's per-event time (>= 1.0); planners
    modelling shared-resource contention (e.g. a congested network link)
    set it from the load they observe at plan time.

    On hierarchical topologies (``repro.topo``) the
    :class:`~repro.topo.planner.TieredPlanner` additionally records the
    data path: ``via`` holds the tiers whose uplinks the stream occupies
    while the chunk runs, and ``tier`` names the tier cache serving a
    :attr:`DataSource.TIER` chunk.  Both stay at their defaults on flat
    topologies, keeping the plan byte-compatible with the paper's model.

    A plan is built once per chunk, so it is a plain ``__slots__`` record
    with a direct ``__init__``; treat it as read-only.
    """

    __slots__ = ("interval", "source", "owner", "rate_factor", "via", "tier")

    def __init__(
        self,
        interval: Interval,
        source: DataSource,
        owner: Optional["Node"] = None,
        rate_factor: float = 1.0,
        via: Tuple["Tier", ...] = (),
        tier: Optional["Tier"] = None,
    ) -> None:
        self.interval = interval
        self.source = source
        self.owner = owner
        self.rate_factor = rate_factor
        self.via = via
        self.tier = tier


class DataAccessPlanner:
    """Base planner: resolves chunks against the local cache."""

    #: Whether tertiary reads are written through to the local disk cache.
    populate_cache = True
    #: Whether the local cache is consulted at all.
    use_cache = True

    def __init__(self, tertiary: TertiaryStorage) -> None:
        self.tertiary = tertiary

    # -- planning ------------------------------------------------------------

    def plan_chunk(self, node: "Node", remaining: Interval, max_events: int) -> ChunkPlan:
        """Choose the next uniform chunk of ``remaining`` (left-aligned,
        at most ``max_events`` long)."""
        if self.use_cache:
            prefix = node.cache.cached_prefix(remaining)
            if not prefix.empty:
                return ChunkPlan(prefix.take_left(max_events), DataSource.CACHE)
            miss = node.cache.uncached_prefix(remaining)
            return self._plan_miss(node, miss.take_left(max_events))
        return ChunkPlan(remaining.take_left(max_events), DataSource.TERTIARY)

    def _plan_miss(self, node: "Node", miss: Interval) -> ChunkPlan:
        """Resolve a local cache miss (hook for remote-read planners)."""
        return ChunkPlan(miss, DataSource.TERTIARY)

    # -- accounting -----------------------------------------------------------

    def on_chunk_started(self, node: "Node", plan: ChunkPlan) -> None:
        """Hook: a node began executing ``plan`` (contention trackers)."""

    def on_chunk_finished(self, node: "Node", plan: ChunkPlan) -> None:
        """Hook: the chunk ended (completed or preempted); called exactly
        once per started chunk, after :meth:`on_chunk_processed`."""

    def on_chunk_processed(self, node: "Node", plan: ChunkPlan, processed: Interval) -> None:
        """Record the side effects of having processed ``processed``
        (a left prefix of ``plan.interval``; may be empty after an
        immediate preemption)."""
        if processed.end <= processed.start:
            return
        now = node.engine.now
        obs = node.obs
        if plan.source is DataSource.CACHE:
            node.cache.touch(processed, now)
            if obs.enabled:
                obs.emit(
                    now,
                    kinds.CACHE_HIT,
                    "planner",
                    node=node.node_id,
                    events=processed.length,
                )
        elif plan.source is DataSource.TERTIARY:
            self.tertiary.read(node.node_id, processed, now=now)
            if obs.enabled and self.use_cache:
                obs.emit(
                    now,
                    kinds.CACHE_MISS,
                    "planner",
                    node=node.node_id,
                    events=processed.length,
                )
            if self.populate_cache:
                node.cache.insert(processed, now)
        elif plan.source is DataSource.REMOTE:
            assert plan.owner is not None
            plan.owner.cache.touch(processed, now)
            if obs.enabled:
                obs.emit(
                    now,
                    kinds.REMOTE_READ,
                    "planner",
                    node=node.node_id,
                    events=processed.length,
                    owner=plan.owner.node_id,
                )
            self._on_remote_read(node, plan.owner, processed)

    def _on_remote_read(self, node: "Node", owner: "Node", processed: Interval) -> None:
        """Hook: called after a remote read (replication planners)."""


class NoCachePlanner(DataAccessPlanner):
    """All data always streams from tertiary storage (§3.1/§3.2: "No disk
    caching is performed. All data segments are always transferred from
    tertiary storage when needed.")."""

    populate_cache = False
    use_cache = False


class CachingPlanner(DataAccessPlanner):
    """Local LRU caching with write-through of tertiary reads (§3.3:
    "always caching data arriving from tertiary storage on node disks")."""


class RemoteAccessCounter:
    """Counts remote accesses per data extent of one owner node.

    ``register`` moves the accessed extent one level up (1st, 2nd, ...
    access) and returns the sub-extents that have just reached the
    replication threshold — §4.2: "data replication is carried out only on
    data items that are accessed for the third time".
    """

    def __init__(self, threshold: int = 3) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        self.threshold = threshold
        # levels[i] = extents accessed exactly (i+1) times so far
        self._levels: List[IntervalSet] = [IntervalSet() for _ in range(threshold)]

    def register(self, interval: Interval) -> IntervalSet:
        """Record one access to ``interval``; return newly-threshold
        extents."""
        if interval.empty:
            return IntervalSet()
        remaining = IntervalSet([interval])
        promoted = IntervalSet()
        # Highest level first so a piece only moves up one level per call.
        for level in range(self.threshold - 1, -1, -1):
            at_level = self._levels[level].intersection(remaining)
            if not at_level:
                continue
            self._levels[level] = self._levels[level].difference(at_level)
            new_level = min(level + 1, self.threshold - 1)
            self._levels[new_level] = self._levels[new_level].union(at_level)
            if new_level == self.threshold - 1 and level == self.threshold - 2:
                # The piece reached exactly its threshold-th access.
                # Saturated pieces (level == threshold-1 already) are NOT
                # re-promoted: §4.2 replicates a data item once, on its
                # third access — not on every access thereafter.
                promoted = promoted.union(at_level)
            remaining = remaining.difference(at_level)
        # Never-seen parts enter level 0 (their 1st access).
        if remaining:
            if self.threshold == 1:
                promoted = promoted.union(remaining)
            self._levels[0] = self._levels[0].union(remaining)
        return promoted

    def access_count_at(self, point: int) -> int:
        """Current access count for a single event (0 if never seen)."""
        for level in range(self.threshold - 1, -1, -1):
            if self._levels[level].contains_point(point):
                return level + 1
        return 0


@dataclass
class ReplicationStats:
    """Counters for the §4.2 replication study."""

    remote_events: int = 0
    remote_chunks: int = 0
    replicated_events: int = 0
    replication_events: int = 0  # number of replication decisions
    per_owner_remote: Dict[int, int] = field(default_factory=dict)


class RemoteReadPlanner(CachingPlanner):
    """§4.2: serve local misses from a peer's disk cache when one holds
    the data; replicate an extent into the reader's cache on its 3rd
    remote access."""

    #: Tier-locality scoring (repro.topo): installed by the simulator on
    #: hierarchical runs.  ``None`` (flat clusters) keeps peer selection
    #: byte-identical to the paper's model — longest prefix, lowest id.
    topology_view: Optional["TopologyView"] = None

    def __init__(
        self,
        tertiary: TertiaryStorage,
        replication_threshold: int = 3,
        replication_enabled: bool = True,
    ) -> None:
        super().__init__(tertiary)
        self.replication_threshold = replication_threshold
        self.replication_enabled = replication_enabled
        self._counters: Dict[int, RemoteAccessCounter] = {}
        self.stats = ReplicationStats()
        self._peers: List["Node"] = []

    def set_peers(self, nodes: List["Node"]) -> None:
        """Install the cluster's node list (called once by the simulator)."""
        self._peers = list(nodes)

    def _plan_miss(self, node: "Node", miss: Interval) -> ChunkPlan:
        view = self.topology_view
        best_owner: Optional["Node"] = None
        best_key = (0, 0)
        for peer in self._peers:
            if peer is node:
                continue
            prefix = peer.cache.cached_prefix(miss)
            if prefix.empty:
                continue
            # Longest prefix first; among equals, the tier-closest peer
            # (distance 0 everywhere on flat clusters, where this reduces
            # to the historical lowest-id rule).
            distance = (
                view.distance(node.node_id, peer.node_id)
                if view is not None
                else 0
            )
            key = (prefix.length, -distance)
            if key > best_key:
                best_key = key
                best_owner = peer
                best_prefix = prefix
        if best_owner is None:
            return ChunkPlan(miss, DataSource.TERTIARY)
        return ChunkPlan(best_prefix, DataSource.REMOTE, owner=best_owner)

    def peers(self) -> List["Node"]:
        return list(self._peers)

    def _on_remote_read(self, node: "Node", owner: "Node", processed: Interval) -> None:
        self.stats.remote_events += processed.length
        self.stats.remote_chunks += 1
        per_owner = self.stats.per_owner_remote
        per_owner[owner.node_id] = per_owner.get(owner.node_id, 0) + processed.length
        if not self.replication_enabled:
            return
        counter = self._counters.get(owner.node_id)
        if counter is None:
            counter = RemoteAccessCounter(self.replication_threshold)
            self._counters[owner.node_id] = counter
        promoted = counter.register(processed)
        if promoted:
            # Replicate: copy the hot extents into the reader's cache.
            now = node.engine.now
            self.stats.replication_events += 1
            for extent in promoted:
                self.stats.replicated_events += extent.length
                node.cache.insert(extent, now)


class ContentionRemoteReadPlanner(RemoteReadPlanner):
    """Remote reads over a *shared* cluster backbone with contended disks.

    The base :class:`RemoteReadPlanner` prices a remote read as if every
    node pair had a dedicated Gigabit link and the owner's disk were idle —
    the paper's (implicit) assumption.  This planner stresses that
    assumption, for the ``ablate-network`` experiment:

    * the backbone carries ``link_capacity_streams`` full-rate remote
      streams; beyond that, the wire share of the per-event time scales
      with the oversubscription ratio;
    * if the owner is itself reading its disk (a cache-source chunk), the
      remote stream and the owner share the disk fairly (2x disk time).

    Chunk durations are fixed when the chunk starts, so contention is
    sampled at plan time — a snapshot approximation that is exact for
    constant load and conservative for bursts.
    """

    def __init__(
        self,
        tertiary: TertiaryStorage,
        replication_threshold: int = 3,
        replication_enabled: bool = True,
        link_capacity_streams: int = 4,
    ) -> None:
        super().__init__(
            tertiary,
            replication_threshold=replication_threshold,
            replication_enabled=replication_enabled,
        )
        if link_capacity_streams < 1:
            raise ValueError(
                f"link_capacity_streams must be >= 1, got {link_capacity_streams}"
            )
        self.link_capacity_streams = link_capacity_streams
        self._active_remote_streams = 0
        self.peak_remote_streams = 0

    def _plan_miss(self, node: "Node", miss: Interval) -> ChunkPlan:
        plan = super()._plan_miss(node, miss)
        if plan.source is not DataSource.REMOTE:
            return plan
        assert plan.owner is not None
        model = node.cost_model
        disk, wire, cpu = model.disk_time, model.network_time, model.cpu_time
        streams = self._active_remote_streams + 1
        wire_multiplier = max(1.0, streams / self.link_capacity_streams)
        owner_reading_disk = (
            plan.owner.busy and plan.owner.current_source() is DataSource.CACHE
        )
        disk_multiplier = 2.0 if owner_reading_disk else 1.0
        base = disk + wire + cpu
        effective = disk * disk_multiplier + wire * wire_multiplier + cpu
        return ChunkPlan(
            interval=plan.interval,
            source=plan.source,
            owner=plan.owner,
            rate_factor=effective / base,
        )

    def on_chunk_started(self, node: "Node", plan: ChunkPlan) -> None:
        if plan.source is DataSource.REMOTE:
            self._active_remote_streams += 1
            self.peak_remote_streams = max(
                self.peak_remote_streams, self._active_remote_streams
            )

    def on_chunk_finished(self, node: "Node", plan: ChunkPlan) -> None:
        if plan.source is DataSource.REMOTE:
            self._active_remote_streams -= 1
            assert self._active_remote_streams >= 0
