"""Data-access planning: where each chunk's events come from.

A :class:`DataAccessPlanner` answers, for the node about to execute the
next chunk of a subjob, two questions, one call each:

1. *plan* (:meth:`~DataAccessPlanner.plan_chunk`): how far can we read at
   a uniform rate, and from which source (local cache / tertiary storage
   / a remote node's disk)?  A planner that tracks shared streams (link
   or backbone contention) counts the chunk's stream here.
2. *account* (:meth:`~DataAccessPlanner.on_chunk_processed`): once (part
   of) the chunk has actually been processed, update the caches, LRU
   timestamps, tertiary counters and replication state, and release
   whatever the plan counted.  The node makes this call exactly once per
   planned chunk: on completion, on preemption, and with an empty prefix
   after a crash.

Policies differ only in the planner they install:

* processing farm & plain job splitting never touch the caches
  (:class:`NoCachePlanner`; the farm's :class:`WholeSegmentPlanner`
  plans a subjob's whole segment at once);
* every cache-aware policy uses :class:`CachingPlanner` (tertiary reads
  populate the local LRU cache, hits refresh it);
* the §4.2 replication variant uses :class:`RemoteReadPlanner`, which
  serves misses from a peer's disk when possible and replicates a segment
  on its 3rd remote access.

"On its 3rd access" is counted by :class:`RemoteAccessCounter`, one per
owner: per peer node here, and per topmost cache tier of a node's path
for the topology layer's ``proactive-site`` promotion.  Each counter is
a :class:`~repro.data.intervals.RunMap` of access counts (maximal runs of
equal count, capped at the threshold) that adds only the bump-and-cap
rule, so recording an access costs a binary search and a walk over the
runs it overlaps, not a pass over every extent the owner has served.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from ..core.errors import InvariantViolation
from ..data.intervals import IntervalSet, RunMap
from ..data.tertiary import TertiaryStorage
from ..obs.hooks import kinds
from .costmodel import DataSource

if TYPE_CHECKING:  # pragma: no cover
    from ..topo.tree import Tier, TopologyView
    from .node import Node

#: The chunk path's sources as module constants: a global load is cheaper
#: than an enum class attribute load, and these are read on every chunk.
_CACHE = DataSource.CACHE
_TERTIARY = DataSource.TERTIARY
_REMOTE = DataSource.REMOTE


class ChunkPlan:
    """One uniform-rate chunk: its events ``[start, end)``, source, and
    (for remote reads) which node owns the cached copy.

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
    with a direct ``__init__`` and plain int bounds; treat it as read-only.
    """

    __slots__ = ("start", "end", "source", "owner", "rate_factor", "via", "tier")

    def __init__(
        self,
        start: int,
        end: int,
        source: DataSource,
        owner: Optional["Node"] = None,
        rate_factor: float = 1.0,
        via: Tuple["Tier", ...] = (),
        tier: Optional["Tier"] = None,
    ) -> None:
        self.start = start
        self.end = end
        self.source = source
        self.owner = owner
        self.rate_factor = rate_factor
        self.via = via
        self.tier = tier


class DataAccessPlanner:
    """Base planner: resolves chunks against the local cache and writes
    tertiary reads through to it.

    The two flags describe that behaviour to wrappers (the topology
    layer's :class:`~repro.topo.planner.TieredPlanner` accounts its own
    tier reads by them); :class:`NoCachePlanner` clears both and
    overrides the two calls.
    """

    #: Whether tertiary reads are written through to the local disk cache.
    populate_cache = True
    #: Whether the local cache is consulted at all.
    use_cache = True

    def __init__(self, tertiary: TertiaryStorage) -> None:
        self.tertiary = tertiary

    # -- planning ------------------------------------------------------------

    def plan_chunk(
        self, node: "Node", start: int, end: int, max_events: int
    ) -> ChunkPlan:
        """Choose the next uniform chunk of the remaining events
        ``[start, end)``: left-aligned, at most ``max_events`` long (only
        :class:`WholeSegmentPlanner` plans further)."""
        cap = start + max_events
        if cap < end:
            end = cap
        cache = node.cache
        reach = cache.cached_prefix(start, end)
        if reach > start:
            return ChunkPlan(start, reach, _CACHE)
        return self._plan_miss(node, start, cache.uncached_prefix(start, end))

    def _plan_miss(self, node: "Node", start: int, end: int) -> ChunkPlan:
        """Resolve the local cache miss ``[start, end)`` (hook for
        remote-read planners)."""
        return ChunkPlan(start, end, _TERTIARY)

    # -- accounting -----------------------------------------------------------

    def on_chunk_processed(self, node: "Node", plan: ChunkPlan, end: int) -> None:
        """Record the side effects of having processed ``[plan.start,
        end)``, a left prefix of the plan; it is empty (``end ==
        plan.start``) after an abort or an immediate preemption.

        Called exactly once per chunk the node started from a plan of
        this planner, so overrides release here any stream their
        :meth:`plan_chunk` counted, whether or not the prefix is empty.
        """
        start = plan.start
        if end <= start:
            return
        now = node.engine.now
        obs = node.obs
        if plan.source is _CACHE:
            node.cache.touch(start, end, now)
            if obs.enabled:
                obs.emit(
                    now,
                    kinds.CACHE_HIT,
                    "planner",
                    node=node.node_id,
                    events=end - start,
                )
        elif plan.source is _TERTIARY:
            self.tertiary.read(node.node_id, start, end, now=now)
            if obs.enabled:
                obs.emit(
                    now,
                    kinds.CACHE_MISS,
                    "planner",
                    node=node.node_id,
                    events=end - start,
                )
            node.cache.insert(start, end, now)
        elif plan.source is _REMOTE:
            assert plan.owner is not None
            plan.owner.cache.touch(start, end, now)
            if obs.enabled:
                obs.emit(
                    now,
                    kinds.REMOTE_READ,
                    "planner",
                    node=node.node_id,
                    events=end - start,
                    owner=plan.owner.node_id,
                )
            self._on_remote_read(node, plan.owner, start, end)

    def _on_remote_read(self, node: "Node", owner: "Node", start: int, end: int) -> None:
        """Hook: called after a remote read of ``[start, end)``
        (replication planners)."""

    def access_counters(self) -> Iterable["RemoteAccessCounter"]:
        """The access counters this planner keeps (for the sanitizer)."""
        return ()

    def check_stream_counts(self, running: List[ChunkPlan]) -> None:
        """Sanitizer check: the streams this planner counts equal those of
        the ``running`` chunks' plans (nothing to count here)."""


class NoCachePlanner(DataAccessPlanner):
    """All data always streams from tertiary storage (§3.1/§3.2: "No disk
    caching is performed. All data segments are always transferred from
    tertiary storage when needed.").

    With no cache to consult or fill, planning is a clip to
    ``max_events`` and accounting is one tape read.
    """

    populate_cache = False
    use_cache = False

    def plan_chunk(
        self, node: "Node", start: int, end: int, max_events: int
    ) -> ChunkPlan:
        cap = start + max_events
        return ChunkPlan(start, cap if cap < end else end, _TERTIARY)

    def on_chunk_processed(self, node: "Node", plan: ChunkPlan, end: int) -> None:
        start = plan.start
        if end > start:
            self.tertiary.read(node.node_id, start, end, node.engine.now)


class WholeSegmentPlanner(NoCachePlanner):
    """The processing farm's planner: the whole remaining segment as one
    tertiary plan.

    The node times the plan as sub-chunks of at most ``max_events``
    events and credits them lazily (:meth:`~repro.cluster.node.Node.settle`), so a farm subjob
    costs one calendar event instead of one per chunk, with every
    statistic unchanged.  A no-cache chunk's accounting is its tape read
    alone, with no cache stamp or stream to keep in time, which is what
    lets the node credit a run of them after the fact.

    The planner also holds :attr:`ends`, the chunk-end times of every
    live run on its nodes, which the nodes keep so that runs ending a
    chunk at the same instant fall back to one event per chunk
    (:meth:`~repro.cluster.node.Node._break_ties`).  Splitting keeps the
    per-chunk :class:`NoCachePlanner`: its equal pieces end at the same
    instant by design.
    """

    def __init__(self, tertiary: TertiaryStorage) -> None:
        super().__init__(tertiary)
        #: Chunk-end time -> the node whose run ends a chunk then, or the
        #: number of runs that do when several do (kept by the nodes).
        self.ends: Dict[float, Union["Node", int]] = {}

    def plan_chunk(
        self, node: "Node", start: int, end: int, max_events: int
    ) -> ChunkPlan:
        return ChunkPlan(start, end, _TERTIARY)

    def on_chunks_processed(
        self, node: "Node", start: int, end: int, chunks: int, now: float
    ) -> None:
        """Record ``chunks`` whole sub-chunks tiling ``[start, end)``,
        credited in one step by :meth:`~repro.cluster.node.Node.settle`:
        one tape read of ``chunks`` requests, stamped ``now``."""
        self.tertiary.read(node.node_id, start, end, now, chunks)

    def check_ends(self, running: Mapping[float, int]) -> None:
        """Sanitizer check: :attr:`ends` counts exactly the unsettled
        chunk ends of the ``running`` runs (end time -> number of runs)."""
        held = {
            time: count if isinstance(count, int) else 1
            for time, count in self.ends.items()
        }
        if held != dict(running):
            stray = sorted(set(held.items()) ^ set(running.items()))[:3]
            raise InvariantViolation(
                f"chunk-end index holds {len(held)} end times but the "
                f"running runs end {len(running)} (first differences: {stray})"
            )


class CachingPlanner(DataAccessPlanner):
    """Local LRU caching with write-through of tertiary reads (§3.3:
    "always caching data arriving from tertiary storage on node disks")."""


class RemoteAccessCounter(RunMap[int]):
    """Counts accesses per data extent of one owner (a peer node or a
    tier cache) as one count map.

    ``register`` raises the count of every accessed point by one and
    returns the sub-extents that have just reached the replication
    threshold — §4.2: "data replication is carried out only on data items
    that are accessed for the third time".

    The map is a :class:`RunMap` whose payload is the access count, in
    ``1..threshold``: counts stop at ``threshold`` (a saturated extent is
    never promoted again), and points never accessed hold no run.  The
    map's own splice keeps it canonical, so one call touches only the
    runs it overlaps and their two neighbours.
    """

    __slots__ = ("threshold",)

    def __init__(self, threshold: int = 3) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        super().__init__()
        self.threshold = threshold

    def register(self, start: int, end: int) -> IntervalSet:
        """Record one access to ``[start, end)``; return, as a canonical
        set, the points whose count reached exactly ``threshold`` in this
        call (with threshold 1, the points never accessed before)."""
        promoted = IntervalSet()
        if end <= start:
            return promoted
        cap = self.threshold
        starts, ends, counts = self._starts, self._ends, self._values
        lo, hi = self.span(start, end)
        # ``(a, b, count before this call)`` tiling ``[start, end)``; gaps
        # between the runs it overlaps hold count 0.
        pieces: List[Tuple[int, int, int]] = []
        cursor = start
        for index in range(lo, hi):
            a = starts[index] if starts[index] > start else start
            b = ends[index] if ends[index] < end else end
            if cursor < a:
                pieces.append((cursor, a, 0))
            pieces.append((a, b, counts[index]))
            cursor = b
        if cursor < end:
            pieces.append((cursor, end, 0))
        for a, b, count in pieces:
            if count == cap - 1:
                promoted.add_measure(a, b)
        new_starts = [a for a, _, _ in pieces]
        new_ends = [b for _, b, _ in pieces]
        new_counts = [count + 1 if count < cap else count for _, _, count in pieces]
        # The overlapped runs' parts outside ``[start, end)`` keep their counts.
        if lo < hi:
            if starts[lo] < start:
                new_starts.insert(0, starts[lo])
                new_ends.insert(0, start)
                new_counts.insert(0, counts[lo])
            if ends[hi - 1] > end:
                new_starts.append(end)
                new_ends.append(ends[hi - 1])
                new_counts.append(counts[hi - 1])
        self.splice(lo, hi, new_starts, new_ends, new_counts)
        return promoted

    def access_count_at(self, point: int) -> int:
        """Current access count for a single event (0 if never seen)."""
        return self.value_at(point) or 0

    def check_invariants(self) -> None:
        """The map is canonical, with counts in ``1..threshold``."""
        self.check("access counter")
        for start, end, count in zip(self._starts, self._ends, self._values):
            if not 1 <= count <= self.threshold:
                raise InvariantViolation(
                    f"access counter run [{start},{end}) has count {count} "
                    f"outside 1..{self.threshold}"
                )


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

    def access_counters(self) -> Iterable["RemoteAccessCounter"]:
        return self._counters.values()

    def _plan_miss(self, node: "Node", start: int, end: int) -> ChunkPlan:
        view = self.topology_view
        best_owner: Optional["Node"] = None
        best_key = (0, 0)
        best_reach = start
        for peer in self._peers:
            if peer is node:
                continue
            reach = peer.cache.cached_prefix(start, end)
            if reach == start:
                continue
            # Longest prefix first; among equals, the tier-closest peer
            # (distance 0 everywhere on flat clusters, where this reduces
            # to the historical lowest-id rule).
            distance = (
                view.distance(node.node_id, peer.node_id)
                if view is not None
                else 0
            )
            key = (reach - start, -distance)
            if key > best_key:
                best_key = key
                best_owner = peer
                best_reach = reach
        if best_owner is None:
            return ChunkPlan(start, end, _TERTIARY)
        return ChunkPlan(start, best_reach, _REMOTE, best_owner)

    def _on_remote_read(self, node: "Node", owner: "Node", start: int, end: int) -> None:
        events = end - start
        self.stats.remote_events += events
        self.stats.remote_chunks += 1
        per_owner = self.stats.per_owner_remote
        per_owner[owner.node_id] = per_owner.get(owner.node_id, 0) + events
        if not self.replication_enabled:
            return
        counter = self._counters.get(owner.node_id)
        if counter is None:
            counter = RemoteAccessCounter(self.replication_threshold)
            self._counters[owner.node_id] = counter
        promoted = counter.register(start, end)
        if promoted:
            # Replicate: copy the hot extents into the reader's cache.
            now = node.engine.now
            self.stats.replication_events += 1
            for a, b in promoted.pairs():
                self.stats.replicated_events += b - a
                node.cache.insert(a, b, now)


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
    constant load and conservative for bursts.  A REMOTE plan counts its
    stream on the backbone as it is made, and
    :meth:`on_chunk_processed` releases it: the node starts every chunk
    it plans, and accounts for each exactly once.
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

    def _plan_miss(self, node: "Node", start: int, end: int) -> ChunkPlan:
        plan = super()._plan_miss(node, start, end)
        if plan.source is not _REMOTE:
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
        self._active_remote_streams = streams
        if streams > self.peak_remote_streams:
            self.peak_remote_streams = streams
        return ChunkPlan(
            plan.start, plan.end, plan.source, plan.owner, effective / base
        )

    def on_chunk_processed(self, node: "Node", plan: ChunkPlan, end: int) -> None:
        super().on_chunk_processed(node, plan, end)
        if plan.source is _REMOTE:
            self._active_remote_streams -= 1
            assert self._active_remote_streams >= 0

    def check_stream_counts(self, running: List[ChunkPlan]) -> None:
        remote = sum(1 for plan in running if plan.source is _REMOTE)
        if self._active_remote_streams != remote:
            raise InvariantViolation(
                f"contention planner counts {self._active_remote_streams} "
                f"active remote streams but {remote} remote chunks are running"
            )
