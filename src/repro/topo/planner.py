"""Tier-aware data-access planning: the :class:`TieredPlanner` wrapper.

On a hierarchical topology every data stream occupies the uplinks
between its endpoints, and interior tier caches may short-circuit the
trip to the root tertiary store.  Rather than teaching every planner in
``repro.cluster.access`` about tiers, a single decorator wraps whichever
planner the policy installed:

* chunks the base planner resolves against the **local cache** are
  untouched (node-to-leaf-tier attachment is free);
* **tertiary** chunks first walk the node's tier path bottom-up looking
  for a tier-cache hit — a hit becomes a :attr:`DataSource.TIER` chunk
  served by that tier, traversing only the uplinks below it; a full miss
  streams from the root, traversing (and paying for) every uplink on the
  path;
* **remote** chunks pay for the uplinks on both sides of the two nodes'
  lowest common ancestor, on top of whatever contention factor the base
  planner already priced in.

Link costs use the same snapshot-at-plan-time queueing model as
:class:`~repro.cluster.access.ContentionRemoteReadPlanner`: the per-event
link time scales with the oversubscription ratio observed when the chunk
is planned, and the links' stream counters are held for exactly the
chunk's lifetime: :meth:`TieredPlanner.plan_chunk` acquires every uplink
the plan routes via, and :meth:`TieredPlanner.on_chunk_processed`, which
the node calls exactly once per started chunk, releases them.

Replica placement runs at accounting time: each tertiary read is offered
to the tier caches on the reading node's path according to the spec's
placement policy (``none`` / ``root-only`` / ``lru-rack`` /
``proactive-site`` — see :data:`repro.topo.spec.PLACEMENTS`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Tuple

from ..cluster.access import ChunkPlan, DataAccessPlanner, RemoteAccessCounter
from ..cluster.costmodel import DataSource
from ..core.errors import InvariantViolation
from ..obs.hooks import kinds
from .tree import Tier, Topology

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.node import Node

_TERTIARY = DataSource.TERTIARY
_REMOTE = DataSource.REMOTE
_TIER = DataSource.TIER


class TieredPlanner(DataAccessPlanner):
    """Wraps a policy's planner with tier-path routing and placement.

    The wrapper is transparent to schedulers: ``use_cache`` /
    ``populate_cache`` / ``tertiary`` mirror the wrapped planner, and all
    accounting hooks delegate before adding tier bookkeeping.  Policies
    that hold a direct reference to their planner (e.g. replication's
    ``set_peers``) keep talking to the base instance.
    """

    def __init__(self, base: DataAccessPlanner, topology: Topology) -> None:
        super().__init__(base.tertiary)
        self.base = base
        self.topology = topology
        # Mirror the base planner's behaviour flags (class attrs there).
        self.use_cache = base.use_cache
        self.populate_cache = base.populate_cache
        #: Per-node routing tables, filled lazily: the node's tier path
        #: (leaf first), its cache-bearing tiers (bottom-up), and the
        #: uplinks a root-tertiary stream traverses.
        self._caches_of: Dict[int, Tuple[Tier, ...]] = {}
        self._root_via: Dict[int, Tuple[Tier, ...]] = {}
        #: proactive-site promotion counters, one per topmost path tier.
        self._promoters: Dict[str, RemoteAccessCounter] = {}

    def access_counters(self) -> Iterable[RemoteAccessCounter]:
        return (*self._promoters.values(), *self.base.access_counters())

    # -- routing tables ------------------------------------------------------

    def _cache_tiers(self, node_id: int) -> Tuple[Tier, ...]:
        cached = self._caches_of.get(node_id)
        if cached is None:
            cached = tuple(
                tier
                for tier in self.topology.path_of(node_id)
                if tier.cache is not None
            )
            self._caches_of[node_id] = cached
        return cached

    def _tertiary_via(self, node_id: int) -> Tuple[Tier, ...]:
        via = self._root_via.get(node_id)
        if via is None:
            # Every tier on the path except the root has an uplink.
            via = self.topology.path_of(node_id)[:-1]
            self._root_via[node_id] = via
        return via

    # -- planning ------------------------------------------------------------

    def plan_chunk(
        self, node: "Node", start: int, end: int, max_events: int
    ) -> ChunkPlan:
        plan = self.base.plan_chunk(node, start, end, max_events)
        if plan.end - plan.start > max_events:
            # A whole-segment plan (the farm's) runs chunk by chunk here:
            # each chunk routes, holds its links and checks the tier
            # caches as it is planned.
            plan = ChunkPlan(plan.start, plan.start + max_events, plan.source)
        if plan.source is _TERTIARY:
            plan = self._route_tertiary(node, plan)
        elif plan.source is _REMOTE:
            plan = self._route_remote(node, plan)
        for tier in plan.via:
            tier.acquire()
        return plan

    def _route_tertiary(self, node: "Node", plan: ChunkPlan) -> ChunkPlan:
        """Serve from the lowest tier cache holding a prefix, else stream
        from the root paying every uplink on the path."""
        now = node.engine.now
        model = node.cost_model
        path = self.topology.path_of(node.node_id)
        start = plan.start
        for index, tier in enumerate(path):
            cache = tier.cache
            if cache is None:
                continue
            reach = cache.cached_prefix(start, plan.end)
            if reach == start:
                continue
            # Reading tier ``index`` traverses the uplinks of every tier
            # below it on the path (leaf attachment itself is free).
            via = path[:index]
            base_time = model.event_time(DataSource.TIER)
            extra = 0.0
            for hop in via:
                extra += hop.planned_link_time(now)
            return ChunkPlan(
                start,
                reach,
                DataSource.TIER,
                rate_factor=1.0 + extra / base_time,
                via=via,
                tier=tier,
            )
        via = self._tertiary_via(node.node_id)
        extra = 0.0
        for hop in via:
            extra += hop.planned_link_time(now)
        if extra == 0.0:
            return plan
        base_time = model.event_time(DataSource.TERTIARY)
        return ChunkPlan(
            start,
            plan.end,
            plan.source,
            rate_factor=plan.rate_factor + extra / base_time,
            via=via,
        )

    def _route_remote(self, node: "Node", plan: ChunkPlan) -> ChunkPlan:
        assert plan.owner is not None
        via = self.topology.uplinks_between(node.node_id, plan.owner.node_id)
        if not via:
            return plan  # same leaf tier: intra-rack, no uplinks occupied
        now = node.engine.now
        extra = 0.0
        for hop in via:
            extra += hop.planned_link_time(now)
        base_time = node.cost_model.event_time(DataSource.REMOTE)
        return ChunkPlan(
            plan.start,
            plan.end,
            plan.source,
            plan.owner,
            plan.rate_factor + extra / base_time,
            via,
        )

    def check_stream_counts(self, running: List[ChunkPlan]) -> None:
        """Each tier holds one stream per running chunk routed via its
        uplink (and the base planner's own counts balance)."""
        self.base.check_stream_counts(running)
        for tier in self.topology.tiers.values():
            routed = sum(1 for plan in running for hop in plan.via if hop is tier)
            if tier.active_streams != routed:
                raise InvariantViolation(
                    f"tier {tier.name} holds {tier.active_streams} active "
                    f"streams but {routed} running chunks route via it"
                )

    # -- accounting ----------------------------------------------------------

    def on_chunk_processed(self, node: "Node", plan: ChunkPlan, end: int) -> None:
        """Account the processed prefix, then release the uplinks
        :meth:`plan_chunk` acquired."""
        if plan.source is _TIER:
            self._account_tier_read(node, plan, end)
        else:
            self.base.on_chunk_processed(node, plan, end)
            start = plan.start
            if end > start:
                for tier in plan.via:
                    tier.link_events += end - start
                if plan.source is _TERTIARY:
                    self._account_tertiary_read(node, start, end)
        for tier in plan.via:
            tier.release()

    def _account_tier_read(self, node: "Node", plan: ChunkPlan, end: int) -> None:
        start = plan.start
        if end <= start:
            return
        assert plan.tier is not None and plan.tier.cache is not None
        now = node.engine.now
        plan.tier.cache.serve(start, end, now)
        for tier in plan.via:
            tier.link_events += end - start
            # Caches below the serving tier were consulted and missed.
            if tier.cache is not None:
                tier.cache.record_miss(start, end, now)
                if self.topology.placement == "lru-rack":
                    # Pull-through: data migrates down toward the node.
                    tier.cache.admit(start, end, now)
        obs = node.obs
        if obs.enabled and self.use_cache:
            # A tier hit is still a *node-cache* miss — keep the local
            # cache hit/miss event stream consistent with flat runs.
            obs.emit(
                now,
                kinds.CACHE_MISS,
                "planner",
                node=node.node_id,
                events=end - start,
            )
        if self.populate_cache:
            node.cache.insert(start, end, now)

    def _account_tertiary_read(self, node: "Node", start: int, end: int) -> None:
        """Offer a root-tertiary read to the path caches per placement."""
        caches = self._cache_tiers(node.node_id)
        if not caches:
            return
        now = node.engine.now
        for tier in caches:
            assert tier.cache is not None
            tier.cache.record_miss(start, end, now)
        placement = self.topology.placement
        if placement == "none":
            return
        if placement == "root-only":
            top = caches[-1].cache
            assert top is not None
            top.admit(start, end, now)
        elif placement == "lru-rack":
            for tier in caches:
                assert tier.cache is not None
                tier.cache.admit(start, end, now)
        elif placement == "proactive-site":
            self._promote(node, caches, start, end, now)

    def _promote(
        self,
        node: "Node",
        caches: Tuple[Tier, ...],
        start: int,
        end: int,
        now: float,
    ) -> None:
        """proactive-site: promote an extent into every path cache once
        it has streamed from the root ``promote_threshold`` times."""
        top = caches[-1]
        promoter = self._promoters.get(top.name)
        if promoter is None:
            promoter = RemoteAccessCounter(self.topology.spec.promote_threshold)
            self._promoters[top.name] = promoter
        promoted = promoter.register(start, end)
        if not promoted:
            return
        obs = node.obs
        for a, b in promoted.pairs():
            self.topology.replicated_events += b - a
            for tier in caches:
                assert tier.cache is not None
                tier.cache.admit(a, b, now)
            if obs.enabled:
                obs.emit(
                    now,
                    kinds.TIER_REPLICATE,
                    "topo",
                    tier=top.name,
                    events=b - a,
                )
