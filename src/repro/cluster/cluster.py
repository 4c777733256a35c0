"""The cluster: a set of processing nodes behind one master scheduler.

Mirrors the paper's Fig. 1 architecture — N identical single-CPU nodes,
each with a local disk cache, all connected to a shared tertiary storage
system.  The master node itself is not simulated (its scheduling decisions
are instantaneous), matching the paper's simulator.

The flat cluster is the degenerate depth-1 case of the hierarchical
topology layer (``repro.topo``): when a run carries no
:class:`~repro.topo.spec.TopologySpec` — or a trivial one (a single
root tier, no tier cache) — the simulator never builds a
:class:`~repro.topo.tree.Topology` and this module's data path runs
exactly the historical code, which is what makes the depth-1
bit-identity guarantee exact rather than approximate.  Deeper specs
arrange these same nodes under rack/site tiers whose caches and
contended uplinks are consulted by the tiered access planner; the
``Cluster`` object itself is unchanged either way.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional

from ..core.engine import Engine
from ..core.errors import ConfigurationError
from ..data.cache import LRUSegmentCache
from ..obs.hooks import NULL_BUS, HookBus
from .access import DataAccessPlanner
from .costmodel import CostModel
from .node import Node


class Cluster:
    """N processing nodes sharing a cost model and an access planner."""

    def __init__(
        self,
        engine: Engine,
        n_nodes: int,
        cache_capacity_events: int,
        cost_model: CostModel,
        planner: DataAccessPlanner,
        chunk_events: int = 2000,
        speed_factors: Optional[List[float]] = None,
        obs: HookBus = NULL_BUS,
    ) -> None:
        if n_nodes < 1:
            raise ConfigurationError(f"need at least one node, got {n_nodes}")
        if speed_factors is not None and len(speed_factors) != n_nodes:
            raise ConfigurationError(
                f"{len(speed_factors)} speed factors for {n_nodes} nodes"
            )
        self.engine = engine
        self.cost_model = cost_model
        self.planner = planner
        self.obs = obs
        self.nodes: List[Node] = [
            Node(
                node_id=i,
                engine=engine,
                cache=LRUSegmentCache(cache_capacity_events, obs=obs, owner_id=i),
                cost_model=cost_model,
                planner=planner,
                chunk_events=chunk_events,
                speed_factor=1.0 if speed_factors is None else speed_factors[i],
                obs=obs,
            )
            for i in range(n_nodes)
        ]
        #: Ids of the idle nodes, ascending.  Owned by the nodes: each
        #: one inserts or deletes its id in ``Node._sync_idle`` when its
        #: idle flag flips, so no query here ever scans the cluster.
        self._idle_ids: List[int] = [node.node_id for node in self.nodes]
        for node in self.nodes:
            node.idle_index = self._idle_ids

    # -- iteration -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator[Node]:
        return iter(self.nodes)

    def __getitem__(self, node_id: int) -> Node:
        return self.nodes[node_id]

    # -- scheduling helpers -------------------------------------------------------

    def idle_nodes(self) -> List[Node]:
        """All currently idle nodes, in id order (deterministic).

        A fresh snapshot, O(idle nodes): callers may start nodes while
        iterating it, so the live index is never handed out.
        """
        nodes = self.nodes
        return [nodes[node_id] for node_id in self._idle_ids]

    def first_idle(self) -> Optional[Node]:
        """The lowest-id idle node, or ``None`` when none is idle (O(1))."""
        ids = self._idle_ids
        return self.nodes[ids[0]] if ids else None

    def busy_nodes(self) -> List[Node]:
        return [node for node in self.nodes if node.busy]

    def set_completion_callback(
        self, callback: Callable[[Node, object], None]
    ) -> None:
        for node in self.nodes:
            node.on_subjob_complete = callback

    def utilization(self, elapsed: float) -> float:
        """Mean fraction of node time spent processing events."""
        if elapsed <= 0 or not self.nodes:
            return 0.0
        return sum(n.stats.utilization(elapsed) for n in self.nodes) / len(self.nodes)

    def __repr__(self) -> str:
        busy = sum(1 for n in self.nodes if n.busy)
        return f"Cluster({len(self.nodes)} nodes, {busy} busy)"
