"""Out-of-order scheduling with inter-node data replication (§4.2).

Identical scheduling to :class:`OutOfOrderPolicy`; only the data path
changes: when a node processes data cached on *another* node, it reads the
segment from that node's disk over the network instead of re-fetching it
from tertiary storage, and replicates the segment into its own cache once
the cost of not having replicated exceeds the cost of replication — the
paper instantiates that online-replication rule as "replicate on the 3rd
remote access".

The paper's finding — reproduced by the ``repl`` experiment, whose
verdict checks it — is that this buys nothing: out-of-order splitting
spreads every large segment over many nodes, so the overloaded-node
situation replication targets occurs for well under 1 ‰ of job arrivals.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..cluster.access import (
    ContentionRemoteReadPlanner,
    DataAccessPlanner,
    RemoteReadPlanner,
)
from ..core import units
from ..data.tertiary import TertiaryStorage
from .base import SchedulerContext, register_policy
from .out_of_order import OutOfOrderPolicy


@register_policy
class ReplicationPolicy(OutOfOrderPolicy):
    """§4.2: out-of-order scheduling + remote reads + 3rd-access
    replication."""

    name = "replication"

    def __init__(
        self,
        fairness_timeout: float = 2 * units.DAY,
        replication_threshold: int = 3,
        replication_enabled: bool = True,
        network_contention: bool = False,
        link_capacity_streams: int = 4,
    ) -> None:
        super().__init__(fairness_timeout=fairness_timeout)
        self.replication_threshold = replication_threshold
        self.replication_enabled = replication_enabled
        self.network_contention = network_contention
        self.link_capacity_streams = link_capacity_streams
        self._planner: Optional[RemoteReadPlanner] = None

    def make_planner(self, tertiary: TertiaryStorage) -> DataAccessPlanner:
        if self.network_contention:
            # Stress variant: shared backbone + contended owner disks
            # (the ablate-network experiment; the paper assumes neither).
            self._planner = ContentionRemoteReadPlanner(
                tertiary,
                replication_threshold=self.replication_threshold,
                replication_enabled=self.replication_enabled,
                link_capacity_streams=self.link_capacity_streams,
            )
        else:
            self._planner = RemoteReadPlanner(
                tertiary,
                replication_threshold=self.replication_threshold,
                replication_enabled=self.replication_enabled,
            )
        return self._planner

    def bind(self, ctx: SchedulerContext) -> None:
        super().bind(ctx)
        assert self._planner is not None, "make_planner() must run before bind()"
        self._planner.set_peers(list(ctx.cluster))

    def describe(self) -> Dict[str, object]:
        info = super().describe()
        info.update(
            policy=self.name,
            replication_threshold=self.replication_threshold,
            replication_enabled=self.replication_enabled,
            network_contention=self.network_contention,
        )
        return info

    def extra_stats(self) -> Dict[str, float]:
        stats = super().extra_stats()
        if self._planner is not None:
            replication = self._planner.stats
            stats.update(
                remote_events=float(replication.remote_events),
                remote_chunks=float(replication.remote_chunks),
                replicated_events=float(replication.replicated_events),
                replication_events=float(replication.replication_events),
            )
        return stats
