"""The fault injector: drives a fault schedule through a live simulation.

Owns the precomputed :class:`~repro.faults.processes.FaultEvent`
schedule, applies each transition to the cluster (node crash/recovery,
cluster-wide tertiary stall) at :data:`~repro.core.events.EventPriority.FAULT`
priority — after completions at the same instant (a chunk finishing when
its node dies counts as finished) but before any scheduling activity
(arrivals and period boundaries already see the node down) — and feeds
aborted subjobs into the :class:`~repro.faults.recovery.RecoveryManager`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from ..cluster.cluster import Cluster
from ..cluster.node import Node
from ..core.engine import Engine
from ..core.events import EventPriority
from ..core.rng import RandomStreams
from ..obs.hooks import NULL_BUS, HookBus, kinds
from ..sim.config import FaultConfig
from ..sim.metrics import FaultSummary
from .processes import (
    ACTION_FAIL,
    ACTION_RECOVER,
    ACTION_STALL_START,
    FaultEvent,
    build_fault_schedule,
)
from .recovery import RecoveryManager

if TYPE_CHECKING:  # pragma: no cover
    from ..sched.base import SchedulerPolicy


class FaultInjector:
    """Applies a fault schedule to a cluster and manages recovery."""

    def __init__(
        self,
        engine: Engine,
        cluster: Cluster,
        policy: "SchedulerPolicy",
        config: FaultConfig,
        streams: RandomStreams,
        horizon: float,
        obs: HookBus = NULL_BUS,
    ) -> None:
        self.engine = engine
        self.cluster = cluster
        self.policy = policy
        self.config = config
        self.obs = obs
        self.schedule: List[FaultEvent] = build_fault_schedule(
            config, len(cluster), streams, horizon
        )
        self.recovery = RecoveryManager(engine, policy, config, obs=obs)
        self.stats_failures = 0
        self.stats_stalls = 0
        self.stats_stall_seconds = 0.0
        self._stall_depth = 0
        self._stall_since = 0.0

    # -- lifecycle ------------------------------------------------------------

    def prime(self) -> None:
        """Schedule every fault event on the engine calendar.

        Events are scheduled in sorted order so their engine sequence
        numbers — and therefore same-instant dispatch order — are
        deterministic.
        """
        for event in self.schedule:
            self.engine.call_at(
                event.time,
                self._apply,
                event,
                priority=EventPriority.FAULT,
                label=f"fault:{event.action}"
                + (f":{event.node_id}" if event.node_id >= 0 else ""),
            )

    def on_completion(self, node: Node) -> None:
        """Drain point: a subjob just completed on ``node``.

        Called by the simulator *before* the policy's completion routing,
        so a due retry gets first claim on the freed node (the policy's
        handler then sees the node busy and skips it — the documented
        deferred-completion pattern).
        """
        self.recovery.drain()

    def finalize(self) -> None:
        """Close open downtime/stall stretches at the end of the run."""
        for node in self.cluster:
            node.flush_downtime()
        if self._stall_depth > 0:
            self.stats_stall_seconds += self.engine.now - self._stall_since
            self._stall_since = self.engine.now

    def summary(self, degraded_makespan: float = 0.0) -> FaultSummary:
        """Aggregate fault accounting across the cluster."""
        busy = sum(node.stats.busy_seconds for node in self.cluster)
        lost_seconds = sum(node.stats.lost_seconds for node in self.cluster)
        wasted = busy + lost_seconds
        return FaultSummary(
            failures=self.stats_failures,
            stalls=self.stats_stalls,
            subjobs_aborted=sum(
                node.stats.subjobs_aborted for node in self.cluster
            ),
            retries=self.recovery.stats_retries,
            giveups=self.recovery.stats_giveups,
            lost_events=sum(node.stats.lost_events for node in self.cluster),
            lost_seconds=lost_seconds,
            downtime_seconds=sum(
                node.stats.downtime_seconds for node in self.cluster
            ),
            stall_seconds=self.stats_stall_seconds,
            goodput=1.0 if wasted <= 0 else busy / wasted,
            degraded_makespan=degraded_makespan,
        )

    # -- transitions -----------------------------------------------------------

    def _apply(self, event: FaultEvent) -> None:
        if event.action == ACTION_FAIL:
            self._fail(self.cluster[event.node_id])
        elif event.action == ACTION_RECOVER:
            self._recover(self.cluster[event.node_id])
        elif event.action == ACTION_STALL_START:
            self._stall_start()
        else:
            self._stall_end()

    def _fail(self, node: Node) -> None:
        self.stats_failures += 1
        aborted = node.fail(wipe_cache=self.config.wipe_cache_on_failure)
        self.policy.on_node_failed(node, aborted)
        if aborted is not None:
            self.recovery.add(aborted)

    def _recover(self, node: Node) -> None:
        node.recover()
        # Due retries get first claim on the fresh node, then the policy
        # may feed it from its own queues.
        self.recovery.drain()
        self.policy.on_node_recovered(node)

    def _stall_start(self) -> None:
        self.stats_stalls += 1
        self._stall_depth += 1
        if self._stall_depth == 1:
            self._stall_since = self.engine.now
        for node in self.cluster:
            node.set_tertiary_slowdown(self.config.stall_slowdown)
        if self.obs.enabled:
            self.obs.emit(
                self.engine.now,
                kinds.STALL_START,
                "faults",
                slowdown=self.config.stall_slowdown,
            )

    def _stall_end(self) -> None:
        self._stall_depth -= 1
        if self._stall_depth > 0:
            return  # scripted stalls may overlap; end with the last one
        self.stats_stall_seconds += self.engine.now - self._stall_since
        for node in self.cluster:
            node.set_tertiary_slowdown(1.0)
        if self.obs.enabled:
            self.obs.emit(self.engine.now, kinds.STALL_END, "faults")
