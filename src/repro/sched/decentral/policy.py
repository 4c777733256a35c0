"""The decentralized rule/bid scheduling policies.

Lifecycle of a unit of work (rule → bid → grant):

1. **Rule** — on job arrival the arbiter publishes a rule; every node
   derives the same fixed task tiling from it (:mod:`.rules`).
2. **Bid** — when a node goes hungry (idle, grant queue empty) an
   arbitration round is scheduled after a short coalescing latency.  At
   the round, each hungry node scores the candidate window of pending
   tasks against its *local* cache (:mod:`.bidding`).  A node pays for
   one **standing bid** message when it posts its offer (cache digest +
   availability) to the board; the offer stays valid — and exact,
   because an idle node's cache cannot change — until a grant consumes
   it, so later rounds re-match it for free.
3. **Grant** — the arbiter matches highest scores first with seeded
   tie-breaking (:mod:`.arbiter`) and answers each winning node with one
   batched grant of up to ``grant_batch`` tasks.  Grants land after the
   control-plane transfer time charged by :class:`.costs.ControlCostModel`;
   a node works through its grant queue without further arbiter traffic
   and only bids again when the queue drains.

Faults compose through the standard hooks: a grant that reaches a failed
node bounces back into the rule's pending set, a failed node's queued
grants are re-pended, and the aborted running subjob returns through the
recovery manager's retry path untouched.

Determinism: every decision runs inside engine events, and the only
randomness is the ``sched.arbiter`` stream (mirroring the ``faults.*``
pattern) — so runs are bit-identical for a given seed, unchanged by the
sanitizer, process pools or result-cache hits.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from ...faults.net import ControlChannel

from ...core import units
from ...core.errors import ConfigurationError
from ...core.events import EventPriority
from ...core.rng import RandomStreams
from ...cluster.node import Node
from ...obs.hooks import kinds
from ...workload.jobs import Job, Subjob
from ..base import SchedulerContext, SchedulerPolicy, register_policy
from ..stats import SchedulerStats
from .arbiter import arbitrate
from .bidding import score_window, window_rows
from .costs import ControlCostModel
from .rules import Rule, expand_rule

#: Default anti-starvation horizon: a task this old outscores a fully
#: cached competitor even with zero locality of its own.
DEFAULT_AGING_TAU = 6 * units.HOUR

#: Default bid coalescing window (seconds) between the hunger trigger
#: and the arbitration round.
DEFAULT_ROUND_LATENCY = 0.05


@register_policy
class DecentralPolicy(SchedulerPolicy):
    """Locality-aware rule/bid scheduling (beyond the paper)."""

    name = "decentral"
    #: Weight of the locality/cost term; the cache-blind ablation zeroes it.
    locality_weight: float = 1.0
    #: A grant already moved the task to the node: the queue→CPU handoff
    #: is node-local, not LAN traffic.  The policy's real control
    #: messages (bids, grants, leases) ride the channel explicitly.
    uses_central_dispatch = False

    def __init__(
        self,
        task_events: Optional[int] = None,
        grant_batch: int = 4,
        bid_window: int = 128,
        round_latency: float = DEFAULT_ROUND_LATENCY,
        aging_tau: float = DEFAULT_AGING_TAU,
        costs: Optional[ControlCostModel] = None,
    ) -> None:
        super().__init__()
        if task_events is not None and task_events < 1:
            raise ConfigurationError(f"task_events must be >= 1, got {task_events}")
        if grant_batch < 1:
            raise ConfigurationError(f"grant_batch must be >= 1, got {grant_batch}")
        if bid_window < 1:
            raise ConfigurationError(f"bid_window must be >= 1, got {bid_window}")
        #: Task size in events (default: the config's chunk size at bind).
        self.task_events = task_events
        self.grant_batch = int(grant_batch)
        self.bid_window = int(bid_window)
        self.round_latency = float(round_latency)
        self.aging_tau = float(aging_tau)
        self.costs = costs if costs is not None else ControlCostModel()
        #: Active rules by job id (insertion = arrival order).
        self.rules: Dict[int, Rule] = {}
        #: Granted-but-not-started tasks per node.
        self.node_queues: Dict[int, Deque[Subjob]] = {}
        #: Nodes whose standing bid (offer + cache digest) is on the
        #: board; they re-enter rounds without a new message until a
        #: grant consumes the offer.
        self._standing: set = set()
        self._round_pending = False
        self._rng: Optional[np.random.Generator] = None
        # -- control-plane counters (SchedulerStats) -----------------------
        self.stat_rounds = 0
        self.stat_rules = 0
        self.stat_bids = 0
        self.stat_grants = 0
        self.stat_messages = 0
        self.stat_control_bytes = 0
        self.stat_control_seconds = 0.0
        self.stat_grant_bounces = 0
        # -- control-plane reliability (repro.faults.net) -------------------
        self.stat_bid_losses = 0
        self.stat_grant_dead_letters = 0
        self.stat_failovers = 0
        self._lease_misses = 0

    def bind(self, ctx: SchedulerContext) -> None:
        super().bind(ctx)
        self.node_queues = {node.node_id: deque() for node in ctx.cluster}
        streams = ctx.streams
        if streams is None:  # manually built contexts (unit tests)
            streams = RandomStreams(ctx.config.seed)
        self._rng = streams.get("sched.arbiter")
        channel = ctx.channel
        if channel is not None:
            # Arbiter liveness: a lease beat every lease_interval; enough
            # consecutive lost beats trigger a failover re-election.
            interval = channel.config.lease_interval
            if interval <= ctx.config.duration:
                ctx.engine.call_after(
                    interval,
                    self._lease_tick,
                    priority=EventPriority.TIMER,
                    label="sched.lease",
                )

    @property
    def _channel(self) -> Optional["ControlChannel"]:
        """The control channel, or ``None`` on a perfect LAN."""
        ctx = self.ctx
        return None if ctx is None else ctx.channel

    # -- rule publication (job arrival) -------------------------------------

    def on_job_arrival(self, job: Job) -> None:
        size = self.task_events if self.task_events else self.config.chunk_events
        rule = expand_rule(job, size, self.min_subjob_events)
        self.rules[job.job_id] = rule
        self.stat_rules += 1
        self._charge(self.costs.rule_bytes, 1)
        if self.obs.enabled:
            self.emit(
                kinds.RULE_PUBLISH,
                job=job.job_id,
                tasks=len(rule.pending),
                events=job.n_events,
            )
        self._request_round()

    # -- completions ---------------------------------------------------------

    def on_subjob_end(self, node: Node, subjob: Subjob) -> None:
        self._after_completion(node)

    def on_job_end(self, node: Node, job: Job, subjob: Subjob) -> None:
        # A done job has every subjob DONE, so its rule's pending set is
        # empty and no queue holds its tasks — safe to retire.
        self.rules.pop(job.job_id, None)
        self._after_completion(node)

    def _after_completion(self, node: Node) -> None:
        if node.idle:
            self._feed(node)
        if node.idle and not self.node_queues[node.node_id]:
            self._request_round()

    # -- faults --------------------------------------------------------------

    def on_node_failed(self, node: Node, aborted: Optional[Subjob]) -> None:
        """Re-pend the dead node's grant queue; the aborted running
        subjob stays with the recovery manager's retry path."""
        queue = self.node_queues[node.node_id]
        if queue:
            self._repend(list(queue))
            queue.clear()
        self._standing.discard(node.node_id)
        self._request_round()

    def on_node_recovered(self, node: Node) -> None:
        self._request_round()

    # -- arbitration rounds --------------------------------------------------

    def _request_round(self) -> None:
        """Schedule one coalesced arbitration round after the bid latency."""
        if self._round_pending:
            return
        if not any(rule.pending for rule in self.rules.values()):
            return
        self._round_pending = True
        self.engine.call_after(
            self.round_latency,
            self._run_round,
            priority=EventPriority.TIMER,
            label="sched.round",
        )

    def _hungry_nodes(self) -> List[Node]:
        """Nodes that would bid: idle with a drained grant queue."""
        return [
            node
            for node in self.cluster.idle_nodes()
            if not self.node_queues[node.node_id]
        ]

    def _candidate_window(self) -> List[Subjob]:
        """Pending tasks offered this round, oldest rules first (aging
        order), bounded by ``bid_window`` to cap per-round work."""
        window: List[Subjob] = []
        rules = sorted(
            (rule for rule in self.rules.values() if rule.pending),
            key=lambda rule: (rule.arrival_time, rule.job_id),
        )
        for rule in rules:
            window.extend(rule.pending)
            if len(window) >= self.bid_window:
                break
        return window[: self.bid_window]

    def _run_round(self) -> None:
        self._round_pending = False
        bidders = self._hungry_nodes()
        candidates = self._candidate_window()
        if not bidders or not candidates:
            return
        cost_model = self.cluster.cost_model
        cached_event_time = cost_model.cached_event_time
        uncached_event_time = cost_model.uncached_event_time
        window = window_rows(candidates, self.engine.now, self.aging_tau)
        task_range = range(len(window))
        # The round's bids as three parallel lists: bidder, task, score.
        bid_nodes: List[int] = []
        bid_tasks: List[int] = []
        bid_scores: List[float] = []
        round_bytes = 0
        round_messages = 0
        channel = self._channel
        for node in bidders:
            node_id = node.node_id
            if node_id not in self._standing:
                # First round since this node went hungry: it posts its
                # standing offer.  While idle its cache is frozen, so
                # the posted digest stays exact and later rounds match
                # it without new traffic.  The post is charged whether or
                # not the LAN delivers it — the bytes went on the wire.
                round_bytes += self.costs.bid_bytes(len(candidates))
                round_messages += 1
                if channel is not None and not channel.attempt(
                    kind="bid", node=node_id
                ):
                    # Lost post: this round never saw the node's offer.
                    # The node re-advertises after its bid timeout — a
                    # fresh round where it is still hungry and unposted.
                    self.stat_bid_losses += 1
                    self.engine.call_after(
                        channel.config.ack_timeout,
                        self._request_round,
                        priority=EventPriority.TIMER,
                        label="sched.rebid",
                    )
                    continue
                self._standing.add(node_id)
            bid_scores.extend(
                score_window(
                    node.cache,
                    window,
                    cached_event_time,
                    uncached_event_time,
                    locality_weight=self.locality_weight,
                    queue_depth=len(self.node_queues[node_id]),
                )
            )
            bid_nodes.extend([node_id] * len(window))
            bid_tasks.extend(task_range)
        assert self._rng is not None, "policy used before bind()"
        granted = arbitrate(
            bid_nodes, bid_tasks, bid_scores, self.grant_batch, self._rng
        )
        grants: List[Tuple[int, List[Subjob]]] = []
        for node_id in sorted(granted):
            tasks = [candidates[index] for index in granted[node_id]]
            for task in tasks:
                self.rules[task.job.job_id].take(task)
            grants.append((node_id, tasks))
            round_bytes += self.costs.grant_bytes(len(tasks))
            round_messages += 1
        self.stat_rounds += 1
        self.stat_bids += len(bid_scores)
        self.stat_grants += sum(len(tasks) for _, tasks in grants)
        delay = self._charge(round_bytes, round_messages)
        if self.obs.enabled:
            self.emit(
                kinds.BID_ROUND,
                bidders=len(bidders),
                candidates=len(candidates),
                bids=len(bid_scores),
                granted=sum(len(tasks) for _, tasks in grants),
            )
        if grants:
            # Grants land after the control traffic has moved.  On an
            # unreliable LAN each grant becomes a reliable message with
            # idempotent (channel-deduplicated) delivery and a dead-letter
            # path that re-pends the granted tasks.
            apply = self._apply_grants if channel is None else self._send_grants
            self.engine.call_after(
                delay,
                apply,
                grants,
                priority=EventPriority.TIMER,
                label="sched.grant",
            )

    def _apply_grants(self, grants: List[Tuple[int, List[Subjob]]]) -> None:
        """Perfect-LAN path: every grant lands at once."""
        bounced = False
        for node_id, tasks in grants:
            bounced |= not self._land_grant(node_id, tasks)
        if bounced:
            self._request_round()

    def _send_grants(self, grants: List[Tuple[int, List[Subjob]]]) -> None:
        """Lossy-LAN path: one reliable message per granted node."""
        channel = self._channel
        assert channel is not None
        for node_id, tasks in grants:
            channel.send_reliable(
                lambda node_id=node_id, tasks=tasks: self._deliver_grant(
                    node_id, tasks
                ),
                kind="grant",
                node=node_id,
                on_dead_letter=lambda node_id=node_id, tasks=tasks: (
                    self._grant_dead_letter(node_id, tasks)
                ),
            )

    def _deliver_grant(self, node_id: int, tasks: List[Subjob]) -> None:
        if not self._land_grant(node_id, tasks):
            self._request_round()

    def _grant_dead_letter(self, node_id: int, tasks: List[Subjob]) -> None:
        """The grant never made it: put the tasks back on the board."""
        self._standing.discard(node_id)
        self.stat_grant_dead_letters += 1
        self._repend(tasks)
        self._request_round()

    def _land_grant(self, node_id: int, tasks: List[Subjob]) -> bool:
        """Apply one grant on its node; ``False`` = bounced off a crash."""
        node = self.cluster[node_id]
        # Granted or dead, the node's standing offer leaves the board.
        self._standing.discard(node_id)
        if node.failed:
            # The node died mid-round; its grant bounces back.
            self.stat_grant_bounces += 1
            self._repend(tasks)
            return False
        if self.obs.enabled:
            self.emit(
                kinds.TASK_GRANT,
                node=node_id,
                tasks=len(tasks),
                sids=",".join(task.sid for task in tasks),
            )
        self.node_queues[node_id].extend(tasks)
        if node.idle:
            self._feed(node)
        return True

    def _repend(self, tasks: List[Subjob]) -> None:
        by_job: Dict[int, List[Subjob]] = {}
        for task in tasks:
            by_job.setdefault(task.job.job_id, []).append(task)
        for job_id, group in by_job.items():
            self.rules[job_id].put_back(group)

    def _feed(self, node: Node) -> None:
        queue = self.node_queues[node.node_id]
        if queue:
            self.start_on(node, queue.popleft())

    def _charge(self, payload_bytes: int, messages: int) -> float:
        """Account control traffic; returns its simulated transfer time."""
        seconds = self.costs.transfer_seconds(payload_bytes, messages)
        self.stat_messages += messages
        self.stat_control_bytes += payload_bytes
        self.stat_control_seconds += seconds
        return seconds

    # -- arbiter liveness (repro.faults.net) ---------------------------------

    def _lease_tick(self) -> None:
        """One arbiter lease beat on the lossy LAN.

        Enough consecutive lost beats and the nodes declare the arbiter
        dead: a failover re-election runs.  The channel being the only
        loss source, this deliberately conflates "arbiter crashed" with
        "arbiter unreachable" — indistinguishable from a node's chair.
        """
        channel = self._channel
        if channel is None:
            return
        config = channel.config
        self._charge(self.costs.bid_header_bytes, 1)
        if channel.attempt(kind="lease"):
            self._lease_misses = 0
        else:
            self._lease_misses += 1
            if self._lease_misses >= config.lease_misses:
                self._failover()
                self._lease_misses = 0
        if self.engine.now + config.lease_interval <= self.config.duration:
            self.engine.call_after(
                config.lease_interval,
                self._lease_tick,
                priority=EventPriority.TIMER,
                label="sched.lease",
            )

    def _failover(self) -> None:
        """Deterministic arbiter re-election after a lost lease.

        Every live node votes for the lowest-id live node (ids give a
        total order, so one round converges); the new arbiter's bulletin
        board starts empty, which forces every hungry node to re-post its
        standing offer — the grant/rule state lives in the (replicated)
        rules, so no work is lost.
        """
        channel = self._channel
        assert channel is not None
        self.stat_failovers += 1
        channel.stats.failovers += 1
        live = [node for node in self.cluster if not node.failed]
        self._charge(len(live) * self.costs.bid_header_bytes, len(live))
        self._standing.clear()
        if self.obs.enabled:
            self.emit(kinds.NET_FAILOVER, nodes=len(live))
        self._request_round()

    # -- reporting -----------------------------------------------------------

    def scheduler_stats(self) -> Optional[SchedulerStats]:
        return SchedulerStats(
            mode="decentral",
            rounds=self.stat_rounds,
            rules_published=self.stat_rules,
            bids=self.stat_bids,
            grants=self.stat_grants,
            messages=self.stat_messages,
            control_bytes=self.stat_control_bytes,
            control_seconds=self.stat_control_seconds,
        )

    def describe(self) -> Dict[str, object]:
        return {
            "policy": self.name,
            "task_events": self.task_events,
            "grant_batch": self.grant_batch,
            "bid_window": self.bid_window,
            "round_latency": self.round_latency,
            "aging_tau": self.aging_tau,
            "locality_weight": self.locality_weight,
        }

    def extra_stats(self) -> Dict[str, float]:
        return {
            "rounds": float(self.stat_rounds),
            "rules_published": float(self.stat_rules),
            "bids": float(self.stat_bids),
            "grants": float(self.stat_grants),
            "control_messages": float(self.stat_messages),
            "control_bytes": float(self.stat_control_bytes),
            "control_seconds": self.stat_control_seconds,
            "grant_bounces": float(self.stat_grant_bounces),
            "bid_losses": float(self.stat_bid_losses),
            "grant_dead_letters": float(self.stat_grant_dead_letters),
            "failovers": float(self.stat_failovers),
            "queued_at_end": float(
                sum(len(queue) for queue in self.node_queues.values())
            ),
        }


@register_policy
class DecentralNoLocalPolicy(DecentralPolicy):
    """Cache-blind ablation: identical protocol, zero locality weight.

    Nodes still cache data (same planner), but bids ignore it — grants
    go to arbitrary hungry nodes, so the cached fraction the cluster
    accumulates is largely wasted.  Isolates how much of ``decentral``'s
    performance comes from locality scoring rather than from batching.
    """

    name = "decentral-nolocal"
    locality_weight = 0.0
