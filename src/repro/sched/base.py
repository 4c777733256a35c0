"""Scheduler-policy framework: base class, plugin registry, shared helpers.

The paper's scheduler "implements a plugin model, enabling new scheduling
policies to be easily added"; this module is that plugin model.  A policy
receives three notifications from the simulator —

* :meth:`SchedulerPolicy.on_job_arrival`,
* :meth:`SchedulerPolicy.on_subjob_end` (a subjob finished but its job has
  more work), and
* :meth:`SchedulerPolicy.on_job_end` (a subjob finished and completed its
  job)

— and acts by starting/preempting subjobs on nodes.  The paper's two basic
principles (§3) are invariants every policy here maintains: a started job
always keeps at least one node or queued/suspended work that the policy
will resume, and the policy documents its job-start ordering.
"""

from __future__ import annotations

import difflib
import inspect
from abc import ABC, abstractmethod
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Type

from ..cluster.access import CachingPlanner, DataAccessPlanner
from ..cluster.cluster import Cluster
from ..cluster.node import Node
from ..core.engine import Engine
from ..core.errors import ConfigurationError, SchedulingError
from ..core.rng import RandomStreams
from ..data.intervals import Interval
from ..data.tertiary import TertiaryStorage
from ..obs.hooks import NULL_BUS, HookBus, kinds
from ..workload.jobs import Job, Subjob

if TYPE_CHECKING:  # pragma: no cover
    # Imported lazily to avoid a package cycle: sim.simulator imports this
    # module, and sim.config is only needed here for type hints.
    from ..faults.net import ControlChannel
    from ..sim.config import SimulationConfig
    from ..topo.tree import TopologyView
    from .stats import SchedulerStats


class SchedulerContext:
    """Everything a policy may touch, bundled at bind time.

    ``streams`` is the simulation's :class:`~repro.core.rng.RandomStreams`
    factory; policies that need randomness must draw from a dedicated
    ``sched.*`` named stream (mirroring the ``faults.*`` discipline) so
    adding a stochastic policy never perturbs workload or fault draws.
    """

    def __init__(
        self,
        engine: Engine,
        cluster: Cluster,
        config: "SimulationConfig",
        tertiary: TertiaryStorage,
        obs: HookBus = NULL_BUS,
        streams: Optional[RandomStreams] = None,
        channel: Optional["ControlChannel"] = None,
        topo: Optional["TopologyView"] = None,
    ) -> None:
        self.engine = engine
        self.cluster = cluster
        self.config = config
        self.tertiary = tertiary
        self.obs = obs
        self.streams = streams
        #: Unreliable control LAN (repro.faults.net); ``None`` on a
        #: perfect network, in which case dispatches are synchronous.
        self.channel = channel
        #: Hierarchical topology (repro.topo); ``None`` on the paper's
        #: flat cluster, in which case all tier distances are zero.
        self.topo = topo

    @property
    def now(self) -> float:
        return self.engine.now


class SchedulerPolicy(ABC):
    """Base class of all scheduling policies."""

    #: Registry key; subclasses must override.
    name: str = ""

    #: Whether dispatches are master→node control messages that must ride
    #: the unreliable channel when the run has one.  Decentral policies set
    #: this ``False``: a grant already moved the task to the node, so its
    #: local queue→CPU handoff is not LAN traffic (their control messages
    #: — bids, grants, leases — go through the channel explicitly).
    uses_central_dispatch: bool = True

    def __init__(self) -> None:
        self.ctx: Optional[SchedulerContext] = None

    # -- lifecycle ----------------------------------------------------------

    def make_planner(self, tertiary: TertiaryStorage) -> DataAccessPlanner:
        """The data-access planner this policy installs on the nodes.

        Default: local LRU caching with write-through (cache-aware
        policies).  Cache-less policies override this.
        """
        return CachingPlanner(tertiary)

    def bind(self, ctx: SchedulerContext) -> None:
        """Attach to a simulation; called once before the first arrival."""
        self.ctx = ctx

    # -- notifications ---------------------------------------------------------

    @abstractmethod
    def on_job_arrival(self, job: Job) -> None:
        """A new job entered the system."""

    @abstractmethod
    def on_subjob_end(self, node: Node, subjob: Subjob) -> None:
        """``subjob`` finished on ``node``; its job still has open work.

        ``node`` may already be busy again if the completion was delivered
        through a deferred event after a preemption — handlers must check
        ``node.idle``.
        """

    @abstractmethod
    def on_job_end(self, node: Node, job: Job, subjob: Subjob) -> None:
        """``subjob`` finished on ``node`` and completed ``job``."""

    # -- fault notifications (repro.faults) ---------------------------------

    def on_node_failed(self, node: Node, aborted: Optional[Subjob]) -> None:
        """``node`` crashed; ``aborted`` is its interrupted subjob, if any.

        Called *after* the node entered the failed state (the aborted
        subjob is SUSPENDED and owned by the recovery manager — policies
        must not restart it here; it comes back via the retry path).
        The default drops any policy-internal queue state targeting the
        dead node; policies with per-node queues override.
        """

    def on_node_recovered(self, node: Node) -> None:
        """``node`` came back up, idle and (unless wiped) with its cache.

        Default: no action — work reaches the node through the normal
        completion/arrival flow.  Policies that only feed nodes on their
        own events should override and feed the node here.
        """

    def pick_retry_node(self, subjob: Subjob) -> Optional[Node]:
        """Choose an idle node to re-dispatch an aborted subjob onto.

        Default: the idle node with the most of the subjob's *remaining*
        data cached, ties broken by lowest node id — cache-preserving for
        cache-aware policies and naturally first-idle for cache-less ones
        (their node caches never hold anything).  ``None`` = no idle node;
        the recovery manager re-offers the subjob on the next drain point.
        """
        segment = subjob.segment
        start = segment.start + subjob.processed
        end = segment.end
        best: Optional[Node] = None
        best_key: Tuple[int, int] = (-1, 1)
        for node in self.cluster.idle_nodes():
            key = (node.cache.cached_events(start, end), -node.node_id)
            if key > best_key:
                best_key = key
                best = node
        return best

    # -- sanitizer ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Validate policy-internal bookkeeping against a full recount.

        Called from the ``--check-invariants`` probe next to the
        simulator's deep check; raises
        :class:`~repro.core.errors.InvariantViolation`.  Default: nothing
        to check.
        """

    # -- reporting ----------------------------------------------------------------

    def describe(self) -> Dict[str, object]:
        """Policy parameters for reports."""
        return {"policy": self.name}

    def extra_stats(self) -> Dict[str, float]:
        """Policy-specific counters for reports (fairness promotions,
        replications, ...)."""
        return {}

    def scheduler_stats(self) -> Optional["SchedulerStats"]:
        """Real control-plane accounting, for policies that measure it.

        ``None`` (the default) means the policy is a classic central
        push scheduler; the simulator then synthesizes a
        :meth:`~repro.sched.stats.SchedulerStats.central_estimate` from
        node dispatch counters so every result carries comparable
        scheduler-traffic numbers.
        """
        return None

    # -- shared helpers ---------------------------------------------------------------

    @property
    def cluster(self) -> Cluster:
        assert self.ctx is not None, "policy used before bind()"
        return self.ctx.cluster

    @property
    def engine(self) -> Engine:
        assert self.ctx is not None, "policy used before bind()"
        return self.ctx.engine

    @property
    def config(self) -> "SimulationConfig":
        assert self.ctx is not None, "policy used before bind()"
        return self.ctx.config

    @property
    def min_subjob_events(self) -> int:
        return self.config.min_subjob_events

    @property
    def obs(self) -> HookBus:
        """The simulation's hook bus (disabled singleton before bind)."""
        return self.ctx.obs if self.ctx is not None else NULL_BUS

    def emit(self, kind: str, **fields: object) -> None:
        """Emit one trace event stamped with the current simulation time.

        Callers on hot paths should guard with ``if self.obs.enabled:``
        to skip field construction when tracing is off.
        """
        ctx = self.ctx
        if ctx is None or not ctx.obs.enabled:
            return
        ctx.obs.emit(ctx.engine.now, kind, "sched", **fields)

    def start_on(self, node: Node, subjob: Subjob) -> None:
        """Start ``subjob`` on ``node`` (thin, assert-friendly wrapper).

        On an unreliable control plane this is where central dispatch
        becomes a reliable message: the node is reserved and the start
        happens when (and if) the dispatch is delivered — see
        :meth:`~repro.faults.net.ControlChannel.dispatch`.
        """
        if not node.idle:
            raise SchedulingError(
                f"{self.name}: node {node.node_id} not idle "
                f"(busy={node.busy}, failed={node.failed})"
            )
        ctx = self.ctx
        if (
            ctx is not None
            and ctx.channel is not None
            and self.uses_central_dispatch
        ):
            ctx.channel.dispatch(node, subjob)
            return
        node.start(subjob)

    def split_running_subjob(self, subjob: Subjob, point: int) -> Optional[Subjob]:
        """Split a *running* subjob's remaining work at ``point``.

        Preempts its node, splits, resumes the left half there, and
        returns the right half (PENDING).  Returns ``None`` if the subjob
        completed during preemption or the point fell outside the
        remaining range after the preemption progress update.
        """
        node = subjob.node
        if node is None:
            raise SchedulingError(f"subjob {subjob.sid} is not running")
        suspended = node.preempt()
        if suspended is None:
            return None  # finished exactly now
        segment = suspended.segment
        if not (segment.start + suspended.processed < point < segment.end):
            node.start(suspended)
            return None
        right = suspended.split_remaining_at(point)
        if self.obs.enabled:
            self.emit(
                kinds.SUBJOB_SPLIT,
                node=node.node_id,
                job=subjob.job.job_id,
                sid=subjob.sid,
                right_sid=right.sid,
                point=point,
            )
        node.start(suspended)
        return right


# ---------------------------------------------------------------------------
# Plugin registry
# ---------------------------------------------------------------------------

_REGISTRY: Dict[str, Type[SchedulerPolicy]] = {}


def register_policy(cls: Type[SchedulerPolicy]) -> Type[SchedulerPolicy]:
    """Class decorator adding a policy to the registry by its ``name``.

    Re-registering a taken name is always an error — even for the same
    class — so a double import or a copy-pasted plugin fails loudly
    instead of silently shadowing an existing policy.
    """
    if not cls.name:
        raise ConfigurationError(f"policy class {cls.__name__} has no name")
    if cls.name in _REGISTRY:
        taken_by = _REGISTRY[cls.name].__name__
        raise ConfigurationError(
            f"duplicate policy name {cls.name!r}: already registered by "
            f"{taken_by}; pick a unique SchedulerPolicy.name for "
            f"{cls.__name__}"
        )
    _REGISTRY[cls.name] = cls
    return cls


def available_policies() -> List[str]:
    """Registered policy names, stably sorted (lexicographic)."""
    return sorted(_REGISTRY)


def get_policy_class(name: str) -> Type[SchedulerPolicy]:
    """The registered class for ``name`` (with did-you-mean on misses)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(unknown_policy_message(name)) from None


def suggest_policies(name: str, limit: int = 3) -> List[str]:
    """Closest registered policy names to a misspelled ``name``."""
    return difflib.get_close_matches(
        name, available_policies(), n=limit, cutoff=0.4
    )


def unknown_policy_message(name: str) -> str:
    """The shared unknown-policy error text (CLI and library paths)."""
    message = (
        f"unknown policy {name!r}; available: {', '.join(available_policies())}"
    )
    suggestions = suggest_policies(name)
    if suggestions:
        message += f" (did you mean: {', '.join(suggestions)}?)"
    return message


def policy_parameters(name: str) -> Dict[str, object]:
    """The tunable constructor parameters of a policy and their defaults.

    Parameters without a default map to the string ``"required"``.
    """
    signature = inspect.signature(get_policy_class(name).__init__)
    params: Dict[str, object] = {}
    for parameter in list(signature.parameters.values())[1:]:  # skip self
        if parameter.kind in (
            inspect.Parameter.VAR_POSITIONAL,
            inspect.Parameter.VAR_KEYWORD,
        ):
            continue
        params[parameter.name] = (
            "required"
            if parameter.default is inspect.Parameter.empty
            else parameter.default
        )
    return params


def create_policy(name: str, **params: object) -> SchedulerPolicy:
    """Instantiate a registered policy by name."""
    return get_policy_class(name)(**params)


# ---------------------------------------------------------------------------
# Shared splitting helpers
# ---------------------------------------------------------------------------


def split_interval_by_caches(
    segment: Interval,
    cluster: Cluster,
    min_events: int,
) -> List[Tuple[Interval, Optional[Node]]]:
    """Partition ``segment`` into pieces that are each fully cached on one
    node or fully uncached (Tables 2–4: "data processed by a given subjob
    should always either be fully cached on a node or not cached at all").

    Pieces shorter than ``min_events`` are merged into a neighbour (the
    paper's minimal job size), which may make that neighbour's tag
    slightly inexact — the planner charges actual hit/miss costs per
    chunk, so only the *placement hint* blurs.

    Returns ``(piece, node)`` pairs in segment order; ``node`` is the node
    caching the piece (``None`` = uncached).  When two nodes cache the
    same events (possible after work stealing), the lower-id node wins —
    deterministic and unbiased since node ids carry no meaning.
    """
    # 1. Claim: the owner of a point is the lowest-id live node caching
    # it.  One sweep over every live node's cached runs, sorted by start,
    # emits the maximal runs of one owner; a min-heap of (node id, run
    # end) holds the runs covering the sweep position, and a run that
    # ended is dropped once it surfaces at the top.
    runs: List[Tuple[int, int, int]] = []
    for node in cluster:
        if node.failed:
            continue  # a dead node's cache must not attract placements
        node_id = node.node_id
        for start, end in node.cache.cached_parts(segment).pairs():
            runs.append((start, end, node_id))
    runs.sort()
    nodes = cluster.nodes
    cuts: List[int] = []
    owners: List[Optional[Node]] = []
    active: List[Tuple[int, int]] = []
    position = segment.start
    segment_end = segment.end
    index = 0
    count = len(runs)
    while position < segment_end:
        while index < count and runs[index][0] <= position:
            _, end, node_id = runs[index]
            heappush(active, (node_id, end))
            index += 1
        while active and active[0][1] <= position:
            heappop(active)
        stop = runs[index][0] if index < count else segment_end
        owner: Optional[Node] = None
        if active:
            node_id, end = active[0]
            owner = nodes[node_id]
            if end < stop:
                stop = end
        if not owners or owners[-1] is not owner:
            cuts.append(position)
            owners.append(owner)
        position = stop
    cuts.append(segment_end)
    claims = [
        (Interval(cuts[i], cuts[i + 1]), owner) for i, owner in enumerate(owners)
    ]

    # 2. Merge undersized pieces into a neighbour.
    merged: List[Tuple[Interval, Optional[Node]]] = []
    for piece, owner in claims:
        if merged and (
            piece.length < min_events or merged[-1][0].length < min_events
        ):
            previous, previous_owner = merged[-1]
            keep_owner = (
                previous_owner
                if previous.length >= piece.length
                else owner
            )
            merged[-1] = (Interval(previous.start, piece.end), keep_owner)
        else:
            merged.append((piece, owner))
    return merged


def best_subjob_for_node(
    node: Node, candidates: List[Subjob]
) -> Optional[Subjob]:
    """The candidate with the most remaining data cached on ``node``
    (ties → largest remaining, then arrival order)."""
    cached_events = node.cache.cached_events
    best: Optional[Subjob] = None
    best_key: Tuple[int, int] = (-1, -1)
    for subjob in candidates:
        segment = subjob.segment
        start = segment.start + subjob.processed
        end = segment.end
        key = (cached_events(start, end), end - start)
        if key > best_key:
            best_key = key
            best = subjob
    return best
