"""The observability hook bus: structured trace events at near-zero cost.

Every instrumented component (engine, nodes, caches, tertiary storage,
scheduler policies, the simulation itself) holds a reference to a
:class:`HookBus` and guards each emission site with::

    if self.obs.enabled:
        self.obs.emit(now, kinds.SUBJOB_START, "node", node=..., ...)

With no sink attached ``enabled`` is ``False``, so the disabled path costs
one attribute load and one branch per site — the event object is never
built.  ``benchmarks/bench_obs_overhead.py`` guards that this stays below
3 % of the simulation hot loop.

Sinks implement the :class:`TraceSink` protocol (a single ``on_event``
method); :class:`~repro.obs.recorder.TraceRecorder` is the standard one.
Components that are constructed without a bus share the module-level
:data:`NULL_BUS` singleton, which refuses sink attachment so a stray
``attach`` cannot silently enable tracing for every untraced simulation
in the process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..core.errors import ObsError


class kinds:
    """Event-kind taxonomy (namespaced string constants).

    Dotted names group by subsystem so sinks can filter with a prefix
    match (``kind.startswith("cache.")``).
    """

    # -- job lifecycle (simulator / policies) --------------------------------
    JOB_ARRIVAL = "job.arrival"
    JOB_SCHEDULE = "job.schedule"  # delayed policies: batch dispatched
    JOB_PROMOTE = "job.promote"  # fairness valve promotion
    JOB_END = "job.end"

    # -- subjob lifecycle (nodes / policies) ---------------------------------
    SUBJOB_START = "subjob.start"
    SUBJOB_RESUME = "subjob.resume"
    SUBJOB_SUSPEND = "subjob.suspend"
    SUBJOB_END = "subjob.end"
    SUBJOB_SPLIT = "subjob.split"
    SUBJOB_STEAL = "subjob.steal"
    SUBJOB_PREEMPT = "subjob.preempt"  # displaced in favour of cached work

    # -- data movement --------------------------------------------------------
    CHUNK_DONE = "chunk.done"
    CACHE_HIT = "cache.hit"
    CACHE_MISS = "cache.miss"
    CACHE_EVICT = "cache.evict"
    TAPE_READ = "tape.read"
    REMOTE_READ = "remote.read"

    # -- hierarchical topology (repro.topo) -----------------------------------
    TIER_HIT = "tier.hit"  # chunk served from an interior tier cache
    TIER_MISS = "tier.miss"  # a tier cache was consulted and had nothing
    TIER_EVICT = "tier.evict"  # tier cache evicted LRU replicas
    TIER_REPLICATE = "tier.replicate"  # placement promoted an extent
    LINK_SATURATED = "tier.link_saturated"  # uplink oversubscribed at plan

    # -- node state ----------------------------------------------------------
    NODE_BUSY = "node.busy"
    NODE_IDLE = "node.idle"

    # -- faults (repro.faults) ------------------------------------------------
    NODE_FAIL = "fault.node_fail"
    NODE_RECOVER = "fault.node_recover"
    SUBJOB_ABORT = "fault.subjob_abort"  # running chunk lost to a crash
    FAULT_RETRY = "fault.retry"  # aborted subjob re-dispatched
    FAULT_GIVEUP = "fault.giveup"  # retry budget exhausted
    STALL_START = "fault.stall_start"  # tertiary storage degraded
    STALL_END = "fault.stall_end"

    # -- scheduler machinery ---------------------------------------------------
    SCHED_PERIOD = "sched.period"
    SCHED_META = "sched.meta"  # meta-subjob coalesced over a stripe

    # -- decentralized scheduling (repro.sched.decentral) ----------------------
    RULE_PUBLISH = "sched.rule_publish"  # arbiter posted a job's rule
    BID_ROUND = "sched.bid_round"  # one arbitration round resolved
    TASK_GRANT = "sched.grant"  # batched grant applied on a node

    # -- control-plane faults (repro.faults.net) -------------------------------
    NET_DROP = "net.drop"  # a transmitted copy was lost in transit
    NET_DELIVER = "net.deliver"  # first copy of a message arrived
    NET_DUP = "net.dup"  # redundant copy discarded by receiver dedup
    NET_RETRANSMIT = "net.retransmit"  # sender re-sent an unacked message
    NET_TIMEOUT = "net.timeout"  # an ack timer fired
    NET_DEAD_LETTER = "net.dead_letter"  # retransmit budget exhausted
    NET_FAILOVER = "net.failover"  # arbiter lease lost; re-election ran

    # -- run framing -----------------------------------------------------------
    SIM_START = "sim.start"
    SIM_END = "sim.end"
    ENGINE_DISPATCH = "engine.dispatch"


@dataclass(slots=True)
class TraceEvent:
    """One structured observation.

    ``node``/``job`` are ``-1`` and ``sid`` is ``""`` when not applicable;
    kind-specific payload goes into ``data``.
    """

    time: float
    kind: str
    source: str
    node: int = -1
    job: int = -1
    sid: str = ""
    data: Dict[str, Any] = field(default_factory=dict)

    def key(self) -> tuple:
        """Hashable identity used by determinism tests."""
        return (
            self.time,
            self.kind,
            self.source,
            self.node,
            self.job,
            self.sid,
            tuple(sorted(self.data.items())),
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "time": self.time,
            "kind": self.kind,
            "source": self.source,
            "node": self.node,
            "job": self.job,
            "sid": self.sid,
            **self.data,
        }


class TraceSink:
    """Protocol/base class of trace consumers.

    Subclasses override :meth:`on_event`; :meth:`close` is called (by
    whoever owns the sink) when the traced run is over.
    """

    def on_event(self, event: TraceEvent) -> None:  # pragma: no cover - protocol
        raise NotImplementedError

    def close(self) -> None:
        """Flush/finalise; default is a no-op."""


class NullSink(TraceSink):
    """A sink that discards everything (useful to force the enabled code
    path in overhead measurements)."""

    def on_event(self, event: TraceEvent) -> None:
        pass


class HookBus:
    """Fan-out point between emission sites and attached sinks.

    ``enabled`` is a plain attribute kept in sync with the sink list so
    emission sites can guard with a single attribute read.
    ``engine_dispatch`` additionally gates the per-dispatch engine event
    (one per calendar event — high volume, off by default even while
    tracing).
    """

    __slots__ = ("_sinks", "enabled", "engine_dispatch")

    def __init__(self) -> None:
        self._sinks: List[TraceSink] = []
        self.enabled = False
        self.engine_dispatch = False

    def attach(self, sink: TraceSink) -> TraceSink:
        """Register ``sink``; returns it for chaining."""
        if sink in self._sinks:
            raise ObsError("sink already attached")
        self._sinks.append(sink)
        self.enabled = True
        return sink

    def detach(self, sink: TraceSink) -> None:
        self._sinks.remove(sink)
        self.enabled = bool(self._sinks)

    @property
    def sinks(self) -> List[TraceSink]:
        return list(self._sinks)

    def emit(
        self,
        time: float,
        kind: str,
        source: str,
        node: int = -1,
        job: int = -1,
        sid: str = "",
        **data: Any,
    ) -> None:
        """Build one :class:`TraceEvent` and deliver it to every sink.

        Callers must guard with ``if bus.enabled:`` — emitting on a
        disabled bus is silently dropped but pays the event construction.
        """
        if not self._sinks:
            return
        event = TraceEvent(
            time=time, kind=kind, source=source, node=node, job=job, sid=sid, data=data
        )
        for sink in self._sinks:
            sink.on_event(event)

    def close(self) -> None:
        for sink in self._sinks:
            sink.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HookBus(sinks={len(self._sinks)}, enabled={self.enabled})"


class _NullBus(HookBus):
    """The shared disabled bus; attaching a sink is a usage error."""

    def attach(self, sink: TraceSink) -> TraceSink:
        raise ObsError(
            "cannot attach a sink to the shared NULL_BUS; create a HookBus "
            "(or pass sink=... to Simulation/run_simulation) instead"
        )


#: Shared disabled bus used as the default by every instrumented component.
NULL_BUS: HookBus = _NullBus()


def make_bus(sink: Optional[TraceSink] = None) -> HookBus:
    """A fresh bus, optionally with ``sink`` already attached."""
    bus = HookBus()
    if sink is not None:
        bus.attach(sink)
    return bus
