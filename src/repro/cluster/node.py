"""Processing nodes: single-CPU executors with chunked, preemptible
subjob execution.

A node runs at most one subjob at a time (§2.4: "we only run a single job
or subjob per processor at any given time").  Execution is *chunked*: the
node asks its :class:`~repro.cluster.access.DataAccessPlanner` for the next
uniform-rate run of events, schedules one engine event at the chunk's
completion time, and repeats.  Preemption between events is exact: an
interrupted chunk credits the whole events finished so far and re-queues
the rest (the in-flight fractional event is re-processed later, matching
the paper's event-atomic processing).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.sanitizer import InvariantChecker

from ..core.engine import Engine
from ..core.errors import SchedulingError
from ..core.events import EventPriority, ScheduledEvent
from ..data.cache import LRUSegmentCache
from ..data.intervals import Interval
from ..obs.hooks import NULL_BUS, HookBus, kinds
from ..workload.jobs import Subjob, SubjobState
from .access import ChunkPlan, DataAccessPlanner
from .costmodel import CostModel, DataSource

#: Tolerance for float round-off when counting whole events in an elapsed
#: chunk time (an event is counted as done if at least 1 - 1e-9 of it ran).
_EVENT_EPSILON = 1e-9

#: Calendar priority of chunk completions, as the plain int the engine
#: keys its heap on.
_COMPLETION = int(EventPriority.COMPLETION)


@dataclass
class NodeStats:
    """Per-node lifetime counters."""

    busy_seconds: float = 0.0
    events_processed: int = 0
    events_by_source: Dict[DataSource, int] = field(
        default_factory=lambda: {source: 0 for source in DataSource}
    )
    chunks_started: int = 0
    preemptions: int = 0
    subjobs_completed: int = 0
    # -- fault accounting (repro.faults) ------------------------------------
    failures: int = 0
    subjobs_aborted: int = 0
    #: Whole events that were processed but lost with the in-flight chunk.
    lost_events: int = 0
    #: Wall time of crashed chunks (elapsed compute that produced nothing).
    lost_seconds: float = 0.0
    downtime_seconds: float = 0.0

    def utilization(self, elapsed: float) -> float:
        return 0.0 if elapsed <= 0 else self.busy_seconds / elapsed


class Node:
    """One processing node: CPU + disk cache + a data-access planner.

    The scheduler-facing API is three calls:

    * :meth:`start` — begin/resume a subjob (node must be idle);
    * :meth:`preempt` — suspend the running subjob between events;
    * :attr:`on_subjob_complete` — callback fired when a subjob's last
      event finishes (installed by the simulator; handlers must check
      :attr:`busy`, since completions triggered from within a preemption
      are notified via a zero-delay event).
    """

    def __init__(
        self,
        node_id: int,
        engine: Engine,
        cache: LRUSegmentCache,
        cost_model: CostModel,
        planner: DataAccessPlanner,
        chunk_events: int = 2000,
        speed_factor: float = 1.0,
        obs: HookBus = NULL_BUS,
    ) -> None:
        if chunk_events < 1:
            raise SchedulingError(f"chunk_events must be >= 1, got {chunk_events}")
        if speed_factor <= 0:
            raise SchedulingError(f"speed_factor must be > 0, got {speed_factor}")
        self.node_id = node_id
        self.engine = engine
        self.cache = cache
        self.cost_model = cost_model
        self.planner = planner
        self.chunk_events = chunk_events
        self.speed_factor = speed_factor
        #: Memoized per-source chunk costs ``(per_event, setup)``: the cost
        #: model is a frozen dataclass and ``speed_factor`` is fixed at
        #: construction, so both are constants — one lookup per chunk keeps
        #: the hot path free of method calls and branch chains.
        self._costs: Dict[DataSource, Tuple[float, float]] = {
            source: (
                cost_model.event_time(source, speed_factor),
                cost_model.setup_latency(source) * speed_factor,
            )
            for source in DataSource
        }
        self.obs = obs
        self.stats = NodeStats()
        self.current: Optional[Subjob] = None
        #: The in-flight chunk, kept in plain attributes rather than a
        #: record per chunk: its plan (``None`` when idle), per-event time,
        #: setup latency, start time and completion event.
        self._plan: Optional[ChunkPlan] = None
        self._per_event = 0.0
        self._setup = 0.0
        self._started_at = 0.0
        self._completion: Optional[ScheduledEvent] = None
        #: Calendar label of the running subjob's chunk completions, built
        #: once per :meth:`start`.
        self._label = ""
        #: Crash state (repro.faults): a failed node accepts no work and
        #: its cache is invisible to placement decisions until recovery.
        self.failed = False
        self._down_since = 0.0
        #: Control-plane reservation (see :attr:`reserved`).
        self._reserved = False
        #: Free to accept work: no running subjob, not crashed, and no
        #: dispatch already in flight to it.  A plain attribute kept by
        #: :meth:`_sync_idle` at every transition of those three fields;
        #: read-only for everyone else.
        self.idle = True
        #: The owning cluster's sorted list of idle node ids, installed by
        #: :class:`~repro.cluster.cluster.Cluster`; ``None`` for a
        #: stand-alone node.
        self.idle_index: Optional[List[int]] = None
        #: Per-event time multiplier for tertiary chunks (tertiary-stall
        #: modelling; snapshotted into each chunk at plan time, mirroring
        #: the contention planner's rate_factor approximation).
        self.tertiary_slowdown = 1.0
        #: Installed by the simulator: ``callback(node, subjob)``.
        self.on_subjob_complete: Optional[Callable[["Node", Subjob], None]] = None
        #: Sim-sanitizer transition hooks (``--check-invariants``); ``None``
        #: in normal runs, so the cost when off is one ``is None`` test per
        #: subjob transition.
        self.checker: Optional["InvariantChecker"] = None

    # -- queries ---------------------------------------------------------------

    @property
    def busy(self) -> bool:
        return self.current is not None

    @property
    def reserved(self) -> bool:
        """Control-plane reservation (repro.faults.net): set while a
        reliable dispatch is in flight to this node so no other
        scheduling decision double-books it; cleared on delivery or
        dead-letter.  Always ``False`` on a perfect network."""
        return self._reserved

    @reserved.setter
    def reserved(self, value: bool) -> None:
        self._reserved = value
        self._sync_idle()

    def current_source(self) -> Optional[DataSource]:
        """Data source of the in-flight chunk (None when idle)."""
        return self._plan.source if self._plan is not None else None

    # -- control ----------------------------------------------------------------

    def start(self, subjob: Subjob) -> None:
        """Begin or resume ``subjob`` on this node."""
        if self.busy:
            raise SchedulingError(
                f"node {self.node_id} is busy with {self.current!r}"
            )
        if self.failed:
            raise SchedulingError(
                f"node {self.node_id} is failed; cannot start {subjob.sid}"
            )
        if subjob.state not in (SubjobState.PENDING, SubjobState.SUSPENDED):
            raise SchedulingError(
                f"cannot start subjob {subjob.sid} in state {subjob.state}"
            )
        if subjob.remaining_events == 0:
            raise SchedulingError(f"subjob {subjob.sid} has no remaining work")
        if self.checker is not None:
            self.checker.on_subjob_start(self, subjob)
        if self.obs.enabled:
            now = self.engine.now
            kind = (
                kinds.SUBJOB_RESUME
                if subjob.state is SubjobState.SUSPENDED
                else kinds.SUBJOB_START
            )
            self.obs.emit(
                now,
                kind,
                "node",
                node=self.node_id,
                job=subjob.job.job_id,
                sid=subjob.sid,
                events=subjob.remaining_events,
            )
            self.obs.emit(now, kinds.NODE_BUSY, "node", node=self.node_id, sid=subjob.sid)
        subjob.state = SubjobState.RUNNING
        subjob.node = self
        self.current = subjob
        self._label = f"chunk:{subjob.sid}@{self.node_id}"
        self._sync_idle()
        subjob.job.mark_started(self.engine.now)
        self._begin_next_chunk()

    def preempt(self) -> Optional[Subjob]:
        """Suspend the running subjob between events.

        Returns the suspended subjob, or ``None`` if the node was idle or
        the subjob turned out to have just finished (its completion
        callback is then delivered through a zero-delay event).
        """
        subjob = self.current
        if subjob is None:
            return None
        plan = self._plan
        assert plan is not None
        self.engine.cancel(self._completion)
        elapsed = self.engine.now - self._started_at
        productive = max(0.0, elapsed - self._setup)
        events_done = int(productive / self._per_event + _EVENT_EPSILON)
        events_done = min(events_done, plan.interval.length)
        self._account_chunk(
            subjob,
            plan,
            plan.interval.take_left(events_done),
            events_done,
            events_done * self._per_event + min(elapsed, self._setup),
        )
        self._plan = None
        self._completion = None
        self.current = None
        self._sync_idle()
        self.stats.preemptions += 1
        if subjob.remaining_events == 0:
            # Preempted exactly at completion: it is in fact done.
            self._finish_subjob(subjob, deferred=True)
            return None
        if self.checker is not None:
            self.checker.on_subjob_suspend(self, subjob)
        subjob.state = SubjobState.SUSPENDED
        subjob.node = None
        if self.obs.enabled:
            now = self.engine.now
            self.obs.emit(
                now,
                kinds.SUBJOB_SUSPEND,
                "node",
                node=self.node_id,
                job=subjob.job.job_id,
                sid=subjob.sid,
                events=subjob.remaining_events,
            )
            self.obs.emit(now, kinds.NODE_IDLE, "node", node=self.node_id)
        return subjob

    # -- faults (repro.faults) ----------------------------------------------------

    def fail(self, wipe_cache: bool = False) -> Optional[Subjob]:
        """Crash the node: abort the running chunk, losing its progress.

        Unlike :meth:`preempt`, an abort credits *nothing* from the
        in-flight chunk — the whole events already computed in it are lost
        work (tracked in :attr:`NodeStats.lost_events` /
        :attr:`NodeStats.lost_seconds`).  Progress from previously
        completed chunks survives, so a retried subjob resumes from the
        last chunk boundary.  Returns the aborted subjob (SUSPENDED), or
        ``None`` if the node was not running one.
        """
        if self.failed:
            raise SchedulingError(f"node {self.node_id} is already failed")
        subjob = self.current
        aborted: Optional[Subjob] = None
        if subjob is not None:
            plan = self._plan
            assert plan is not None
            self.engine.cancel(self._completion)
            elapsed = self.engine.now - self._started_at
            productive = max(0.0, elapsed - self._setup)
            lost = int(productive / self._per_event + _EVENT_EPSILON)
            lost = min(lost, plan.interval.length)
            # Keep the planner's started/finished pairing, crediting no
            # events (contention trackers must see the stream end).
            self.planner.on_chunk_processed(self, plan, plan.interval.take_left(0))
            self.planner.on_chunk_finished(self, plan)
            self._plan = None
            self._completion = None
            self.current = None
            self.stats.subjobs_aborted += 1
            self.stats.lost_events += lost
            self.stats.lost_seconds += elapsed
            if self.checker is not None:
                self.checker.on_subjob_abort(self, subjob)
            subjob.state = SubjobState.SUSPENDED
            subjob.node = None
            aborted = subjob
        self.failed = True
        self._sync_idle()
        self._down_since = self.engine.now
        self.stats.failures += 1
        if wipe_cache:
            self.cache.clear()
        if self.checker is not None:
            self.checker.on_node_failed(self)
        if self.obs.enabled:
            now = self.engine.now
            if aborted is not None:
                self.obs.emit(
                    now,
                    kinds.SUBJOB_ABORT,
                    "node",
                    node=self.node_id,
                    job=aborted.job.job_id,
                    sid=aborted.sid,
                    events=aborted.remaining_events,
                )
            self.obs.emit(
                now,
                kinds.NODE_FAIL,
                "node",
                node=self.node_id,
                wiped=wipe_cache,
                aborted=aborted.sid if aborted is not None else "",
            )
            self.obs.emit(now, kinds.NODE_IDLE, "node", node=self.node_id)
        return aborted

    def recover(self) -> None:
        """Bring a failed node back up (idle, ready for work)."""
        if not self.failed:
            raise SchedulingError(f"node {self.node_id} is not failed")
        self.failed = False
        self._sync_idle()
        self.stats.downtime_seconds += self.engine.now - self._down_since
        if self.checker is not None:
            self.checker.on_node_recovered(self)
        if self.obs.enabled:
            self.obs.emit(
                self.engine.now, kinds.NODE_RECOVER, "node", node=self.node_id
            )

    def flush_downtime(self) -> None:
        """Fold any open downtime stretch into the stats (end of run)."""
        if self.failed:
            self.stats.downtime_seconds += self.engine.now - self._down_since
            self._down_since = self.engine.now

    # -- internals ----------------------------------------------------------------

    def _sync_idle(self) -> None:
        """Recompute :attr:`idle` after a transition; on a flip, insert or
        delete this node's id in the cluster's sorted idle index."""
        idle = self.current is None and not self.failed and not self._reserved
        if idle is self.idle:
            return
        self.idle = idle
        index = self.idle_index
        if index is None:
            return
        if idle:
            insort(index, self.node_id)
        else:
            del index[bisect_left(index, self.node_id)]

    def _begin_next_chunk(self) -> None:
        """Plan the next chunk of the running subjob and schedule its
        completion: one planner call and one calendar push."""
        subjob = self.current
        assert subjob is not None
        segment = subjob.segment
        start = segment.start + subjob.processed
        remaining = Interval(start, segment.end)
        assert start < segment.end
        plan = self.planner.plan_chunk(self, remaining, self.chunk_events)
        interval = plan.interval
        if interval.end <= start or interval.start != start:
            raise SchedulingError(
                f"planner returned bad chunk {interval} for {remaining}"
            )
        source = plan.source
        per_event, setup = self._costs[source]
        per_event = per_event * plan.rate_factor
        if source is DataSource.TERTIARY and self.tertiary_slowdown != 1.0:
            per_event *= self.tertiary_slowdown
        duration = setup + (interval.end - start) * per_event
        self.planner.on_chunk_started(self, plan)
        now = self.engine.now
        self._completion = self.engine.call_at(
            now + duration,
            self._on_chunk_complete,
            priority=_COMPLETION,
            label=self._label,
        )
        self._plan = plan
        self._per_event = per_event
        self._setup = setup
        self._started_at = now
        self.stats.chunks_started += 1

    def _on_chunk_complete(self) -> None:
        """Credit the whole planned interval of the finished chunk, then
        plan the next one or finish the subjob."""
        subjob = self.current
        plan = self._plan
        assert subjob is not None and plan is not None
        interval = plan.interval
        events = interval.end - interval.start
        self._account_chunk(
            subjob, plan, interval, events, events * self._per_event + self._setup
        )
        self._plan = None
        self._completion = None
        if interval.end == subjob.segment.end:
            self.current = None
            self._sync_idle()
            self._finish_subjob(subjob, deferred=False)
        else:
            self._begin_next_chunk()

    def _account_chunk(
        self,
        subjob: Subjob,
        plan: ChunkPlan,
        processed: Interval,
        events: int,
        seconds: float,
    ) -> None:
        """Credit ``processed`` — the first ``events`` whole events of the
        chunk — and the ``seconds`` of node time spent on it (setup
        latency included).  A completed chunk passes its whole planned
        interval; a preempted one its ``take_left`` prefix."""
        planner = self.planner
        planner.on_chunk_processed(self, plan, processed)
        planner.on_chunk_finished(self, plan)
        subjob.advance(events)
        stats = self.stats
        stats.busy_seconds += seconds
        stats.events_processed += events
        stats.events_by_source[plan.source] += events
        if self.obs.enabled and events > 0:
            self.obs.emit(
                self.engine.now,
                kinds.CHUNK_DONE,
                "node",
                node=self.node_id,
                job=subjob.job.job_id,
                sid=subjob.sid,
                src=plan.source.value,
                events=events,
                duration=seconds,
            )

    def _finish_subjob(self, subjob: Subjob, deferred: bool) -> None:
        if self.checker is not None:
            self.checker.on_subjob_finish(self, subjob)
        subjob.state = SubjobState.DONE
        subjob.node = None
        self.stats.subjobs_completed += 1
        if self.obs.enabled:
            now = self.engine.now
            self.obs.emit(
                now,
                kinds.SUBJOB_END,
                "node",
                node=self.node_id,
                job=subjob.job.job_id,
                sid=subjob.sid,
            )
            self.obs.emit(now, kinds.NODE_IDLE, "node", node=self.node_id)
        if self.on_subjob_complete is None:
            return
        if deferred:
            # Notify through the calendar so the preempting scheduler's
            # handler finishes before the completion handler runs.
            self.engine.call_after(
                0.0,
                self.on_subjob_complete,
                self,
                subjob,
                priority=EventPriority.COMPLETION,
                label=f"done:{subjob.sid}",
            )
        else:
            self.on_subjob_complete(self, subjob)

    def __repr__(self) -> str:
        state = f"running {self.current.sid}" if self.current else "idle"
        return f"Node(#{self.node_id}, {state}, cache={self.cache.used_events}ev)"
