"""Processing nodes: single-CPU executors with chunked, preemptible
subjob execution.

A node runs at most one subjob at a time (§2.4: "we only run a single job
or subjob per processor at any given time").  Execution is *chunked*: the
node asks its :class:`~repro.cluster.access.DataAccessPlanner` for the next
uniform-rate run of events and schedules one engine event at its
completion time, re-arming that same event for every further run, across
subjobs, until a preemption or a crash cancels it.

A run is at most ``chunk_events`` long for every planner but the farm's,
whose :class:`~repro.cluster.access.WholeSegmentPlanner` plans the whole
remaining segment at once.  The node times any longer run as
``ceil(len / chunk_events)`` sub-chunks, each paying the setup latency,
with the same float recurrence as one engine event per chunk, so the run's
end time is the same to the last bit; it arms one event at that end and
credits the sub-chunks lazily.  :meth:`Node.settle` credits, in order,
every sub-chunk ended by now: at the run's completion, before a crash or a
preemption, at the horizon, and when a tertiary stall changes the rate
(the run is then cut back to its in-flight sub-chunk and the rest planned
at the new rate when it ends, the rate being snapshotted at plan time).
Simultaneous completions run in the order their events were armed, which
one event per chunk would set at each chunk end, so a run stays lazy only
while no other run ends a chunk at any of its chunk ends; the nodes share
an index of those times to check (:meth:`Node._break_ties`).

Preemption between events is exact: an interrupted chunk credits the
whole events finished so far and re-queues the rest (the in-flight
fractional event is re-processed later, matching the paper's event-atomic
processing).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.sanitizer import InvariantChecker

from ..core.engine import Engine
from ..core.errors import SchedulingError
from ..core.events import EventPriority, ScheduledEvent
from ..data.cache import LRUSegmentCache
from ..obs.hooks import NULL_BUS, HookBus, kinds
from ..workload.jobs import Subjob, SubjobState
from .access import ChunkPlan, DataAccessPlanner, WholeSegmentPlanner
from .costmodel import CostModel, DataSource

#: Tolerance for float round-off when counting whole events in an elapsed
#: chunk time (an event is counted as done if at least 1 - 1e-9 of it ran).
_EVENT_EPSILON = 1e-9

#: Calendar priority of chunk completions, as the plain int the engine
#: keys its heap on.
_COMPLETION = int(EventPriority.COMPLETION)

_TERTIARY = DataSource.TERTIARY


def _chunk_ends(
    time: float, start: int, end: int, step: int, per_event: float, setup: float
) -> List[float]:
    """End times of the sub-chunks of the run ``[start, end)`` begun at
    ``time``, each at most ``step`` events long and paying ``setup``: the
    float recurrence of one completion event per chunk, whose next chunk
    starts at the previous one's end."""
    ends = []
    while start < end:
        events = end - start if end - start < step else step
        time = time + (setup + events * per_event)
        ends.append(time)
        start += events
    return ends


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
        #: The in-flight run, kept in plain attributes rather than a
        #: record per run: its plan (``None`` when idle), per-event time,
        #: setup latency, start time and completion event.  For a run of
        #: several sub-chunks, :meth:`settle` narrows the plan to its
        #: unsettled part and moves the start time to that part's first
        #: sub-chunk, so the pair always describes what is still in
        #: flight.  The event is
        #: built by the first chunk after construction, a preemption or a
        #: crash, and re-armed for every further chunk: of the subjob, and
        #: of the subjobs started after it ends.  While the node is idle
        #: it holds the fired event, neither queued nor cancelled;
        #: preemption and a crash cancel and drop it.
        self._plan: Optional[ChunkPlan] = None
        self._per_event = 0.0
        self._setup = 0.0
        self._started_at = 0.0
        self._completion: Optional[ScheduledEvent] = None
        #: The chunk-end times of every live run on the planner's nodes,
        #: shared through a :class:`WholeSegmentPlanner` (``None`` with
        #: any other planner, whose runs are single chunks): the time
        #: maps to the one run ending a chunk then, or to how many runs
        #: do when several do.  See :meth:`_break_ties`.
        self._ends: Optional[Dict[float, Union["Node", int]]] = (
            planner.ends if isinstance(planner, WholeSegmentPlanner) else None
        )
        #: Calendar label of the running subjob's chunk completions, built
        #: once per :meth:`start` (and written onto the kept event).
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
        #: the contention planner's rate_factor approximation).  Read-only:
        #: :meth:`set_tertiary_slowdown` changes it.
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

    def current_plan(self) -> Optional[ChunkPlan]:
        """Plan of the in-flight chunk (None when idle)."""
        return self._plan

    def completion_event(self) -> Optional[ScheduledEvent]:
        """The node's chunk-completion event: queued while a subjob runs,
        kept fired while idle, ``None`` before the first chunk and after
        a preemption or crash (sanitizer checks)."""
        return self._completion

    # -- control ----------------------------------------------------------------

    def start(self, subjob: Subjob) -> None:
        """Begin or resume ``subjob`` on this node."""
        if self.current is not None:
            raise SchedulingError(
                f"node {self.node_id} is busy with {self.current!r}"
            )
        if self.failed:
            raise SchedulingError(
                f"node {self.node_id} is failed; cannot start {subjob.sid}"
            )
        state = subjob.state
        if state is not SubjobState.PENDING and state is not SubjobState.SUSPENDED:
            raise SchedulingError(
                f"cannot start subjob {subjob.sid} in state {state}"
            )
        segment = subjob.segment
        remaining = segment.end - segment.start - subjob.processed
        if remaining == 0:
            raise SchedulingError(f"subjob {subjob.sid} has no remaining work")
        if self.checker is not None:
            self.checker.on_subjob_start(self, subjob)
        now = self.engine.now
        if self.obs.enabled:
            kind = (
                kinds.SUBJOB_RESUME
                if state is SubjobState.SUSPENDED
                else kinds.SUBJOB_START
            )
            self.obs.emit(
                now,
                kind,
                "node",
                node=self.node_id,
                job=subjob.job.job_id,
                sid=subjob.sid,
                events=remaining,
            )
            self.obs.emit(now, kinds.NODE_BUSY, "node", node=self.node_id, sid=subjob.sid)
        subjob.state = SubjobState.RUNNING
        subjob.node = self
        self.current = subjob
        label = self._label = f"chunk:{subjob.sid}@{self.node_id}"
        if self._completion is not None:
            # The event kept from the previous subjob: re-armed for this
            # subjob's first chunk, under this subjob's label.
            self._completion.label = label
        self._sync_idle()
        subjob.job.mark_started(now)
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
        self.settle()
        plan = self._plan
        assert plan is not None
        self.engine.cancel(self._completion)
        elapsed = self.engine.now - self._started_at
        productive = max(0.0, elapsed - self._setup)
        events_done = int(productive / self._per_event + _EVENT_EPSILON)
        events_done = min(events_done, plan.end - plan.start, self.chunk_events)
        self._account_chunk(
            subjob,
            plan,
            plan.start + events_done,
            events_done,
            events_done * self._per_event + min(elapsed, self._setup),
        )
        self._release(self._started_at, plan.start, plan.end)
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
        completed chunks (and sub-chunks, which :meth:`settle` credits
        first) survives, so a retried subjob resumes from the last chunk
        boundary.  Returns the aborted subjob (SUSPENDED), or
        ``None`` if the node was not running one.
        """
        if self.failed:
            raise SchedulingError(f"node {self.node_id} is already failed")
        subjob = self.current
        aborted: Optional[Subjob] = None
        if subjob is not None:
            # Sub-chunks that ended by now are done; only the in-flight
            # one is lost.
            self.settle()
            plan = self._plan
            assert plan is not None
            self.engine.cancel(self._completion)
            elapsed = self.engine.now - self._started_at
            productive = max(0.0, elapsed - self._setup)
            lost = int(productive / self._per_event + _EVENT_EPSILON)
            lost = min(lost, plan.end - plan.start, self.chunk_events)
            # Account the chunk with an empty prefix: nothing is credited,
            # but the planner releases the streams its plan counted.
            self.planner.on_chunk_processed(self, plan, plan.start)
            self._release(self._started_at, plan.start, plan.end)
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

    # -- lazily credited runs ------------------------------------------------------

    def settle(self) -> None:
        """Credit, in order, every sub-chunk of the running run that has
        ended by now.

        Only a run longer than ``chunk_events`` has sub-chunks to settle;
        a single chunk is credited by its completion event (or by
        :meth:`preempt`).  Each sub-chunk adds its own busy seconds, so
        the float sum is the one per-chunk crediting makes; the events
        are credited to the subjob, the job and the tape in one step.  A
        traced node never arms such a run (:meth:`_begin_next_chunk`), so
        its records keep time order.
        """
        plan = self._plan
        if plan is None:
            return
        start = plan.start
        end = plan.end
        step = self.chunk_events
        if end - start <= step:
            return
        now = self.engine.now
        per_event = self._per_event
        setup = self._setup
        began = time = self._started_at
        if time + (setup + step * per_event) > now:
            return
        subjob = self.current
        planner = self.planner
        assert subjob is not None and isinstance(planner, WholeSegmentPlanner)
        stats = self.stats
        busy = stats.busy_seconds
        position = start
        chunks = 0
        while position < end:
            events = end - position if end - position < step else step
            finish = time + (setup + events * per_event)
            if finish > now:
                break
            busy += events * per_event + setup
            position += events
            time = finish
            chunks += 1
        planner.on_chunks_processed(self, start, position, chunks, now)
        self._release(began, start, position)
        events = position - start
        stats.busy_seconds = busy
        subjob.processed += events
        subjob.job.note_progress(events)
        stats.events_processed += events
        stats.events_by_source[plan.source] += events
        # Each credited sub-chunk but the run's last had a successor start
        # the moment it ended.
        stats.chunks_started += chunks if position < end else chunks - 1
        plan.start = position
        self._started_at = time

    def chunk_ends(self) -> List[float]:
        """End times of the in-flight run's unsettled (sub-)chunks, in
        order, recomputed with the recurrence the completion event was
        armed by (empty when idle): the sanitizer checks the last one is
        the event's time to the bit."""
        plan = self._plan
        if plan is None:
            return []
        return _chunk_ends(
            self._started_at,
            plan.start,
            plan.end,
            self.chunk_events,
            self._per_event,
            self._setup,
        )

    def set_tertiary_slowdown(self, factor: float) -> None:
        """Change the per-event multiplier of tertiary chunks (a tertiary
        stall starting or ending).

        A chunk keeps the rate it was planned at.  A run of several
        sub-chunks is therefore cut back to its in-flight sub-chunk and
        plans the rest at the new rate when that sub-chunk ends, exactly
        where a chunk-at-a-time run would plan its next chunk.
        """
        if factor == self.tertiary_slowdown:
            return
        self.tertiary_slowdown = factor
        self._cut_back()

    def _cut_back(self) -> None:
        """Settle a run of several sub-chunks and cut it back to its
        in-flight sub-chunk, re-arming the completion event at that
        sub-chunk's end (a no-op for a run of one chunk)."""
        plan = self._plan
        step = self.chunk_events
        if plan is None or plan.end - plan.start <= step:
            return
        self.settle()
        if plan.end - plan.start <= step:
            return
        finish = self._started_at + (self._setup + step * self._per_event)
        self._release(finish, plan.start + step, plan.end)
        plan.end = plan.start + step
        engine = self.engine
        engine.cancel(self._completion)
        self._completion = engine.call_at(
            finish,
            self._on_chunk_complete,
            priority=_COMPLETION,
            label=self._label,
        )

    def _claim(self, marks: List[float]) -> None:
        """Enter a run's chunk-end times in the shared end index."""
        ends = self._ends
        assert ends is not None
        for time in marks:
            held = ends.get(time)
            if held is None:
                ends[time] = self
            elif isinstance(held, int):
                ends[time] = held + 1
            else:
                ends[time] = 2

    def _release(self, time: float, start: int, end: int) -> None:
        """Remove from the shared end index the ends of the sub-chunks
        tiling ``[start, end)`` from ``time`` on (a no-op without one)."""
        ends = self._ends
        if ends is None:
            return
        step = self.chunk_events
        for finish in _chunk_ends(time, start, end, step, self._per_event, self._setup):
            held = ends[finish]
            if held is self or held == 1:
                del ends[finish]
            else:
                assert isinstance(held, int)
                ends[finish] = held - 1

    def _break_ties(self, marks: List[float]) -> bool:
        """Whether a chunk end of a run about to be armed at ``marks``
        coincides with one already in the shared end index; every run
        holding such a time as a sub-chunk end is cut back first.

        Simultaneous completions run in calendar order, which one event
        per chunk sets by when each chunk was armed.  A run of several
        sub-chunks arms nothing at its inner chunk ends, so it stays one
        only while no other run ends a chunk at the same instant: then
        the order that the per-chunk events would have taken is the one
        the remaining events take.
        """
        ends = self._ends
        assert ends is not None
        tied = False
        for time in marks:
            held = ends.get(time)
            if held is None:
                continue
            tied = True
            if isinstance(held, Node):
                held._cut_back()
        return tied

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
        """Plan the next run of the running subjob and schedule its
        completion: one planner call and one calendar push, re-arming the
        node's fired completion event when it has one.  A run longer than
        ``chunk_events`` (whole-segment plans only) is timed as
        sub-chunks, the recurrence of one event per chunk written out.  A
        traced node runs such a plan one chunk at a time instead, as it
        does a tied one, so each chunk's records are made when it ends."""
        subjob = self.current
        assert subjob is not None
        segment = subjob.segment
        start = segment.start + subjob.processed
        end = segment.end
        assert start < end
        step = self.chunk_events
        plan = self.planner.plan_chunk(self, start, end, step)
        chunk_end = plan.end
        if plan.start != start or not start < chunk_end <= end:
            raise SchedulingError(
                f"planner returned bad chunk [{plan.start}, {chunk_end}) "
                f"for the remaining events [{start}, {end})"
            )
        source = plan.source
        per_event, setup = self._costs[source]
        per_event = per_event * plan.rate_factor
        if source is _TERTIARY and self.tertiary_slowdown != 1.0:
            per_event *= self.tertiary_slowdown
        engine = self.engine
        now = engine.now
        if chunk_end - start <= step:
            finish = now + (setup + (chunk_end - start) * per_event)
            if self._ends is not None:
                marks = [finish]
                self._break_ties(marks)
                self._claim(marks)
        else:
            if self._ends is None:
                raise SchedulingError(
                    f"planner returned chunk [{start}, {chunk_end}) longer "
                    f"than {step} events; only a whole-segment planner may"
                )
            marks = _chunk_ends(now, start, chunk_end, step, per_event, setup)
            if self.obs.enabled or self._break_ties(marks):
                # Run one chunk now and plan again at its end.
                plan.end = start + step
                del marks[1:]
            self._claim(marks)
            finish = marks[-1]
        event = self._completion
        if event is None:
            self._completion = engine.call_at(
                finish,
                self._on_chunk_complete,
                priority=_COMPLETION,
                label=self._label,
            )
        else:
            engine.rearm(event, finish)
        self._plan = plan
        self._per_event = per_event
        self._setup = setup
        self._started_at = now
        self.stats.chunks_started += 1

    def _on_chunk_complete(self) -> None:
        """Credit the whole planned range of the finished run, then plan
        the next one (re-arming this event) or finish the subjob.

        A run of sub-chunks is credited by :meth:`settle`.  A single
        chunk's crediting is :meth:`_account_chunk` and
        :meth:`Subjob.advance` written out: this runs once per chunk."""
        subjob = self.current
        plan = self._plan
        assert subjob is not None and plan is not None
        end = plan.end
        segment = subjob.segment
        if end - plan.start > self.chunk_events:
            self.settle()
        else:
            events = end - plan.start
            seconds = events * self._per_event + self._setup
            self.planner.on_chunk_processed(self, plan, end)
            processed = subjob.processed + events
            if processed > segment.end - segment.start:
                raise SchedulingError(
                    f"subjob {subjob.sid} progressed past its segment"
                )
            subjob.processed = processed
            subjob.job.note_progress(events)
            stats = self.stats
            stats.busy_seconds += seconds
            stats.events_processed += events
            stats.events_by_source[plan.source] += events
            if self.obs.enabled:
                self._emit_chunk_done(
                    subjob, plan.source, events, seconds, self.engine.now
                )
        if self._ends is not None:
            self._release(self._started_at, plan.start, end)
        self._plan = None
        if end == segment.end:
            self.current = None
            self._sync_idle()
            self._finish_subjob(subjob, deferred=False)
        else:
            self._begin_next_chunk()

    def _account_chunk(
        self,
        subjob: Subjob,
        plan: ChunkPlan,
        end: int,
        events: int,
        seconds: float,
    ) -> None:
        """Credit ``[plan.start, end)`` — the first ``events`` whole events
        of the chunk — and the ``seconds`` of node time spent on it (setup
        latency included).  A completed chunk passes its planned end; a
        preempted one ``plan.start + events``."""
        self.planner.on_chunk_processed(self, plan, end)
        subjob.advance(events)
        stats = self.stats
        stats.busy_seconds += seconds
        stats.events_processed += events
        stats.events_by_source[plan.source] += events
        if self.obs.enabled and events > 0:
            self._emit_chunk_done(
                subjob, plan.source, events, seconds, self.engine.now
            )

    def _emit_chunk_done(
        self,
        subjob: Subjob,
        source: DataSource,
        events: int,
        seconds: float,
        time: float,
    ) -> None:
        # Guarded at every call site with `if self.obs.enabled`, so the
        # untraced chunk path makes no call here.
        self.obs.emit(  # simlint: disable=SIM004
            time,
            kinds.CHUNK_DONE,
            "node",
            node=self.node_id,
            job=subjob.job.job_id,
            sid=subjob.sid,
            src=source.value,
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
