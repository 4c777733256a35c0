"""Jobs, subjobs and meta-subjobs: the units of scheduled work.

A **job** is one physicist's analysis request: a contiguous segment of
collision events.  Policies split jobs into **subjobs** (contiguous
sub-segments processed left to right, preemptible between events) and the
delayed policy aggregates uncached subjobs over a common stripe into
**meta-subjobs** so the stripe is streamed from tertiary storage once.

State machines::

    Job:    PENDING ──start──▶ ACTIVE ──last subjob done──▶ DONE
    Subjob: PENDING ──▶ RUNNING ◀──▶ SUSPENDED ──▶ DONE

Invariants (checked by :meth:`Job.check_invariants`):

* subjob segments tile the job segment exactly (no gaps, no overlaps);
* ``job.events_done`` equals the sum of subjob progress;
* a DONE job has every subjob DONE and ``events_done == n_events``.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple

from ..core.errors import SchedulingError
from ..data.intervals import Interval

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.node import Node


class JobState(enum.Enum):
    PENDING = "pending"  # arrived, no event processed yet
    ACTIVE = "active"  # at least one event processed
    DONE = "done"


class SubjobState(enum.Enum):
    PENDING = "pending"  # never run
    RUNNING = "running"  # executing on a node
    SUSPENDED = "suspended"  # preempted, will resume later
    DONE = "done"


@dataclass(frozen=True, slots=True)
class JobRequest:
    """An immutable workload-trace entry."""

    job_id: int
    arrival_time: float
    start_event: int
    n_events: int

    @property
    def segment(self) -> Interval:
        return Interval(self.start_event, self.start_event + self.n_events)


class Job:
    """A running analysis job and its lifecycle timestamps."""

    __slots__ = (
        "request",
        "job_id",
        "arrival_time",
        "segment",
        "n_events",
        "schedule_time",
        "first_start",
        "completion",
        "events_done",
        "state",
        "subjobs",
        "_next_subjob_seq",
    )

    _ids = itertools.count()

    def __init__(self, request: JobRequest) -> None:
        self.request = request
        self.job_id = request.job_id
        self.arrival_time = request.arrival_time
        self.segment = request.segment
        self.n_events = request.n_events
        #: When the scheduler dispatched the job (for delayed policies this
        #: is the period boundary; otherwise it equals ``arrival_time``).
        self.schedule_time: float = request.arrival_time
        self.first_start: Optional[float] = None
        self.completion: Optional[float] = None
        self.events_done: int = 0
        self.state = JobState.PENDING
        self.subjobs: List[Subjob] = []
        self._next_subjob_seq = itertools.count()

    # -- structure -----------------------------------------------------------

    def make_root_subjob(self) -> "Subjob":
        """Create the single subjob covering the whole job.

        Must be called exactly once, before any splitting.
        """
        if self.subjobs:
            raise SchedulingError(f"job {self.job_id} already has subjobs")
        subjob = Subjob(self, self.segment)
        self.subjobs.append(subjob)
        return subjob

    def make_subjobs(self, segments: List[Interval]) -> List["Subjob"]:
        """Create subjobs tiling the job from a partition of its segment."""
        if self.subjobs:
            raise SchedulingError(f"job {self.job_id} already has subjobs")
        total = sum(s.length for s in segments)
        if total != self.n_events:
            raise SchedulingError(
                f"segments cover {total} events, job has {self.n_events}"
            )
        self.subjobs = [Subjob(self, seg) for seg in sorted(segments)]
        return list(self.subjobs)

    def new_subjob_seq(self) -> int:
        return next(self._next_subjob_seq)

    # -- progress ------------------------------------------------------------

    def mark_started(self, now: float) -> None:
        if self.first_start is None:
            self.first_start = now
            self.state = JobState.ACTIVE

    def note_progress(self, events: int) -> None:
        self.events_done += events
        if self.events_done > self.n_events:
            raise SchedulingError(
                f"job {self.job_id} progressed past its size "
                f"({self.events_done}/{self.n_events})"
            )

    @property
    def remaining_events(self) -> int:
        return self.n_events - self.events_done

    @property
    def done(self) -> bool:
        return self.state is JobState.DONE

    def maybe_complete(self, now: float) -> bool:
        """Transition to DONE when all work is finished; returns True on
        the transition."""
        if self.state is JobState.DONE:
            return False
        if self.events_done == self.n_events and all(
            s.state is SubjobState.DONE for s in self.subjobs
        ):
            self.state = JobState.DONE
            self.completion = now
            return True
        return False

    # -- queries used by policies -------------------------------------------

    def running_subjobs(self) -> List["Subjob"]:
        return [s for s in self.subjobs if s.state is SubjobState.RUNNING]

    def suspended_subjobs(self) -> List["Subjob"]:
        return [s for s in self.subjobs if s.state is SubjobState.SUSPENDED]

    def pending_subjobs(self) -> List["Subjob"]:
        return [s for s in self.subjobs if s.state is SubjobState.PENDING]

    def nodes_held(self) -> int:
        """Number of nodes currently executing this job's subjobs."""
        return len(self.running_subjobs())

    # -- timing --------------------------------------------------------------

    @property
    def waiting_time(self) -> Optional[float]:
        """Submission → first processed event (paper's waiting time)."""
        if self.first_start is None:
            return None
        return self.first_start - self.arrival_time

    @property
    def waiting_time_excl_delay(self) -> Optional[float]:
        """Waiting time with the period delay subtracted (Figs 5/6)."""
        if self.first_start is None:
            return None
        return self.first_start - self.schedule_time

    @property
    def processing_time(self) -> Optional[float]:
        """First processed event → last processed event, including any
        suspended stretches (paper's processing time)."""
        if self.first_start is None or self.completion is None:
            return None
        return self.completion - self.first_start

    # -- invariants ------------------------------------------------------------

    def check_invariants(self) -> None:
        segments = sorted((s.segment for s in self.subjobs))
        cursor = self.segment.start
        for seg in segments:
            if seg.start != cursor:
                raise SchedulingError(
                    f"job {self.job_id}: subjobs do not tile the segment "
                    f"(gap/overlap at {cursor} vs {seg})"
                )
            cursor = seg.end
        if segments and cursor != self.segment.end:
            raise SchedulingError(
                f"job {self.job_id}: subjobs stop at {cursor}, "
                f"segment ends at {self.segment.end}"
            )
        progressed = sum(s.processed for s in self.subjobs)
        if progressed != self.events_done:
            raise SchedulingError(
                f"job {self.job_id}: subjob progress {progressed} != "
                f"events_done {self.events_done}"
            )

    def __repr__(self) -> str:
        return (
            f"Job(#{self.job_id}, {self.segment}, {self.state.value}, "
            f"{self.events_done}/{self.n_events})"
        )


class Subjob:
    """A contiguous sub-segment of one job, processed left to right."""

    __slots__ = (
        "job",
        "seq",
        "sid",
        "segment",
        "processed",
        "state",
        "node",
        "steal_preemptible",
        "origin",
    )

    def __init__(self, job: Job, segment: Interval) -> None:
        if segment.empty:
            raise SchedulingError(f"empty subjob segment {segment}")
        self.job = job
        self.seq = job.new_subjob_seq()
        #: Stable display id; precomputed (job id and seq never change) so
        #: hot-path event labels avoid an f-string per chunk.
        self.sid = f"{job.job_id}.{self.seq}"
        self.segment = segment
        self.processed = 0
        self.state = SubjobState.PENDING
        self.node: Optional["Node"] = None
        #: Set on work-stealing copies: a cached subjob may preempt this one
        #: (Table 3, last bullet of "whenever nodes become available").
        self.steal_preemptible = False
        #: Where a preempted subjob should be put back: ``("nocache",)``,
        #: ``("node", node_id)`` or ``None`` (policy-specific bookkeeping).
        self.origin: Optional[Tuple] = None

    # -- geometry -------------------------------------------------------------

    @property
    def remaining(self) -> Interval:
        """The yet-unprocessed right part of the segment."""
        return Interval(self.segment.start + self.processed, self.segment.end)

    @property
    def remaining_events(self) -> int:
        segment = self.segment
        return segment.end - segment.start - self.processed

    @property
    def done(self) -> bool:
        return self.state is SubjobState.DONE

    # -- progress -------------------------------------------------------------

    def advance(self, events: int) -> None:
        """Record ``events`` more processed events (left to right)."""
        if events < 0:
            raise SchedulingError(f"negative progress {events}")
        segment = self.segment
        if self.processed + events > segment.end - segment.start:
            raise SchedulingError(
                f"subjob {self.sid} progressed past its segment"
            )
        self.processed += events
        self.job.note_progress(events)

    # -- splitting -----------------------------------------------------------

    def split_remaining_at(self, point: int) -> "Subjob":
        """Split the unprocessed part at ``point``; self keeps the left
        piece, the returned new subjob owns ``[point, end)``.

        The subjob must not be RUNNING (preempt it first: the in-flight
        chunk would otherwise straddle the cut).
        """
        if self.state is SubjobState.RUNNING:
            raise SchedulingError(f"cannot split running subjob {self.sid}")
        if self.state is SubjobState.DONE:
            raise SchedulingError(f"cannot split finished subjob {self.sid}")
        remaining = self.remaining
        if not (remaining.start < point < remaining.end):
            raise SchedulingError(
                f"split point {point} not inside remaining {remaining}"
            )
        right = Subjob(self.job, Interval(point, self.segment.end))
        self.segment = Interval(self.segment.start, point)
        self.job.subjobs.append(right)
        return right

    def split_remaining_even(self, parts: int, min_events: int) -> List["Subjob"]:
        """Split the unprocessed part into up to ``parts`` near-equal
        pieces of at least ``min_events``; returns all pieces (self first,
        resized to the leftmost)."""
        pieces = self.remaining.split_even(parts, min_events)
        result = [self]
        current = self
        for piece in pieces[1:]:
            current = current.split_remaining_at(piece.start)
            result.append(current)
        return result

    def __repr__(self) -> str:
        return (
            f"Subjob({self.sid}, {self.segment}, {self.state.value}, "
            f"done={self.processed})"
        )


@dataclass
class MetaSubjob:
    """Uncached subjobs of several jobs sharing one data stripe.

    The first member streamed on a node loads the stripe from tertiary
    storage into the node's cache; later members then hit the cache —
    the stripe crosses the tape robot once per period (Table 4).
    """

    stripe: Interval
    members: List[Subjob] = field(default_factory=list)

    @property
    def arrival_time(self) -> float:
        """Earliest member arrival (Table 4's fairness key)."""
        if not self.members:
            raise SchedulingError("empty meta-subjob")
        return min(s.job.arrival_time for s in self.members)

    @property
    def total_events(self) -> int:
        return sum(s.remaining_events for s in self.members)

    def add(self, subjob: Subjob) -> None:
        if not self.stripe.overlaps(subjob.segment):
            raise SchedulingError(
                f"subjob {subjob.sid} {subjob.segment} outside stripe {self.stripe}"
            )
        # Minimal-subjob-size merging can nudge a member slightly past a
        # stripe boundary; widen the stripe to keep the invariant
        # "members ⊆ stripe" (the overhang is < min_subjob_events).
        self.stripe = self.stripe.hull(subjob.segment)
        self.members.append(subjob)

    def __repr__(self) -> str:
        return f"MetaSubjob({self.stripe}, members={len(self.members)})"
