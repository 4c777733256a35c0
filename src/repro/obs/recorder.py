"""In-memory trace recorder: ring buffer, counters, spans and time-series.

:class:`TraceRecorder` is the standard :class:`~repro.obs.hooks.TraceSink`.
It keeps

* a bounded buffer of raw :class:`~repro.obs.hooks.TraceEvent` s (ring by
  default — the newest ``capacity`` events survive; ``keep="first"``
  retains the head of the run instead, which is what the CLI's
  ``--limit-events`` safety cap uses);
* running **counters** keyed by hook kind (occurrences, and summed
  ``events`` payloads), read through the :data:`COUNTERS` table;
* **counter time-series** sampled on event boundaries whenever simulated
  time has advanced by ``sample_interval`` since the last sample;
* per-node **busy spans** (one per subjob residency on a node) and
  chunk-level **slices** tagged with their data source — the inputs of the
  Chrome-trace and ASCII-timeline exporters.

Everything is derived purely from the event stream, so the recorder's
aggregates can be cross-checked against :class:`SimulationResult` (see
``tests/test_obs.py``).
"""

from __future__ import annotations

import csv
import math
from collections import Counter, deque
from dataclasses import dataclass, fields
from typing import Any, ClassVar, Deque, Dict, List, Optional, Set, Tuple

from .hooks import TraceEvent, TraceSink, kinds


@dataclass(slots=True)
class Span:
    """One subjob residency on one node (start/resume → suspend/end)."""

    node: int
    job: int
    sid: str
    start: float
    end: float


@dataclass(slots=True)
class ChunkSlice:
    """One processed chunk: where its data came from and when it ran."""

    node: int
    source: str  # DataSource value: "cache" | "tertiary" | "remote"
    start: float
    end: float
    events: int


#: The recorder's counters in :meth:`TraceRecorder.summary` order: each
#: summary key maps to the hook kind it counts and what it counts —
#: ``"n"`` the occurrences of that kind, ``"events"`` the sum of their
#: ``events`` payloads.  Adding a counter is one row here.
#:
#: ``grants`` counts landed ``TASK_GRANT`` batches (one per node per
#: arbitration round, once it reaches a live node), whereas
#: :attr:`~repro.sched.stats.SchedulerStats.grants` counts the tasks
#: granted at arbitration, so the recorder's figure is the smaller.
COUNTERS: Dict[str, Tuple[str, str]] = {
    "jobs_arrived": (kinds.JOB_ARRIVAL, "n"),
    "jobs_completed": (kinds.JOB_END, "n"),
    "jobs_scheduled": (kinds.JOB_SCHEDULE, "n"),
    "jobs_promoted": (kinds.JOB_PROMOTE, "n"),
    "subjobs_started": (kinds.SUBJOB_START, "n"),
    "subjobs_completed": (kinds.SUBJOB_END, "n"),
    "subjob_splits": (kinds.SUBJOB_SPLIT, "n"),
    "steals": (kinds.SUBJOB_STEAL, "n"),
    "preemptions": (kinds.SUBJOB_PREEMPT, "n"),
    "cache_hit_events": (kinds.CACHE_HIT, "events"),
    "cache_miss_events": (kinds.CACHE_MISS, "events"),
    "evicted_events": (kinds.CACHE_EVICT, "events"),
    "tape_events": (kinds.TAPE_READ, "events"),
    "tape_requests": (kinds.TAPE_READ, "n"),
    "remote_events": (kinds.REMOTE_READ, "events"),
    "tier_hit_events": (kinds.TIER_HIT, "events"),
    "tier_miss_events": (kinds.TIER_MISS, "events"),
    "tier_evicted_events": (kinds.TIER_EVICT, "events"),
    "tier_replicated_events": (kinds.TIER_REPLICATE, "events"),
    "link_saturations": (kinds.LINK_SATURATED, "n"),
    "periods": (kinds.SCHED_PERIOD, "n"),
    "meta_subjobs": (kinds.SCHED_META, "n"),
    "rules_published": (kinds.RULE_PUBLISH, "n"),
    "bid_rounds": (kinds.BID_ROUND, "n"),
    "grants": (kinds.TASK_GRANT, "n"),
    "net_drops": (kinds.NET_DROP, "n"),
    "net_delivered": (kinds.NET_DELIVER, "n"),
    "net_duplicates": (kinds.NET_DUP, "n"),
    "net_retransmits": (kinds.NET_RETRANSMIT, "n"),
    "net_timeouts": (kinds.NET_TIMEOUT, "n"),
    "net_dead_letters": (kinds.NET_DEAD_LETTER, "n"),
    "net_failovers": (kinds.NET_FAILOVER, "n"),
}

#: Kinds whose ``events`` payload is summed.
_SUMMED_KINDS = frozenset(kind for kind, what in COUNTERS.values() if what == "events")


@dataclass(slots=True)
class CounterSample:
    """One row of the counter time-series."""

    time: float
    jobs_in_system: int
    busy_nodes: int
    cache_hit_events: int
    cache_miss_events: int
    tape_events: int
    tape_requests: int
    evicted_events: int
    steals: int
    hit_ratio: float

    #: Column names, in field order (set below from the dataclass).
    FIELDS: ClassVar[Tuple[str, ...]] = ()

    def row(self) -> List[Any]:
        return [getattr(self, name) for name in CounterSample.FIELDS]


CounterSample.FIELDS = tuple(f.name for f in fields(CounterSample))

#: The sampled columns that are table counters.
_SAMPLED_COUNTERS = tuple(name for name in CounterSample.FIELDS if name in COUNTERS)


class TraceRecorder(TraceSink):
    """Accumulates a traced run in memory.

    ``capacity`` bounds the raw-event buffer (counters and samples keep
    accumulating past it).  ``keep`` selects which end of the run the
    buffer retains once full: ``"last"`` (ring buffer, default) or
    ``"first"`` (head of the run, then drop).

    ``max_spans`` / ``max_slices`` bound the derived span and chunk-slice
    lists the same way the ``keep="first"`` buffer is bounded: the head
    of the run is retained, later entries are counted in
    ``spans_dropped`` / ``slices_dropped`` instead of stored.  The
    defaults are far above anything a paper-scale trace produces; they
    exist so a million-job traced run degrades to truncated timelines
    instead of unbounded memory.  The counter time-series is already
    bounded by construction — O(duration / sample_interval), independent
    of job count — so it carries no cap.
    """

    #: Default ceilings for the derived per-subjob structures.
    DEFAULT_MAX_SPANS = 500_000
    DEFAULT_MAX_SLICES = 1_000_000

    def __init__(
        self,
        capacity: int = 200_000,
        sample_interval: float = 3600.0,
        keep: str = "last",
        max_spans: int = DEFAULT_MAX_SPANS,
        max_slices: int = DEFAULT_MAX_SLICES,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if sample_interval < 0:
            raise ValueError(f"sample_interval must be >= 0, got {sample_interval}")
        if keep not in ("first", "last"):
            raise ValueError(f"keep must be 'first' or 'last', got {keep!r}")
        if max_spans < 1:
            raise ValueError(f"max_spans must be >= 1, got {max_spans}")
        if max_slices < 1:
            raise ValueError(f"max_slices must be >= 1, got {max_slices}")
        self.capacity = capacity
        self.sample_interval = sample_interval
        self.keep = keep
        self.max_spans = max_spans
        self.max_slices = max_slices
        #: Ring mode, precomputed: ``on_event`` runs once per emitted
        #: event, so it tests a bool instead of re-comparing ``keep``.
        self._ring = keep == "last"
        self.events: Deque[TraceEvent] = deque(
            maxlen=capacity if keep == "last" else None
        )
        self.total_emitted = 0

        # -- counters (read through the COUNTERS table) -----------------------
        #: Occurrences of each hook kind.
        self.counts: Counter[str] = Counter()
        #: Summed ``events`` payloads of the kinds in ``_SUMMED_KINDS``.
        self.event_sums: Counter[str] = Counter()
        self.sim_start_time: Optional[float] = None
        self._busy: Set[int] = set()
        self.last_time = 0.0

        # -- derived structures -------------------------------------------------
        self.spans: List[Span] = []
        self.chunk_slices: List[ChunkSlice] = []
        self.spans_dropped = 0
        self.slices_dropped = 0
        self.samples: List[CounterSample] = []
        self._open_spans: Dict[int, Span] = {}
        self._last_sample = -math.inf
        self._closed = False

    # -- sink protocol -----------------------------------------------------------

    def on_event(self, event: TraceEvent) -> None:
        self.total_emitted += 1
        if self._ring or len(self.events) < self.capacity:
            self.events.append(event)
        self.last_time = event.time
        self._count(event)
        if event.time - self._last_sample >= self.sample_interval:
            self._sample(event.time)

    def close(self) -> None:
        """Close any still-open spans and take a final sample."""
        if self._closed:
            return
        self._closed = True
        for span in self._open_spans.values():
            span.end = self.last_time
            self._append_span(span)
        self._open_spans.clear()
        self._sample(self.last_time)

    # -- counting -----------------------------------------------------------------

    def _count(self, event: TraceEvent) -> None:
        kind = event.kind
        self.counts[kind] += 1
        if kind in _SUMMED_KINDS:
            self.event_sums[kind] += event.data.get("events", 0)
        if kind == kinds.CHUNK_DONE:
            if len(self.chunk_slices) >= self.max_slices:
                self.slices_dropped += 1
            else:
                duration = event.data.get("duration", 0.0)
                self.chunk_slices.append(
                    ChunkSlice(
                        node=event.node,
                        source=event.data.get("src", "?"),
                        start=event.time - duration,
                        end=event.time,
                        events=event.data.get("events", 0),
                    )
                )
        elif kind in (kinds.SUBJOB_START, kinds.SUBJOB_RESUME):
            self._open_span(event)
        elif kind in (kinds.SUBJOB_SUSPEND, kinds.SUBJOB_END):
            self._close_span(event)
        elif kind == kinds.NODE_BUSY:
            self._busy.add(event.node)
        elif kind == kinds.NODE_IDLE:
            self._busy.discard(event.node)
        elif kind == kinds.SIM_START:
            self.sim_start_time = event.time
        elif kind == kinds.SIM_END:
            self.close()

    def _append_span(self, span: Span) -> None:
        """Record a finished span, or count it once the cap is hit."""
        if len(self.spans) >= self.max_spans:
            self.spans_dropped += 1
        else:
            self.spans.append(span)

    def _open_span(self, event: TraceEvent) -> None:
        # A start on a node whose previous span never closed (should not
        # happen) is closed defensively rather than leaked.
        stale = self._open_spans.pop(event.node, None)
        if stale is not None:
            stale.end = event.time
            self._append_span(stale)
        self._open_spans[event.node] = Span(
            node=event.node, job=event.job, sid=event.sid, start=event.time, end=event.time
        )

    def _close_span(self, event: TraceEvent) -> None:
        span = self._open_spans.pop(event.node, None)
        if span is not None:
            span.end = event.time
            self._append_span(span)

    # -- sampling --------------------------------------------------------------------

    def _sample(self, time: float) -> None:
        self._last_sample = time
        self.samples.append(
            CounterSample(
                time=time,
                jobs_in_system=self.jobs_in_system,
                busy_nodes=len(self._busy),
                hit_ratio=self.hit_ratio,
                **{name: self._counter(name) for name in _SAMPLED_COUNTERS},
            )
        )

    # -- queries ------------------------------------------------------------------------

    @property
    def dropped_events(self) -> int:
        """Events emitted but no longer in the raw buffer."""
        return self.total_emitted - len(self.events)

    def _counter(self, key: str) -> int:
        """The value of one :data:`COUNTERS` entry."""
        kind, what = COUNTERS[key]
        return (self.counts if what == "n" else self.event_sums)[kind]

    @property
    def jobs_in_system(self) -> int:
        """Jobs arrived but not yet completed."""
        return self.counts[kinds.JOB_ARRIVAL] - self.counts[kinds.JOB_END]

    @property
    def hit_ratio(self) -> float:
        """Cache hits / (hits + misses), NaN before any data access."""
        hits = self.event_sums[kinds.CACHE_HIT]
        total = hits + self.event_sums[kinds.CACHE_MISS]
        return math.nan if total == 0 else hits / total

    def node_ids(self) -> List[int]:
        """Every node id that appears in spans or chunk slices, sorted."""
        ids = {span.node for span in self.spans}
        ids.update(s.node for s in self.chunk_slices)
        ids.update(s.node for s in self._open_spans.values())
        ids.discard(-1)
        return sorted(ids)

    def events_of_kind(self, *wanted: str) -> List[TraceEvent]:
        return [e for e in self.events if e.kind in wanted]

    def summary(self) -> Dict[str, Any]:
        """Aggregate counters as a plain dict (for reports and tests)."""
        out: Dict[str, Any] = {
            "events_recorded": len(self.events),
            "events_emitted": self.total_emitted,
            "events_dropped": self.dropped_events,
            "spans_recorded": len(self.spans),
            "spans_dropped": self.spans_dropped,
            "slices_recorded": len(self.chunk_slices),
            "slices_dropped": self.slices_dropped,
        }
        for key in COUNTERS:
            out[key] = self._counter(key)
        out["hit_ratio"] = self.hit_ratio
        return out

    # -- export ---------------------------------------------------------------------------

    def write_counters_csv(self, path) -> int:
        """Write the counter time-series; returns the row count."""
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(CounterSample.FIELDS)
            for sample in self.samples:
                writer.writerow(sample.row())
        return len(self.samples)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceRecorder({len(self.events)}/{self.total_emitted} events, "
            f"{len(self.spans)} spans, {len(self.samples)} samples)"
        )
