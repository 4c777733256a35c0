"""Per-job records and steady-state performance aggregation.

The paper characterises each policy by two curves (average speedup and
average waiting time vs offered load), a waiting-time distribution near
saturation (Fig 4), and sustainability (whether the run stayed in steady
state).  This module computes all of these from completed-job records,
applying the paper's measurement conventions:

* the startup period (caches filling) is discarded — jobs arriving before
  the warmup time are not measured;
* speedup of a job = its single-node no-cache time (``n_events × uncached
  per-event time``) divided by its processing time;
* processing time runs from the first processed event to the last one,
  suspended stretches included;
* waiting time runs from submission to the first processed event;
  ``waiting_excl_delay`` additionally subtracts the delayed scheduler's
  period delay (the convention of Figs 5 and 6).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..sched.stats import SchedulerStats  # noqa: F401  (sim-layer re-export)
from ..workload.jobs import Job
from .streaming import DEFAULT_EXACT_CAP, StreamingTally

#: Per-job records retained by default before the collector stops
#: appending (aggregates keep streaming).  Pass ``retain_records=True``
#: to :func:`repro.sim.simulator.run_simulation` (CLI: ``--retain-records``)
#: for unbounded retention.
DEFAULT_RECORD_CAP = 100_000


@dataclass(frozen=True)
class JobRecord:
    """Immutable summary of one completed job."""

    job_id: int
    arrival_time: float
    schedule_time: float
    first_start: float
    completion: float
    n_events: int
    reference_time: float  # single-node, no-cache processing time

    @property
    def waiting_time(self) -> float:
        return self.first_start - self.arrival_time

    @property
    def waiting_time_excl_delay(self) -> float:
        return self.first_start - self.schedule_time

    @property
    def processing_time(self) -> float:
        return self.completion - self.first_start

    @property
    def sojourn_time(self) -> float:
        """Total time in the system (submission → completion)."""
        return self.completion - self.arrival_time

    @property
    def speedup(self) -> float:
        if self.processing_time <= 0:
            return math.inf
        return self.reference_time / self.processing_time


@dataclass(frozen=True)
class FaultSummary:
    """Aggregate fault/recovery accounting of one run (repro.faults).

    ``goodput`` is the fraction of compute time that produced credited
    events: ``busy / (busy + lost)`` (1.0 on a fault-free run).
    ``degraded_makespan`` is the completion time of the last job that
    finished — under faults, the tail directly shows recovery cost.
    """

    failures: int = 0
    stalls: int = 0
    subjobs_aborted: int = 0
    retries: int = 0
    giveups: int = 0
    lost_events: int = 0
    lost_seconds: float = 0.0
    downtime_seconds: float = 0.0
    stall_seconds: float = 0.0
    goodput: float = 1.0
    degraded_makespan: float = 0.0


@dataclass
class BacklogSample:
    """One probe of the system backlog."""

    time: float
    jobs_in_system: int  # arrived but not completed
    busy_nodes: int


class MetricsCollector:
    """Accumulates job statistics and backlog probes during a run.

    Memory model (see ``docs/SCALING.md``): the measured aggregates are
    :class:`~repro.sim.streaming.StreamingTally` s — exact (and summarised
    bit-identically to the historical record-based code) up to
    ``exact_cap`` measured jobs, O(1) sketches beyond.  Per-job
    :class:`JobRecord` retention is bounded by ``record_cap`` (``None``
    = unbounded); past the cap records are dropped and counted in
    :attr:`records_dropped` while every aggregate keeps streaming.

    ``warmup_time`` fixes the measurement window up front: only jobs
    arriving at or after it feed the tallies, mirroring the paper's
    convention of discarding the cache-filling startup period.
    """

    def __init__(
        self,
        uncached_event_time: float,
        warmup_time: float = 0.0,
        record_cap: Optional[int] = None,
        exact_cap: int = DEFAULT_EXACT_CAP,
    ) -> None:
        self.uncached_event_time = uncached_event_time
        self.warmup_time = warmup_time
        self.record_cap = record_cap
        self.records: List[JobRecord] = []
        self.records_dropped = 0
        self.backlog: List[BacklogSample] = []
        self.jobs_arrived = 0
        self.jobs_completed = 0
        #: Completion time of the last job that finished (any arrival
        #: time) — the degraded-makespan input, streamed so it survives
        #: record truncation.
        self.max_completion = 0.0
        self.tallies: Dict[str, StreamingTally] = {
            "waiting": StreamingTally(quantiles=(50.0, 95.0), exact_cap=exact_cap),
            "waiting_excl": StreamingTally(exact_cap=exact_cap),
            "processing": StreamingTally(exact_cap=exact_cap),
            "sojourn": StreamingTally(exact_cap=exact_cap),
            "speedup": StreamingTally(quantiles=(50.0,), exact_cap=exact_cap),
            "events": StreamingTally(exact_cap=exact_cap),
            "stretch": StreamingTally(quantiles=(95.0,), exact_cap=exact_cap),
        }

    def on_arrival(self, job: Job) -> None:
        self.jobs_arrived += 1

    def on_completion(self, job: Job) -> None:
        assert job.first_start is not None and job.completion is not None
        self.jobs_completed += 1
        record = JobRecord(
            job_id=job.job_id,
            arrival_time=job.arrival_time,
            schedule_time=job.schedule_time,
            first_start=job.first_start,
            completion=job.completion,
            n_events=job.n_events,
            reference_time=job.n_events * self.uncached_event_time,
        )
        if record.completion > self.max_completion:
            self.max_completion = record.completion
        if self.record_cap is None or len(self.records) < self.record_cap:
            self.records.append(record)
        else:
            self.records_dropped += 1
        if record.arrival_time >= self.warmup_time:
            tallies = self.tallies
            tallies["waiting"].push(record.waiting_time)
            tallies["waiting_excl"].push(record.waiting_time_excl_delay)
            tallies["processing"].push(record.processing_time)
            tallies["sojourn"].push(record.sojourn_time)
            tallies["speedup"].push(record.speedup)
            tallies["events"].push(float(record.n_events))
            tallies["stretch"].push(record.sojourn_time / record.reference_time)

    def probe(self, time: float, busy_nodes: int) -> None:
        self.backlog.append(
            BacklogSample(
                time=time,
                jobs_in_system=self.jobs_arrived - self.jobs_completed,
                busy_nodes=busy_nodes,
            )
        )

    @property
    def exact(self) -> bool:
        """True while the measured aggregates are still exact."""
        return self.tallies["waiting"].exact

    def measured_records(self, warmup_time: float) -> List[JobRecord]:
        """*Retained* records of jobs that arrived after warmup.

        Truncated once ``record_cap`` is exceeded — use :meth:`summary`
        for aggregates that survive truncation.
        """
        return [r for r in self.records if r.arrival_time >= warmup_time]

    def summary(
        self, measure_interval: Optional[float] = None
    ) -> "PerformanceSummary":
        """Aggregate the measured (post-warmup) jobs.

        Bit-identical to ``PerformanceSummary.from_records`` over the
        measured records while :attr:`exact` holds; streamed (Welford
        means, P² percentiles, empty sample arrays) beyond the cap.
        """
        tallies = self.tallies
        waiting = tallies["waiting"]
        speedup = tallies["speedup"]
        stretch = tallies["stretch"]
        return PerformanceSummary(
            n_jobs=waiting.n,
            mean_waiting=waiting.mean(),
            median_waiting=waiting.percentile(50.0),
            p95_waiting=waiting.percentile(95.0),
            max_waiting=waiting.max(),
            mean_waiting_excl_delay=tallies["waiting_excl"].mean(),
            mean_processing=tallies["processing"].mean(),
            mean_sojourn=tallies["sojourn"].mean(),
            mean_speedup=speedup.mean(),
            median_speedup=speedup.percentile(50.0),
            mean_job_events=tallies["events"].mean(),
            throughput_per_hour=_throughput(waiting.n, measure_interval),
            waiting_times=waiting.values(),
            waiting_times_excl_delay=tallies["waiting_excl"].values(),
            speedups=speedup.values(),
            std_waiting=waiting.std(),
            mean_stretch=stretch.mean(),
            p95_stretch=stretch.percentile(95.0),
            max_stretch=stretch.max(),
            exact=waiting.exact,
        )


def _mean(values: Sequence[float]) -> float:
    return float(np.mean(values)) if len(values) else math.nan


def _percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else math.nan


def _throughput(n_jobs: int, measure_interval: Optional[float]) -> float:
    if measure_interval and measure_interval > 0:
        return n_jobs * 3600.0 / measure_interval
    return math.nan


@dataclass
class PerformanceSummary:
    """Aggregate statistics over the measured (post-warmup) jobs.

    ``exact`` is ``True`` when every statistic was computed over the full
    set of measured jobs; on runs past the streaming cap the means come
    from Welford accumulators, the percentiles from P² sketches, and the
    sample arrays are empty (see ``docs/SCALING.md``).  ``stretch`` is a
    job's sojourn time over its single-node no-cache reference time — the
    slowdown metric of the fractional/batch scheduling literature.
    """

    n_jobs: int
    mean_waiting: float
    median_waiting: float
    p95_waiting: float
    max_waiting: float
    mean_waiting_excl_delay: float
    mean_processing: float
    mean_sojourn: float
    mean_speedup: float
    median_speedup: float
    mean_job_events: float
    throughput_per_hour: float
    waiting_times: np.ndarray = field(repr=False)
    waiting_times_excl_delay: np.ndarray = field(repr=False)
    speedups: np.ndarray = field(repr=False)
    std_waiting: float = math.nan
    mean_stretch: float = math.nan
    p95_stretch: float = math.nan
    max_stretch: float = math.nan
    exact: bool = True

    @classmethod
    def from_records(
        cls,
        records: Sequence[JobRecord],
        measure_interval: Optional[float] = None,
    ) -> "PerformanceSummary":
        """Exact aggregation of ``records`` — the reference that
        :meth:`MetricsCollector.summary` matches bit for bit below its
        exact cap."""
        waits = np.array([r.waiting_time for r in records], dtype=float)
        waits_excl = np.array(
            [r.waiting_time_excl_delay for r in records], dtype=float
        )
        speedups = np.array([r.speedup for r in records], dtype=float)
        stretch = [
            r.sojourn_time / r.reference_time if r.reference_time else math.inf
            for r in records
        ]
        return cls(
            n_jobs=len(waits),
            mean_waiting=_mean(waits),
            median_waiting=_percentile(waits, 50),
            p95_waiting=_percentile(waits, 95),
            max_waiting=float(np.max(waits)) if len(waits) else math.nan,
            mean_waiting_excl_delay=_mean(waits_excl),
            mean_processing=_mean([r.processing_time for r in records]),
            mean_sojourn=_mean([r.sojourn_time for r in records]),
            mean_speedup=_mean(speedups),
            median_speedup=_percentile(speedups, 50),
            mean_job_events=_mean([float(r.n_events) for r in records]),
            throughput_per_hour=_throughput(len(waits), measure_interval),
            waiting_times=waits,
            waiting_times_excl_delay=waits_excl,
            speedups=speedups,
            std_waiting=float(np.std(waits)) if len(waits) else math.nan,
            mean_stretch=_mean(stretch),
            p95_stretch=_percentile(stretch, 95),
            max_stretch=float(np.max(stretch)) if len(stretch) else math.nan,
        )
