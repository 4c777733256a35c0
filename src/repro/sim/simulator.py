"""The simulation: engine + cluster + workload + policy, wired together.

:class:`Simulation` owns the run lifecycle — it schedules arrivals from a
workload trace or generator, routes node completions to the policy
(splitting them into the paper's "subjob end" vs "job end" notifications),
probes the backlog for overload analysis and collects per-job records —
and returns a pickleable :class:`SimulationResult`.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from ..faults.injector import FaultInjector
    from ..faults.net import ControlChannel

from ..core import units
from ..core.clock import wall_clock
from ..core.engine import Engine
from ..core.events import EventPriority
from ..core.rng import RandomStreams
from ..cluster.access import RemoteReadPlanner
from ..cluster.cluster import Cluster
from ..cluster.costmodel import DataSource
from ..cluster.node import Node
from ..data.tertiary import TertiaryStorage
from ..obs.hooks import HookBus, TraceSink, kinds
from ..sched.base import SchedulerContext, SchedulerPolicy, create_policy
from ..sched.stats import SchedulerStats
from ..topo.planner import TieredPlanner
from ..topo.tree import Topology, TopoSummary
from ..workload.generator import WorkloadGenerator
from ..workload.jobs import Job, JobRequest, Subjob
from .config import SimulationConfig
from .metrics import (
    DEFAULT_RECORD_CAP,
    FaultSummary,
    JobRecord,
    MetricsCollector,
    PerformanceSummary,
)
from .overload import OverloadVerdict, analyse_backlog
from .sanitizer import InvariantChecker


@dataclass
class SimulationResult:
    """Everything a run produced (pickleable for multiprocessing sweeps)."""

    config: SimulationConfig
    policy_name: str
    policy_params: Dict[str, object]
    policy_stats: Dict[str, float]
    #: Per-job records — bounded at ``DEFAULT_RECORD_CAP`` unless the run
    #: opted into full retention (``retain_records`` / ``--retain-records``);
    #: ``records_dropped`` counts what the cap discarded.
    records: List[JobRecord]
    measured: PerformanceSummary
    overload: OverloadVerdict
    jobs_arrived: int
    jobs_completed: int
    tertiary_events_read: int
    tertiary_distinct_events: int
    tertiary_redundancy: float
    node_utilization: float
    events_by_source: Dict[str, int]
    engine_events: int
    wall_seconds: float
    #: Fault/recovery accounting; ``None`` when fault injection was off.
    faults: Optional[FaultSummary] = None
    #: Control-plane accounting — measured for decentral policies, a
    #: message-count estimate synthesized for the central ones.
    sched: Optional[SchedulerStats] = None
    #: Per-job records dropped by the retention cap (0 on small runs and
    #: whenever ``retain_records`` was set).
    records_dropped: int = 0
    #: Per-tier topology accounting; ``None`` on flat (paper-shaped) runs.
    topo: Optional[TopoSummary] = None

    # -- convenience accessors used by the figure harness ------------------------

    @property
    def load_per_hour(self) -> float:
        return self.config.arrival_rate_per_hour

    @property
    def steady(self) -> bool:
        return not self.overload.overloaded

    def cache_hit_fraction(self) -> float:
        total = sum(self.events_by_source.values())
        if total == 0:
            return math.nan
        hits = self.events_by_source.get(DataSource.CACHE.value, 0)
        hits += self.events_by_source.get(DataSource.REMOTE.value, 0)
        hits += self.events_by_source.get(DataSource.TIER.value, 0)
        return hits / total

    def brief(self) -> str:
        """One-line summary for logs and benches."""
        state = "steady" if self.steady else "OVERLOADED"
        return (
            f"{self.policy_name:>15s} load={self.load_per_hour:5.2f}/h "
            f"speedup={self.measured.mean_speedup:6.2f} "
            f"wait={units.fmt_duration(self.measured.mean_waiting):>8s} "
            f"jobs={self.measured.n_jobs:4d} [{state}]"
        )


class Simulation:
    """One simulation run of one policy under one configuration."""

    def __init__(
        self,
        config: SimulationConfig,
        policy: SchedulerPolicy,
        trace: Optional[Sequence[JobRequest]] = None,
        sink: Optional[TraceSink] = None,
        check_invariants: bool = False,
        retain_records: bool = False,
    ) -> None:
        self.config = config
        self.policy = policy
        #: Per-run observability bus; attach sinks before :meth:`run` (the
        #: ``sink`` argument is a convenience for the common single-sink
        #: case).  With no sink attached every emission site short-circuits.
        self.obs = HookBus()
        if sink is not None:
            self.obs.attach(sink)
        #: Sim-sanitizer (``--check-invariants``): cheap transition checks
        #: inline, deep O(state) validation piggybacked on the existing
        #: probe events so the event calendar — and therefore the metrics —
        #: are identical to an unchecked run.
        self.checker: Optional[InvariantChecker] = (
            InvariantChecker() if check_invariants else None
        )
        self.engine = Engine(obs=self.obs, check_invariants=check_invariants)
        self.streams = RandomStreams(config.seed)
        dataspace = config.dataspace()
        self.tertiary = TertiaryStorage(dataspace, obs=self.obs)
        planner = policy.make_planner(self.tertiary)
        #: Hierarchical topology (repro.topo); ``None`` for flat runs —
        #: including trivial depth-1 specs, so the paper-shaped code path
        #: (and its goldens) stays untouched byte for byte.
        self.topo: Optional[Topology] = None
        if config.topology is not None and not config.topology.is_trivial:
            self.topo = Topology(
                config.topology,
                n_nodes=config.n_nodes,
                event_bytes=config.event_bytes,
                obs=self.obs,
            )
            if isinstance(planner, RemoteReadPlanner):
                # Peer selection becomes tier-locality-aware (same-prefix
                # ties go to the closest peer).
                planner.topology_view = self.topo
            planner = TieredPlanner(planner, self.topo)
        self.cluster = Cluster(
            engine=self.engine,
            n_nodes=config.n_nodes,
            cache_capacity_events=config.cache_events,
            cost_model=config.cost_model(),
            planner=planner,
            chunk_events=config.chunk_events,
            speed_factors=(
                list(config.node_speed_factors)
                if config.node_speed_factors is not None
                else None
            ),
            obs=self.obs,
        )
        if self.checker is not None:
            for node in self.cluster:
                node.checker = self.checker
        self.metrics = MetricsCollector(
            config.cost_model().uncached_event_time,
            warmup_time=config.warmup_time,
            record_cap=None if retain_records else DEFAULT_RECORD_CAP,
        )
        #: Jobs currently *in the system* (arrived, not yet completed).
        #: Completed jobs are evicted immediately unless the run opted
        #: into full retention — keeping them would make a million-job
        #: run O(jobs) in memory for no reader: the sanitizer's deep
        #: check skips done jobs and the metrics path snapshots
        #: everything it needs into its own bounded state.  With
        #: ``retain_records=True`` the dict doubles as a whole-run job
        #: archive (the white-box inspection contract tests rely on).
        self.jobs: Dict[int, Job] = {}
        self._retain_jobs = retain_records
        self._trace = list(trace) if trace is not None else None
        #: Pending generated arrivals (the chained pump); ``None`` on
        #: trace-driven runs and once the stream is exhausted.
        self._arrivals: Optional[Iterator[JobRequest]] = None
        self._primed = False

        self.cluster.set_completion_callback(self._on_subjob_complete)
        #: Unreliable control plane (repro.faults.net); ``None`` on a
        #: perfect network keeps every control path synchronous and
        #: draw-free.
        self.channel: Optional["ControlChannel"] = None
        if config.net is not None and config.net.enabled:
            from ..faults.net import ControlChannel

            self.channel = ControlChannel(
                engine=self.engine,
                config=config.net,
                streams=self.streams,
                obs=self.obs,
            )
        policy.bind(
            SchedulerContext(
                engine=self.engine,
                cluster=self.cluster,
                config=config,
                tertiary=self.tertiary,
                obs=self.obs,
                streams=self.streams,
                channel=self.channel,
                topo=self.topo,
            )
        )
        if self.channel is not None:
            self.channel.attach_policy(policy)
        #: Fault injection (repro.faults); ``None`` = perfect cluster.
        self.injector: Optional["FaultInjector"] = None
        if config.faults is not None:
            from ..faults.injector import FaultInjector

            self.injector = FaultInjector(
                engine=self.engine,
                cluster=self.cluster,
                policy=policy,
                config=config.faults,
                streams=self.streams,
                horizon=config.duration,
                obs=self.obs,
            )

    # -- wiring ---------------------------------------------------------------

    def _make_workload(self) -> Iterator[JobRequest]:
        """The run's arrival stream, in arrival order.

        Generated workloads stay a generator all the way into the
        chained arrival pump, so a million-job run never materialises a
        million :class:`JobRequest` objects.  An explicit trace, possibly
        unsorted, is sorted by arrival time; the sort is stable, so
        equal-time arrivals keep their trace order.
        """
        if self._trace is not None:
            return iter(
                sorted(
                    (r for r in self._trace if r.arrival_time < self.config.duration),
                    key=lambda r: r.arrival_time,
                )
            )
        generator = WorkloadGenerator(
            dataspace=self.config.dataspace(),
            arrival_rate_per_hour=self.config.arrival_rate_per_hour,
            job_size=self.config.job_size_distribution(),
            start_distribution=self.config.start_distribution(),
            streams=self.streams,
        )
        return generator.generate(self.config.duration)

    def _pump_next_arrival(self) -> None:
        """Schedule the next pending arrival (chained O(1) calendar).

        Arrival times are non-decreasing, so keeping exactly one arrival
        in the calendar — each firing schedules its successor — yields
        the same dispatch sequence as pre-pushing the whole workload
        (ARRIVAL is its own priority class and successive arrivals keep
        monotone sequence numbers) while the calendar stays O(pending
        completions) instead of O(jobs).
        """
        assert self._arrivals is not None
        request = next(self._arrivals, None)
        if request is None:
            self._arrivals = None
            return
        self.engine.call_at(
            request.arrival_time,
            self._on_arrival,
            request,
            priority=EventPriority.ARRIVAL,
            label=f"arrival:{request.job_id}",
        )

    def _on_arrival(self, request: JobRequest) -> None:
        if self._arrivals is not None:
            self._pump_next_arrival()
        job = Job(request)
        self.jobs[job.job_id] = job
        self.metrics.on_arrival(job)
        if self.obs.enabled:
            self.obs.emit(
                self.engine.now,
                kinds.JOB_ARRIVAL,
                "sim",
                job=job.job_id,
                events=job.n_events,
                start=job.segment.start,
            )
        self.policy.on_job_arrival(job)

    def _on_subjob_complete(self, node: Node, subjob: Subjob) -> None:
        job = subjob.job
        completed = job.maybe_complete(self.engine.now)
        if completed:
            self.metrics.on_completion(job)
            if not self._retain_jobs:
                # Release the job (and transitively its subjobs/request)
                # the moment it leaves the system; in-flight handlers
                # below hold their own references for as long as they
                # need them.
                self.jobs.pop(job.job_id, None)
            if self.obs.enabled:
                self.obs.emit(
                    self.engine.now,
                    kinds.JOB_END,
                    "sim",
                    node=node.node_id,
                    job=job.job_id,
                    waited=job.waiting_time,
                    processed=job.processing_time,
                )
        if self.channel is not None:
            # The node's completion report is a control message: the
            # master-side reaction (retry drains, policy handlers) waits
            # for it to arrive.  Reports retransmit without a budget —
            # ground truth must eventually reach the master — while job
            # completion itself (recorded above) is a node-local fact.
            self.channel.send_reliable(
                lambda: self._on_report_delivered(node, subjob, completed),
                kind="report",
                node=node.node_id,
                unlimited=True,
            )
        else:
            self._on_report_delivered(node, subjob, completed)

    def _on_report_delivered(
        self, node: Node, subjob: Subjob, completed: bool
    ) -> None:
        """Master-side completion handling (post-report on a lossy LAN)."""
        if self.injector is not None:
            # Due retries get first claim on the freed node; the policy
            # handler below then sees it busy and skips (the documented
            # deferred-completion pattern).
            self.injector.on_completion(node)
        if self.channel is not None:
            # Same first-claim treatment for subjobs re-pended after a
            # dispatch dead-letter.
            self.channel.drain()
        if completed:
            self.policy.on_job_end(node, subjob.job, subjob)
        else:
            self.policy.on_subjob_end(node, subjob)

    def _probe(self) -> None:
        if self.checker is not None:
            self.checker.deep_check(
                self.engine,
                self.cluster,
                self.jobs.values(),
                self.tertiary,
                self.topo.tiers.values() if self.topo is not None else (),
                self.channel,
            )
            self.policy.check_invariants()
        self.metrics.probe(self.engine.now, len(self.cluster.busy_nodes()))
        if self.engine.now + self.config.probe_interval <= self.config.duration:
            self.engine.call_after(
                self.config.probe_interval,
                self._probe,
                priority=EventPriority.PROBE,
                label="probe",
            )

    # -- run ----------------------------------------------------------------------

    def prime(self) -> None:
        """Schedule the workload arrivals and backlog probes.

        Called automatically by :meth:`run`; call it directly when driving
        the engine manually (e.g. stepping a policy in tests).

        Arrivals go through the chained arrival pump, so the calendar
        holds one pending arrival at a time.
        """
        if self._primed:
            return
        self._primed = True
        self._arrivals = self._make_workload()
        self._pump_next_arrival()
        if self.injector is not None:
            self.injector.prime()
        self.engine.call_at(0.0, self._probe, priority=EventPriority.PROBE)

    def run(self) -> SimulationResult:
        started = wall_clock()
        self.prime()
        if self.obs.enabled:
            self.obs.emit(
                0.0,
                kinds.SIM_START,
                "sim",
                policy=self.policy.name,
                nodes=self.config.n_nodes,
                duration=self.config.duration,
            )
        self.engine.run(until=self.config.duration)
        # Runs still in flight at the horizon credit the sub-chunks they
        # finished, as one event per chunk would have.
        for node in self.cluster:
            node.settle()
        if self.obs.enabled:
            self.obs.emit(self.engine.now, kinds.SIM_END, "sim")
        wall = wall_clock() - started
        return self._build_result(wall)

    def _build_result(self, wall_seconds: float) -> SimulationResult:
        config = self.config
        measure_interval = config.duration - config.warmup_time
        # Streaming aggregation: bit-identical to the historical
        # ``PerformanceSummary.from_records(measured_records(...))`` path
        # while the run is under the exact cap, sketched beyond it.
        summary = self.metrics.summary(measure_interval=measure_interval)
        verdict = analyse_backlog(
            self.metrics.backlog,
            warmup_time=config.warmup_time,
            jobs_arrived=self.metrics.jobs_arrived,
            jobs_completed=self.metrics.jobs_completed,
            duration=config.duration,
        )
        # The TIER source exists only on hierarchical runs; flat results
        # keep the historical three-key dict, bit-identical to goldens.
        events_by_source: Dict[str, int] = {
            s.value: 0
            for s in DataSource
            if s is not DataSource.TIER or self.topo is not None
        }
        for node in self.cluster:
            for source, count in node.stats.events_by_source.items():
                if source.value in events_by_source:
                    events_by_source[source.value] += count
        # Control-plane accounting: decentral policies measure it; for
        # central ones we synthesize the classic estimate — one dispatch
        # message per subjob start, one report per completion.
        dispatches = sum(
            node.stats.subjobs_completed
            + node.stats.preemptions
            + node.stats.subjobs_aborted
            for node in self.cluster
        )
        completions = sum(node.stats.subjobs_completed for node in self.cluster)
        sched_stats = self.policy.scheduler_stats()
        if sched_stats is None:
            sched_stats = SchedulerStats.central_estimate(dispatches, completions)
        else:
            sched_stats = dataclasses.replace(sched_stats, subjobs_started=dispatches)
        if self.channel is not None:
            net = self.channel.stats
            sched_stats = dataclasses.replace(
                sched_stats,
                retransmits=net.retransmits,
                duplicates_dropped=net.duplicates_dropped,
                timeouts=net.timeouts,
                dead_letters=net.dead_letters,
                failovers=net.failovers,
            )
        fault_summary: Optional[FaultSummary] = None
        if self.injector is not None:
            self.injector.finalize()
            fault_summary = self.injector.summary(
                degraded_makespan=self.metrics.max_completion
            )
        topo_summary: Optional[TopoSummary] = None
        if self.topo is not None:
            self.topo.finalize(until=config.duration)
            topo_summary = self.topo.summary()
        return SimulationResult(
            config=config,
            policy_name=self.policy.name,
            policy_params=self.policy.describe(),
            policy_stats=self.policy.extra_stats(),
            records=self.metrics.records,
            measured=summary,
            overload=verdict,
            jobs_arrived=self.metrics.jobs_arrived,
            jobs_completed=self.metrics.jobs_completed,
            tertiary_events_read=self.tertiary.stats.events_read,
            tertiary_distinct_events=self.tertiary.distinct_events_read,
            tertiary_redundancy=self.tertiary.redundancy_factor,
            node_utilization=self.cluster.utilization(config.duration),
            events_by_source=events_by_source,
            engine_events=self.engine.stats.dispatched,
            wall_seconds=wall_seconds,
            faults=fault_summary,
            sched=sched_stats,
            records_dropped=self.metrics.records_dropped,
            topo=topo_summary,
        )


def run_simulation(
    config: SimulationConfig,
    policy: str,
    trace: Optional[Sequence[JobRequest]] = None,
    sink: Optional[TraceSink] = None,
    check_invariants: bool = False,
    retain_records: bool = False,
    **policy_params: object,
) -> SimulationResult:
    """Build and run one simulation; the library's main entry point.

    Pass ``sink`` (e.g. a :class:`repro.obs.TraceRecorder`) to observe the
    run as structured trace events, and ``check_invariants=True`` to run
    the sim-sanitizer (identical metrics, extra runtime checks).
    ``retain_records=True`` lifts the per-job record cap and keeps
    completed :class:`~repro.workload.jobs.Job` objects in
    ``Simulation.jobs`` (O(jobs) memory; needed only when the full
    per-job state of a >100k-job run matters — aggregates always
    stream).

    >>> from repro.sim.config import quick_config
    >>> result = run_simulation(quick_config(duration=86400.0), "farm")
    >>> result.policy_name
    'farm'
    """
    policy_instance = create_policy(policy, **policy_params)
    return Simulation(
        config,
        policy_instance,
        trace=trace,
        sink=sink,
        check_invariants=check_invariants,
        retain_records=retain_records,
    ).run()
