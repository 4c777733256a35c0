"""Oracle for the farm's whole-segment runs.

The farm plans each subjob's whole segment at once
(:class:`~repro.cluster.access.WholeSegmentPlanner`), and the node runs
the plan as lazily credited sub-chunks under one calendar event.  These
tests run the same farm with the per-chunk :class:`NoCachePlanner` (one
calendar event per chunk) as the oracle and require the same run to the
bit: the exported summary, every node's :class:`NodeStats`, the
:class:`TertiaryStats` and, on traced runs, the multiset of trace
records.  Only the engine's own counters may differ.
"""

import dataclasses
from collections import Counter

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster.access import NoCachePlanner, WholeSegmentPlanner
from repro.core import units
from repro.obs import TraceRecorder
from repro.sched.farm import ProcessingFarmPolicy
from repro.sim.config import FaultConfig, quick_config
from repro.sim.export import result_summary_dict
from repro.sim.simulator import Simulation
from repro.workload.jobs import JobRequest


class PerChunkFarm(ProcessingFarmPolicy):
    """The farm as it ran before whole-segment plans: one chunk, one
    calendar event."""

    def make_planner(self, tertiary):
        return NoCachePlanner(tertiary)


def _run(policy, config, trace=None, sink=None):
    sim = Simulation(config, policy, trace=trace, sink=sink, check_invariants=True)
    result = sim.run()
    summary = result_summary_dict(result)
    for key in ("wall_seconds", "engine_events"):
        summary.pop(key)
    return sim, result, summary


def _assert_same_run(config, trace=None):
    whole_sim, whole, whole_summary = _run(ProcessingFarmPolicy(), config, trace)
    chunk_sim, chunked, chunk_summary = _run(PerChunkFarm(), config, trace)
    assert isinstance(whole_sim.cluster.planner, WholeSegmentPlanner)
    assert whole_summary == chunk_summary
    assert [node.stats for node in whole_sim.cluster] == [
        node.stats for node in chunk_sim.cluster
    ]
    assert whole_sim.tertiary.stats == chunk_sim.tertiary.stats
    # Whole-segment runs never need more calendar events than chunks.
    assert whole.engine_events <= chunked.engine_events
    return whole_sim


#: Per-node speed factors, drawn per run when the run is heterogeneous.
_speeds = st.sampled_from((0.5, 0.75, 1.0, 1.3, 2.0))

_faults = st.one_of(
    st.none(),
    st.builds(
        FaultConfig,
        node_mtbf=st.sampled_from((6 * units.HOUR, units.DAY)),
        node_mttr=st.sampled_from((10 * units.MINUTE, units.HOUR)),
        wipe_cache_on_failure=st.booleans(),
        stall_interval=st.sampled_from((0.0, 4 * units.HOUR, 12 * units.HOUR)),
        stall_duration=st.sampled_from((10 * units.MINUTE, units.HOUR)),
    ),
)


@st.composite
def _configs(draw):
    n_nodes = draw(st.integers(1, 5))
    speeds = draw(st.one_of(st.none(), st.lists(_speeds, min_size=n_nodes, max_size=n_nodes)))
    # Load 0.3..1.6 of the cluster's capacity (2,000-event jobs at 0.8 s
    # an event: 2.25 jobs per node-hour), so some runs queue.
    load = draw(st.sampled_from((0.3, 0.8, 1.1, 1.6)))
    return quick_config(
        seed=draw(st.integers(0, 10_000)),
        n_nodes=n_nodes,
        node_speed_factors=tuple(speeds) if speeds is not None else None,
        arrival_rate_per_hour=load * 2.25 * n_nodes,
        # Chunk sizes that do not divide the job sizes, one that covers
        # most jobs whole, and one chunk per event.
        chunk_events=draw(st.sampled_from((1, 7, 100, 333, 2000))),
        min_subjob_events=1,
        tertiary_latency_s=draw(st.sampled_from((0.0, 0.37, 30.0))),
        duration=draw(st.sampled_from((0.5, 1.5))) * units.DAY,
        faults=draw(_faults),
    )


class TestAgainstPerChunkFarm:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(config=_configs())
    def test_generated_workloads(self, config):
        if config.chunk_events == 1:
            config = dataclasses.replace(config, duration=0.2 * units.DAY)
        _assert_same_run(config)

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        config=_configs(),
        jobs=st.lists(
            st.tuples(
                st.integers(0, 20),
                st.integers(0, 50),
                st.sampled_from((100, 200, 250, 1000, 2000)),
            ),
            min_size=1,
            max_size=30,
        ),
        # Seconds, minutes, and the time of one event or of 100 events,
        # which puts arrivals on the chunk-end grid.
        unit=st.sampled_from((1.0, 60.0, 0.8, 80.0)),
    )
    def test_replayed_traces_with_equal_time_completions(self, config, jobs, unit):
        # Integer arrival times and repeated sizes make many jobs start,
        # and end chunks, at the same instant on different nodes.
        trace = [
            JobRequest(
                job_id=index,
                arrival_time=unit * tick,
                start_event=1000 * slot,
                n_events=size,
            )
            for index, (tick, slot, size) in enumerate(jobs)
        ]
        _assert_same_run(config, trace)

    def test_runs_ending_chunks_together_keep_their_order(self):
        # Two nodes, everything arriving at once.  Node 0 runs job 0 then
        # jobs 2 and 3 back to back, each ending where node 1's 300-event
        # job 1 ends a chunk; at t = 240 both nodes free up, and the order
        # they do so in decides which one gets the 200-event job 5.  One
        # event per chunk gives node 0 that order (its chunk events were
        # armed first at every shared end); a lone event for job 1, armed
        # at t = 0, would give node 1.
        config = quick_config(
            n_nodes=2, chunk_events=100, min_subjob_events=1, duration=units.DAY
        )
        sizes = (100, 300, 100, 100, 100, 200)
        trace = [
            JobRequest(job_id=index, arrival_time=0.0, start_event=1000 * index, n_events=size)
            for index, size in enumerate(sizes)
        ]
        sim = _assert_same_run(config, trace)
        assert [node.stats.events_processed for node in sim.cluster] == [400, 500]


class TestTracedRuns:
    def test_same_trace_records_as_per_chunk_farm(self):
        config = quick_config(
            n_nodes=4,
            arrival_rate_per_hour=10.0,
            chunk_events=150,
            tertiary_latency_s=0.37,
            duration=2 * units.DAY,
            seed=11,
            faults=FaultConfig(
                node_mtbf=8 * units.HOUR,
                node_mttr=30 * units.MINUTE,
                stall_interval=6 * units.HOUR,
                stall_duration=units.HOUR,
            ),
        )
        records = []
        for policy in (ProcessingFarmPolicy(), PerChunkFarm()):
            recorder = TraceRecorder()
            _, result, _ = _run(policy, config, sink=recorder)
            recorder.close()
            assert recorder.dropped_events == 0
            assert recorder.summary()["tape_events"] == result.tertiary_events_read
            records.append(Counter(event.key() for event in recorder.events))
        whole, chunked = records
        assert whole == chunked
        kinds = {key[1] for key in whole}
        assert {"chunk.done", "tape.read", "fault.node_fail", "fault.stall_start"} <= kinds
