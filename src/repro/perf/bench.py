"""Kernel micro-benchmarks: the simulator's hot paths, one at a time.

The ``kernel`` report covers engine heap dispatch (with and without
cancellation churn), :class:`Interval` / :class:`IntervalSet`
arithmetic, disk-cache LRU operations, a node's chunk loop
(``node.chunk_loop``), sweep fingerprinting, decentralized bidding, the
lossy control channel, flow lint and topology routing (``topo.route``).
Whole runs of every policy are the ``scale`` report, in
:mod:`repro.perf.scale`.

Workloads are generated with an inline linear-congruential generator —
not :mod:`numpy` — so the benchmark inputs are bit-stable across runs and
platforms and the harness itself stays outside the simulation's seeded
RNG discipline (simlint SIM002).

All wall-clock timing funnels through :func:`repro.core.clock.wall_clock`
(simlint SIM001); each benchmark reports the *best* time over its repeats,
the standard technique for suppressing scheduler noise.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from ..cluster.access import CachingPlanner, NoCachePlanner
from ..cluster.costmodel import CostModel
from ..cluster.node import Node
from ..core import units
from ..core.clock import wall_clock
from ..core.engine import Engine
from ..data.cache import LRUSegmentCache
from ..data.dataspace import DataSpace
from ..data.intervals import Interval, IntervalSet
from ..data.tertiary import TertiaryStorage
from ..exec.fingerprint import spec_fingerprint
from ..sim.config import quick_config
from ..sim.export import SCHEMA_VERSION
from ..sim.runner import RunSpec
from ..workload.jobs import Job, JobRequest
from .report import BenchRecord, BenchReport

#: Default repeat count (best-of-N) of every micro-benchmark.
KERNEL_REPEATS = 5

_LCG_MULTIPLIER = 6364136223846793005
_LCG_INCREMENT = 1442695040888963407
_LCG_MASK = (1 << 64) - 1


class _Lcg:
    """Deterministic 64-bit LCG for benchmark workload generation."""

    __slots__ = ("state",)

    def __init__(self, seed: int) -> None:
        self.state = seed & _LCG_MASK

    def below(self, bound: int) -> int:
        """The next pseudo-random integer in ``[0, bound)``."""
        self.state = (self.state * _LCG_MULTIPLIER + _LCG_INCREMENT) & _LCG_MASK
        return (self.state >> 33) % bound


def _best_of(
    setup: Callable[[], Callable[[], None]], repeats: int
) -> float:
    """Best wall time of ``repeats`` fresh setup+run cycles (only the run
    callable returned by ``setup`` is timed)."""
    best: Optional[float] = None
    for _ in range(max(1, repeats)):
        run = setup()
        started = wall_clock()
        run()
        elapsed = wall_clock() - started
        if best is None or elapsed < best:
            best = elapsed
    assert best is not None
    return best


def _sink(*args: object) -> None:
    """No-op event callback for engine benchmarks."""


# -- kernel micro-benchmarks ---------------------------------------------------


def bench_engine_dispatch(n_events: int = 200_000, repeats: int = KERNEL_REPEATS) -> BenchRecord:
    """Schedule ``n_events`` at pseudo-random times, then drain the heap.

    >>> bench_engine_dispatch(n_events=100, repeats=1).work
    100
    """

    def setup() -> Callable[[], None]:
        engine = Engine()
        rng = _Lcg(seed=1)
        for _ in range(n_events):
            engine.call_at(float(rng.below(1_000_000)), _sink)
        return lambda: engine.run()

    wall = _best_of(setup, repeats)
    return BenchRecord(
        name="engine.dispatch",
        wall_seconds=wall,
        work=n_events,
        unit="events",
        repeats=repeats,
    )


def bench_engine_cancel_churn(
    n_events: int = 200_000, repeats: int = KERNEL_REPEATS
) -> BenchRecord:
    """Engine dispatch with half the calendar lazily cancelled — the load
    pattern of preemption-heavy policies.

    >>> bench_engine_cancel_churn(n_events=100, repeats=1).unit
    'events'
    """

    def setup() -> Callable[[], None]:
        engine = Engine()
        rng = _Lcg(seed=2)
        handles = [
            engine.call_at(float(rng.below(1_000_000)), _sink)
            for _ in range(n_events)
        ]
        for index in range(0, n_events, 2):
            engine.cancel(handles[index])
        return lambda: engine.run()

    wall = _best_of(setup, repeats)
    return BenchRecord(
        name="engine.cancel_churn",
        wall_seconds=wall,
        work=n_events,
        unit="events",
        repeats=repeats,
    )


def bench_interval_ops(n_ops: int = 100_000, repeats: int = KERNEL_REPEATS) -> BenchRecord:
    """Interval arithmetic mix: intersection, subtract, take_left.

    >>> bench_interval_ops(n_ops=100, repeats=1).name
    'intervals.arith'
    """

    def setup() -> Callable[[], None]:
        rng = _Lcg(seed=3)
        pairs: List[Tuple[Interval, Interval]] = []
        for _ in range(n_ops):
            a_start = rng.below(10_000)
            b_start = rng.below(10_000)
            pairs.append(
                (
                    Interval(a_start, a_start + 1 + rng.below(2_000)),
                    Interval(b_start, b_start + 1 + rng.below(2_000)),
                )
            )

        def run() -> None:
            for left, right in pairs:
                left.intersection(right)
                left.subtract(right)
                left.take_left(right.length)

        return run

    wall = _best_of(setup, repeats)
    return BenchRecord(
        name="intervals.arith",
        wall_seconds=wall,
        work=3 * n_ops,
        unit="ops",
        repeats=repeats,
    )


def bench_intervalset_ops(n_ops: int = 50_000, repeats: int = KERNEL_REPEATS) -> BenchRecord:
    """IntervalSet union/remove/overlap churn at cache-like occupancy.

    >>> bench_intervalset_ops(n_ops=100, repeats=1).unit
    'ops'
    """

    def setup() -> Callable[[], None]:
        rng = _Lcg(seed=4)
        ops: List[Tuple[int, Interval]] = []
        for index in range(n_ops):
            start = rng.below(1_000_000)
            ops.append((index % 3, Interval(start, start + 1 + rng.below(5_000))))

        def run() -> None:
            accumulator = IntervalSet()
            for kind, interval in ops:
                if kind == 0:
                    accumulator.add(interval)
                elif kind == 1:
                    accumulator.overlap_measure(interval)
                else:
                    accumulator.remove(interval)

        return run

    wall = _best_of(setup, repeats)
    return BenchRecord(
        name="intervals.set_ops",
        wall_seconds=wall,
        work=n_ops,
        unit="ops",
        repeats=repeats,
    )


def bench_exec_fingerprint(
    n_specs: int = 2_000, repeats: int = KERNEL_REPEATS
) -> BenchRecord:
    """Content-addressed fingerprinting throughput of the execution layer
    (one fingerprint per sweep point on every cache lookup).

    >>> bench_exec_fingerprint(n_specs=10, repeats=1).name
    'exec.fingerprint'
    """

    def setup() -> Callable[[], None]:
        rng = _Lcg(seed=6)
        specs = [
            RunSpec.make(
                quick_config(
                    seed=rng.below(1_000),
                    arrival_rate_per_hour=0.5 + 0.25 * rng.below(10),
                ),
                "farm",
            )
            for _ in range(n_specs)
        ]

        def run() -> None:
            for spec in specs:
                spec_fingerprint(spec, schema_version=SCHEMA_VERSION)

        return run

    wall = _best_of(setup, repeats)
    return BenchRecord(
        name="exec.fingerprint",
        wall_seconds=wall,
        work=n_specs,
        unit="specs",
        repeats=repeats,
    )


def bench_cache_lru(n_ops: int = 30_000, repeats: int = KERNEL_REPEATS) -> BenchRecord:
    """LRU segment-cache insert/touch/query churn with steady eviction
    pressure (the cache holds ~10% of the touched data space).

    >>> bench_cache_lru(n_ops=100, repeats=1).name
    'cache.lru_ops'
    """

    def setup() -> Callable[[], None]:
        rng = _Lcg(seed=5)
        ops: List[Tuple[int, Interval]] = []
        for index in range(n_ops):
            start = rng.below(1_000_000)
            ops.append((index % 3, Interval(start, start + 1 + rng.below(3_000))))

        def run() -> None:
            cache = LRUSegmentCache(capacity_events=100_000)
            clock = 0.0
            for kind, interval in ops:
                clock += 1.0
                if kind == 0:
                    cache.insert(interval, now=clock)
                elif kind == 1:
                    cache.touch(interval, now=clock)
                else:
                    cache.cached_prefix(interval)

        return run

    wall = _best_of(setup, repeats)
    return BenchRecord(
        name="cache.lru_ops",
        wall_seconds=wall,
        work=n_ops,
        unit="ops",
        repeats=repeats,
    )


def bench_node_chunk_loop(
    n_chunks: int = 20_000, repeats: int = KERNEL_REPEATS
) -> BenchRecord:
    """A node's per-chunk loop: plan, schedule one completion, account.

    One subjob streams ``n_chunks`` chunks from tertiary storage through
    :class:`~repro.cluster.access.NoCachePlanner`, then another streams as
    many through :class:`~repro.cluster.access.CachingPlanner`, every
    chunk a miss written through to the disk cache.

    >>> bench_node_chunk_loop(n_chunks=10, repeats=1).work
    20
    """
    chunk_events = 10
    n_events = n_chunks * chunk_events
    space = DataSpace(total_events=n_events, event_bytes=600 * units.KB)
    model = CostModel.from_hardware(space.event_bytes)

    def setup() -> Callable[[], None]:
        engine = Engine()
        nodes = [
            Node(
                node_id,
                engine,
                LRUSegmentCache(n_events),
                model,
                planner(TertiaryStorage(space)),
                chunk_events=chunk_events,
            )
            for node_id, planner in enumerate((NoCachePlanner, CachingPlanner))
        ]
        subjobs = [
            Job(JobRequest(job_id, 0.0, 0, n_events)).make_root_subjob()
            for job_id in range(len(nodes))
        ]

        def run() -> None:
            for node, subjob in zip(nodes, subjobs):
                node.start(subjob)
                engine.run()

        return run

    wall = _best_of(setup, repeats)
    return BenchRecord(
        name="node.chunk_loop",
        wall_seconds=wall,
        work=2 * n_chunks,
        unit="chunks",
        repeats=repeats,
    )


def bench_sched_bidding(
    n_rounds: int = 200, repeats: int = KERNEL_REPEATS
) -> BenchRecord:
    """Decentralized-scheduler kernel: rule expansion into tasks, bid
    scoring of every (node, task) pair against per-node caches, and one
    arbitration round — the per-round work of ``repro.sched.decentral``.

    >>> bench_sched_bidding(n_rounds=2, repeats=1).unit
    'bids'
    """
    from ..core.rng import RandomStreams
    from ..sched.decentral import Bid, arbitrate, plan_tasks, score_candidate

    n_nodes = 16
    n_tasks_per_round = 32
    cost_model = quick_config().cost_model()

    def setup() -> Callable[[], None]:
        rng = _Lcg(seed=7)
        caches: List[LRUSegmentCache] = []
        for _ in range(n_nodes):
            cache = LRUSegmentCache(capacity_events=50_000)
            clock = 0.0
            for _ in range(40):
                clock += 1.0
                start = rng.below(1_000_000)
                cache.insert(Interval(start, start + 1 + rng.below(4_000)), now=clock)
            caches.append(cache)
        segments = []
        for _ in range(n_rounds):
            start = rng.below(1_000_000)
            segments.append(Interval(start, start + n_tasks_per_round * 200))
        # A bench-owned stream: reusing the scheduler's "sched.arbiter"
        # name here would alias its draws (simlint SIM101).
        arbiter_rng = RandomStreams(0).get("perf.bidding")

        def run() -> None:
            for segment in segments:
                tasks = plan_tasks(segment, 200, 10)
                bids = [
                    Bid(
                        node_id=node_id,
                        task_index=index,
                        score=score_candidate(
                            caches[node_id],
                            cost_model,
                            task,
                            age_seconds=3600.0,
                            locality_weight=1.0,
                            aging_tau=21600.0,
                            queue_depth=node_id % 4,
                        ),
                    )
                    for node_id in range(n_nodes)
                    for index, task in enumerate(tasks)
                ]
                arbitrate(bids, grant_batch=4, rng=arbiter_rng)

        return run

    wall = _best_of(setup, repeats)
    return BenchRecord(
        name="sched.bidding",
        wall_seconds=wall,
        work=n_rounds * n_nodes * n_tasks_per_round,
        unit="bids",
        repeats=repeats,
    )


def bench_net_channel(
    n_messages: int = 20_000, repeats: int = KERNEL_REPEATS
) -> BenchRecord:
    """Unreliable-control-plane kernel: reliable sends through a lossy
    :class:`~repro.faults.net.ControlChannel` — loss/dup/delay draws,
    ack+retransmit state machine, receiver dedup — driven to quiescence
    on a bare engine.

    >>> bench_net_channel(n_messages=50, repeats=1).unit
    'msgs'
    """
    from ..core.engine import Engine
    from ..core.rng import RandomStreams
    from ..faults.net import ControlChannel
    from ..sim.config import NetFaultConfig

    config = NetFaultConfig(
        loss=0.2, duplicate=0.05, delay_mean=0.01, reorder=0.05,
        ack_timeout=0.5,
    )

    def setup() -> Callable[[], None]:
        def run() -> None:
            engine = Engine()
            channel = ControlChannel(engine, config, RandomStreams(0))
            deliver = _noop
            for _ in range(n_messages):
                channel.send_reliable(deliver, kind="bench")
            engine.run(until=1e9)
            assert channel.in_flight == 0, "channel failed to quiesce"

        return run

    wall = _best_of(setup, repeats)
    return BenchRecord(
        name="sched.netchannel",
        wall_seconds=wall,
        work=n_messages,
        unit="msgs",
        repeats=repeats,
    )


def _noop() -> None:
    """Delivery sink for :func:`bench_net_channel`."""


def bench_topo_route(
    n_lookups: int = 100_000, repeats: int = KERNEL_REPEATS
) -> BenchRecord:
    """Topology routing kernel: LCA distances, leaf-to-root path walks,
    contended-link pricing (acquire / plan / release churn) and
    tier-cache prefix probes on the ``depth3`` preset — the per-chunk
    work :class:`~repro.topo.planner.TieredPlanner` adds to a tiered run.

    >>> bench_topo_route(n_lookups=50, repeats=1).unit
    'lookups'
    """
    from ..topo.spec import topology_preset
    from ..topo.tree import Topology

    n_nodes = 64

    def setup() -> Callable[[], None]:
        topo = Topology(
            topology_preset("depth3", "lru-rack"),
            n_nodes=n_nodes,
            event_bytes=1000,
        )
        rng = _Lcg(seed=11)
        pairs = [
            (rng.below(n_nodes), rng.below(n_nodes)) for _ in range(n_lookups)
        ]
        extents = [
            Interval(start, start + 200)
            for start in (rng.below(1_000_000) for _ in range(512))
        ]
        for index, extent in enumerate(extents[::4]):
            topo.tiers["site0.rack0"].cache.admit(extent, now=float(index))

        def run() -> None:
            clock = 0.0
            for index, (a, b) in enumerate(pairs):
                clock += 1.0
                topo.distance(a, b)
                path = topo.path_of(a)
                for tier in path[:-1]:
                    tier.planned_link_time(clock)
                    tier.acquire()
                cache = path[0].cache
                if cache is not None:
                    cache.cached_prefix(extents[index & 511])
                for tier in path[:-1]:
                    tier.release()

        return run

    wall = _best_of(setup, repeats)
    return BenchRecord(
        name="topo.route",
        wall_seconds=wall,
        work=n_lookups,
        unit="lookups",
        repeats=repeats,
    )


def _synthetic_flow_module(index: int) -> str:
    """One synthetic module exercising every flow-lint fact collector."""
    return (
        f'"""module {index}"""\n'
        "from repro.obs.hooks import kinds\n"
        "\n"
        f'_KEYS_{index} = ("alpha", "beta", "gamma")\n'
        "\n"
        "\n"
        f"def writer_{index}(streams, bus, now):\n"
        f'    rng = streams.get("component{index}.draws")\n'
        f'    child = streams.spawn(f"component{index}.rep{{now}}")\n'
        "    if bus.enabled:\n"
        "        bus.emit(now, kinds.JOB_ARRIVAL, 'node', node=1)\n"
        "    return {\n"
        '        "schema_version": 1,\n'
        '        "alpha": rng.integers(10),\n'
        '        "beta": now,\n'
        "    }\n"
        "\n"
        "\n"
        f"def reader_{index}(payload):\n"
        f"    wanted = _KEYS_{index}\n"
        '    value = payload["alpha"]\n'
        '    other = payload.get("beta", 0.0)\n'
        "    return value, other, wanted\n"
    )


def bench_lint_flow(
    n_modules: int = 150, repeats: int = KERNEL_REPEATS
) -> BenchRecord:
    """Whole-program flow analysis over a synthetic project.

    Guards the graph build + SIM101-SIM105 passes (``repro lint --flow``)
    against complexity regressions — the analysis must stay cheap enough
    to run on every CI push.

    >>> bench_lint_flow(n_modules=4, repeats=1).work
    4
    """
    from ..lint.flow import flow_lint_source

    def setup() -> Callable[[], None]:
        sources = {
            f"src/repro/fake{i % 7}/module_{i}.py": _synthetic_flow_module(i)
            for i in range(n_modules)
        }

        def run() -> None:
            flow_lint_source(sources)

        return run

    wall = _best_of(setup, repeats)
    return BenchRecord(
        name="lint.flow",
        wall_seconds=wall,
        work=n_modules,
        unit="modules",
        repeats=repeats,
    )


# -- report assembly -----------------------------------------------------------


#: The kernel suite, in report order: (record name, bench function,
#: full-size workload).  Quick mode runs each at a tenth of its size.
KERNEL_BENCHES: Tuple[Tuple[str, Callable[[int, int], BenchRecord], int], ...] = (
    ("engine.dispatch", bench_engine_dispatch, 200_000),
    ("engine.cancel_churn", bench_engine_cancel_churn, 200_000),
    ("intervals.arith", bench_interval_ops, 100_000),
    ("intervals.set_ops", bench_intervalset_ops, 50_000),
    ("cache.lru_ops", bench_cache_lru, 30_000),
    ("node.chunk_loop", bench_node_chunk_loop, 20_000),
    ("exec.fingerprint", bench_exec_fingerprint, 2_000),
    ("sched.bidding", bench_sched_bidding, 200),
    ("sched.netchannel", bench_net_channel, 20_000),
    ("lint.flow", bench_lint_flow, 150),
    ("topo.route", bench_topo_route, 100_000),
)


def run_kernel_bench(quick: bool = False) -> BenchReport:
    """All kernel micro-benchmarks as one ``kernel`` report."""
    scale = 10 if quick else 1
    repeats = 2 if quick else KERNEL_REPEATS
    records = tuple(
        bench(size // scale, repeats) for _, bench, size in KERNEL_BENCHES
    )
    return BenchReport(kind="kernel", records=records)
