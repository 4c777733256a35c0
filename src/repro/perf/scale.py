"""End-to-end benchmarks: whole simulation runs, each in a fresh child.

The ``kernel`` report times the simulator's hot paths one at a time.
This ``scale`` report times whole ``run_simulation`` calls.  Every point
is a :class:`BenchPoint` — a record name, a
:class:`~repro.sim.config.SimulationConfig` and a policy — and reports
wall time, engine-event throughput **and peak RSS**, so CI catches both
a slowdown and a memory-bound regression (e.g. a per-job list sneaking
back into the metrics path).  The points (:func:`bench_points`):

* ``sim.scale.n10`` / ``n100`` / ``n1000`` — farm at 10, 100 and 1000
  nodes with the load scaled to the cluster (``n1000`` in full mode
  only);
* ``sim.quick.<policy>`` — every stock policy on ``quick_config()``;
* ``sim.tier.d1`` / ``d2`` / ``d3`` — out-of-order on an 8-node grid at
  topology depth 1, 2 and 3, pricing the tiered data path per level.

Design notes, documented in docs/SCALING.md:

* **The cluster-size points run farm.**  At 100 nodes out-of-order runs
  about 10x slower per engine event than farm (its cache split and
  donor search visit every node per arrival), so it would measure the
  policy's scan, not the scaling of the kernel every policy shares.
* **Each point runs in a fresh spawned child process.**  A peak RSS
  is monotone over a process lifetime, so measuring two points in one
  process would report the larger peak for both.  A ``spawn`` (not
  ``fork``) child gets a fresh address space whose high-water mark
  (:func:`~repro.perf.report.peak_rss_kb`) is its own; the parent
  never pays the simulation's memory.
* **Throughput counts engine events**, not data events: one unit for
  every policy and cluster size (data events/s spreads 18x across
  policies on the same workload).

For a profile of where a run's time goes, use the repository benchmark:
``python bench/run.py --trace 1`` splits self time across layers.

>>> point = scale_point(4, duration_days=0.05)
>>> record = bench_point(point, in_process=True)
>>> record.name
'sim.scale.n4'
>>> record.unit
'events'
>>> record.rss_kb is not None and record.rss_kb > 0
True
"""

from __future__ import annotations

import multiprocessing
from typing import Dict, NamedTuple, Optional, Tuple

from ..core import units
from ..sched import available_policies
from ..sim.config import SimulationConfig, quick_config
from ..sim.simulator import run_simulation
from .report import BenchRecord, BenchReport, peak_rss_kb

#: Cluster sizes of the full scale tier (``repro bench --kind scale``).
SCALE_SIZES: Tuple[int, ...] = (10, 100, 1000)

#: Subset run in ``--quick`` mode (CI smoke: seconds, not half a minute).
QUICK_SCALE_SIZES: Tuple[int, ...] = (10, 100)

#: Simulated days per cluster size.  Large clusters drain proportionally
#: more jobs per simulated hour, so the horizon shrinks as the size
#: grows to keep each point's wall time comparable.
SCALE_DURATION_DAYS: Dict[int, float] = {10: 2.0, 100: 2.0, 1000: 0.5}

#: Scheduling policy of the cluster-size points (see the module docstring).
SCALE_POLICY = "farm"

#: Offered load per node per hour.  2.5 jobs/node/hour on the quick
#: cost model puts utilization near (but below) saturation, so the
#: calendar and metrics paths are exercised under realistic pressure.
SCALE_JOBS_PER_NODE_HOUR = 2.5


class BenchPoint(NamedTuple):
    """One end-to-end benchmark: the record name and the run it times."""

    name: str
    config: SimulationConfig
    policy: str


def scale_config(
    n_nodes: int, duration_days: Optional[float] = None
) -> SimulationConfig:
    """The scale-tier configuration for one cluster size.

    The quick cost model with the arrival rate scaled linearly in the
    node count, finer chunking (more engine events per job), and a
    dedicated seed so the tier's workloads are not correlated with any
    test fixture.
    """
    if duration_days is None:
        duration_days = SCALE_DURATION_DAYS.get(n_nodes, 1.0)
    return quick_config(
        n_nodes=n_nodes,
        arrival_rate_per_hour=SCALE_JOBS_PER_NODE_HOUR * n_nodes,
        chunk_events=100,
        mean_job_events=2_000.0,
        duration=duration_days * units.DAY,
        seed=7,
    )


def tier_config(depth: int) -> SimulationConfig:
    """The tiered workload at a given topology depth.

    Depth 1 is the flat preset (trivially skipped data path), so the
    ``sim.tier.d1`` / ``d2`` / ``d3`` records price exactly the overhead
    the :class:`~repro.topo.planner.TieredPlanner` adds per level.
    """
    from ..topo.spec import topology_preset

    preset = {1: "flat", 2: "depth2", 3: "depth3"}[depth]
    return quick_config(
        n_nodes=8,
        duration=4 * units.DAY,
        arrival_rate_per_hour=4.0,
        seed=7,
        topology=topology_preset(preset, "lru-rack"),
    )


def scale_point(
    n_nodes: int, duration_days: Optional[float] = None
) -> BenchPoint:
    """The ``sim.scale.n<nodes>`` point: farm on :func:`scale_config`."""
    config = scale_config(n_nodes, duration_days)
    return BenchPoint(f"sim.scale.n{n_nodes}", config, SCALE_POLICY)


def bench_points(quick: bool = False) -> Tuple[BenchPoint, ...]:
    """Every point of the ``scale`` report, in report order.

    Quick mode drops only the 1000-node point, so each quick record has
    a full-mode record of the same name in the committed baseline.
    """
    sizes = QUICK_SCALE_SIZES if quick else SCALE_SIZES
    return (
        *(scale_point(n_nodes) for n_nodes in sizes),
        *(
            BenchPoint(f"sim.quick.{policy}", quick_config(), policy)
            for policy in available_policies()
        ),
        *(
            BenchPoint(f"sim.tier.d{depth}", tier_config(depth), "out-of-order")
            for depth in (1, 2, 3)
        ),
    )


#: What a child sends back: (wall seconds, engine events, peak RSS KiB).
_Payload = Tuple[float, int, int]


def _point_payload(config: SimulationConfig, policy: str) -> _Payload:
    """Run one point and summarise it (runs inside the child)."""
    result = run_simulation(config, policy)
    return result.wall_seconds, result.engine_events, peak_rss_kb()


def _point_child(
    conn: "multiprocessing.connection.Connection",
    config: SimulationConfig,
    policy: str,
) -> None:  # pragma: no cover - exercised via spawn in bench_point
    try:
        conn.send(_point_payload(config, policy))
    finally:
        conn.close()


def _run_in_child(point: BenchPoint) -> _Payload:
    """One point in a fresh ``spawn`` child (clean ``ru_maxrss``)."""
    context = multiprocessing.get_context("spawn")
    parent_conn, child_conn = context.Pipe(duplex=False)
    process = context.Process(
        target=_point_child, args=(child_conn, point.config, point.policy)
    )
    process.start()
    child_conn.close()
    try:
        payload: _Payload = parent_conn.recv()
    except EOFError:
        process.join()
        raise RuntimeError(
            f"benchmark child for {point.name} died with exit code "
            f"{process.exitcode}"
        ) from None
    finally:
        parent_conn.close()
    process.join()
    return payload


def bench_point(point: BenchPoint, in_process: bool = False) -> BenchRecord:
    """Benchmark one point end-to-end, once; work is engine events.

    The run happens in a fresh spawned child process so ``rss_kb`` is
    its true peak.  ``in_process=True`` skips the child — cheaper for
    tests and doctests, but then ``rss_kb`` inherits this process's
    monotone peak.
    """
    if in_process:
        wall, events, rss_kb = _point_payload(point.config, point.policy)
    else:
        wall, events, rss_kb = _run_in_child(point)
    return BenchRecord(
        name=point.name,
        wall_seconds=wall,
        work=events,
        unit="events",
        repeats=1,
        rss_kb=rss_kb,
    )


def run_scale_bench(quick: bool = False) -> BenchReport:
    """Every point of :func:`bench_points` as one ``scale`` report."""
    records = tuple(bench_point(point) for point in bench_points(quick))
    return BenchReport(kind="scale", records=records)
