"""repro — reproduction of Ponce & Hersch (IPDPS 2004), "Parallelization
and Scheduling of Data Intensive Particle Physics Analysis Jobs on
Clusters of PCs".

A discrete-event simulator of a PC cluster backed by tertiary mass
storage, the paper's seven job-parallelization/scheduling policies, the
LHCb-style analysis workload model, and a benchmark harness that
regenerates every figure of the paper's evaluation.

Quickstart::

    from repro import paper_config, run_simulation

    result = run_simulation(paper_config(arrival_rate_per_hour=1.0),
                            "out-of-order")
    print(result.brief())
"""

from .core import Engine, RandomStreams, units
from .core.errors import ReproError
from .cluster import Cluster, CostModel, DataSource, Node
from .exec import Executor, ExecStats, ResultCache, SpecError, make_cache
from .data import DataSpace, Interval, IntervalSet, LRUSegmentCache, TertiaryStorage
from .obs import (
    HookBus,
    TraceEvent,
    TraceRecorder,
    TraceSink,
    render_timeline,
    write_chrome_trace,
)
from .sched import available_policies, create_policy
from .sim import (
    RunSpec,
    Simulation,
    SimulationConfig,
    SimulationResult,
    SweepResult,
    load_sweep,
    paper_config,
    quick_config,
    run_simulation,
    run_sweep,
)
from .workload import (
    ErlangJobSize,
    HotspotStartDistribution,
    Job,
    JobRequest,
    Subjob,
    WorkloadGenerator,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "Engine",
    "RandomStreams",
    "units",
    "ReproError",
    # data
    "Interval",
    "IntervalSet",
    "DataSpace",
    "LRUSegmentCache",
    "TertiaryStorage",
    # cluster
    "CostModel",
    "DataSource",
    "Node",
    "Cluster",
    # workload
    "Job",
    "JobRequest",
    "Subjob",
    "ErlangJobSize",
    "HotspotStartDistribution",
    "WorkloadGenerator",
    # scheduling
    "available_policies",
    "create_policy",
    # observability
    "HookBus",
    "TraceEvent",
    "TraceSink",
    "TraceRecorder",
    "render_timeline",
    "write_chrome_trace",
    # simulation
    "SimulationConfig",
    "paper_config",
    "quick_config",
    "Simulation",
    "SimulationResult",
    "run_simulation",
    "RunSpec",
    "SweepResult",
    "run_sweep",
    "load_sweep",
    # execution layer
    "Executor",
    "ExecStats",
    "ResultCache",
    "SpecError",
    "make_cache",
]
