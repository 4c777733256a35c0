"""The benchmark's four workloads, each built from a seed.

Only ``repro``'s public entry points are used here, and no ``repro.perf``
helper: a change to the simulator's own bench tiers cannot silently change
what this benchmark runs.  Each workload stresses a different set of
layers (see README.md for the layer -> workload table):

* ``farm-1000``  -- 1000 nodes under farm at an offered rho ~0.89: the
  cluster and node layers (idle-node scans) do most of the work;
* ``paper-ooo``  -- the paper's 10-node cluster at the figure-5 load under
  out-of-order: the data layer (cache extents, intervals) dominates and the
  cluster scans cover only 10 nodes;
* ``grid-lossy`` -- 64 nodes on a 3-tier topology with a lossy control
  plane and node crashes: the only workload that reaches ``topo`` and
  ``faults``;
* ``sweep``      -- 30 small runs of all ten stock policies through the
  execution layer, cold and then warm from its result cache.

The workload names, and why each was chosen, are listed in
``BENCHMARK.json``.  ``scale`` shortens every horizon (the tests run at a
fraction of it); the benchmark always runs at ``scale=1``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple, Union

from repro import (
    Executor,
    RunSpec,
    Simulation,
    SimulationConfig,
    SimulationResult,
    SpecError,
    create_policy,
    make_cache,
    paper_config,
    quick_config,
)
from repro.sim.config import FaultConfig, NetFaultConfig
from repro.topo import topology_preset

HOUR = 3600.0
DAY = 24 * HOUR

#: The ten stock policies, named here rather than taken from the policy
#: registry, so a newly registered policy does not change the sweep.
SWEEP_POLICIES: Tuple[str, ...] = (
    "adaptive",
    "cache-splitting",
    "decentral",
    "decentral-nolocal",
    "delayed",
    "farm",
    "mixed",
    "out-of-order",
    "replication",
    "splitting",
)
SWEEP_LOADS: Tuple[float, ...] = (0.5, 1.0, 1.5)

#: Worker processes of the sweep's executor (at most ``nproc`` here).
SWEEP_JOBS = 2

def draw_seed(seed: int, draw: int) -> int:
    """The simulation seed of input ``draw`` of ``seed`` (``seed`` itself
    for draw 0).  ``run.py`` gives each timed sample of a one-run workload
    the next draw, so one run's throughput is a median over several inputs
    rather than hanging on how one input happens to split its jobs."""
    return seed + draw * 1_000_003


def farm_1000(seed: int, scale: float = 1.0) -> Tuple[SimulationConfig, str]:
    # Probes every 15 min so the overload verdict fits a backlog trend on a
    # 3 h horizon (the default 2 h probe leaves it too few samples).
    config = quick_config(
        n_nodes=1000,
        arrival_rate_per_hour=2000.0,
        chunk_events=100,
        mean_job_events=2000.0,
        duration=0.125 * DAY * scale,
        probe_interval=0.25 * HOUR,
        seed=seed,
    )
    return config, "farm"


def paper_ooo(seed: int, scale: float = 1.0) -> Tuple[SimulationConfig, str]:
    config = paper_config(
        arrival_rate_per_hour=1.6, duration=15 * DAY * scale, seed=seed
    )
    return config, "out-of-order"


def grid_lossy(seed: int, scale: float = 1.0) -> Tuple[SimulationConfig, str]:
    config = quick_config(
        n_nodes=64,
        arrival_rate_per_hour=128.0,
        duration=0.1 * DAY * scale,
        probe_interval=0.25 * HOUR,
        topology=topology_preset("depth3", "proactive-site"),
        net=NetFaultConfig(loss=0.1, duplicate=0.02, delay_mean=0.01, reorder=0.05),
        faults=FaultConfig(node_mtbf=2 * DAY, node_mttr=1 * HOUR),
        seed=seed,
    )
    return config, "out-of-order"


#: Workloads that are one simulation: name -> (seed, scale) -> config, policy.
SIMULATIONS: Dict[str, Callable[[int, float], Tuple[SimulationConfig, str]]] = {
    "farm-1000": farm_1000,
    "paper-ooo": paper_ooo,
    "grid-lossy": grid_lossy,
}


def sweep_specs(seed: int, scale: float = 1.0) -> List[RunSpec]:
    """The sweep's 30 points: every stock policy at three loads."""
    return [
        RunSpec.make(
            quick_config(
                arrival_rate_per_hour=load, duration=5 * DAY * scale, seed=seed
            ),
            policy,
        )
        for policy in SWEEP_POLICIES
        for load in SWEEP_LOADS
    ]


def prepare(
    name: str, seed: int, scale: float = 1.0, draw: int = 0
) -> Union[Simulation, List[RunSpec]]:
    """Everything before the first simulated event: the ``Simulation``
    of a one-run workload at ``draw``, or the specs of the sweep."""
    if name == "sweep":
        return sweep_specs(seed, scale)
    config, policy = SIMULATIONS[name](draw_seed(seed, draw), scale)
    return Simulation(config, create_policy(policy))


def execute(
    prepared: Union[Simulation, List[RunSpec]],
    cache_dir: str,
    jobs: int = SWEEP_JOBS,
) -> List[Union[SimulationResult, SpecError]]:
    """Run a prepared workload; the sweep runs cold into ``cache_dir``."""
    if isinstance(prepared, Simulation):
        return [prepared.run()]
    return Executor(jobs=jobs, cache=make_cache(cache_dir)).run(prepared).results
