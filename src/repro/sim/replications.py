"""Replicated simulation runs: mean ± confidence interval statistics.

A single discrete-event run is one sample from a stochastic system; the
paper plots single runs (standard for 2004), but a credible reproduction
should quantify run-to-run variance.  :func:`run_replications` executes
the same configuration under ``n`` different seeds and reports the
across-replication mean and Student-t confidence interval of every
headline metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from .config import SimulationConfig
from .runner import RunSpec, run_sweep
from .simulator import SimulationResult

if TYPE_CHECKING:  # pragma: no cover
    from ..exec.executor import Executor

#: Two-sided Student-t critical values at 95 % for small sample sizes
#: (index = degrees of freedom); avoids a scipy dependency in the core.
_T95 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447,
    7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228, 11: 2.201, 12: 2.179,
    13: 2.160, 14: 2.145, 15: 2.131, 20: 2.086, 25: 2.060, 30: 2.042,
}


def t_critical_95(dof: int) -> float:
    """Two-sided 95 % Student-t critical value (1.96 asymptotically)."""
    if dof <= 0:
        return math.nan
    if dof in _T95:
        return _T95[dof]
    best = max(k for k in _T95 if k <= dof) if dof > 1 else 1
    return _T95[best] if dof < 30 else 1.96


@dataclass(frozen=True)
class MetricEstimate:
    """Across-replication mean with a 95 % confidence half-width."""

    mean: float
    half_width: float
    n: int

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    @property
    def relative_half_width(self) -> float:
        if self.mean == 0:
            return math.nan
        return self.half_width / abs(self.mean)

    def __str__(self) -> str:
        return f"{self.mean:.4g} ± {self.half_width:.2g} (n={self.n})"


def estimate(samples: List[float]) -> MetricEstimate:
    """Mean ± 95 % CI half-width of i.i.d. replication samples."""
    data = np.asarray([s for s in samples if not math.isnan(s)], dtype=float)
    n = data.size
    if n == 0:
        return MetricEstimate(math.nan, math.nan, 0)
    mean = float(np.mean(data))
    if n == 1:
        return MetricEstimate(mean, math.nan, 1)
    std_error = float(np.std(data, ddof=1)) / math.sqrt(n)
    return MetricEstimate(mean, t_critical_95(n - 1) * std_error, n)


@dataclass
class ReplicatedResult:
    """Results of n seeds of one (config, policy) pair."""

    policy: str
    results: List[SimulationResult]
    estimates: Dict[str, MetricEstimate] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.results)

    @property
    def any_overloaded(self) -> bool:
        return any(r.overload.overloaded for r in self.results)

    @property
    def all_overloaded(self) -> bool:
        return all(r.overload.overloaded for r in self.results)


#: Metrics extracted per replication.
_METRICS = {
    "mean_speedup": lambda r: r.measured.mean_speedup,
    "mean_waiting": lambda r: r.measured.mean_waiting,
    "mean_waiting_excl_delay": lambda r: r.measured.mean_waiting_excl_delay,
    "mean_processing": lambda r: r.measured.mean_processing,
    "node_utilization": lambda r: r.node_utilization,
    "tertiary_redundancy": lambda r: r.tertiary_redundancy,
    "cache_hit_fraction": lambda r: r.cache_hit_fraction(),
}


def run_replications(
    config: SimulationConfig,
    policy: str,
    n_replications: int = 5,
    base_seed: int = 1000,
    executor: Optional["Executor"] = None,
    **policy_params,
) -> ReplicatedResult:
    """Run ``n_replications`` seeds and aggregate the headline metrics.

    Seeds are ``base_seed + i``; each replication draws an entirely fresh
    workload, so the CI captures both workload and scheduling variance.
    The replications run through the execution layer (``repro.exec``);
    ``executor`` sets the worker count, result cache and spec timeout.
    """
    if n_replications < 1:
        raise ValueError(f"n_replications must be >= 1, got {n_replications}")
    specs = [
        RunSpec.make(
            config.with_(seed=base_seed + index),
            policy,
            label=f"{policy}#seed{base_seed + index}",
            **policy_params,
        )
        for index in range(n_replications)
    ]
    sweep = run_sweep(specs, executor=executor)
    replicated = ReplicatedResult(
        policy=policy, results=[result for _, result in sweep.pairs()]
    )
    for name, extract in _METRICS.items():
        replicated.estimates[name] = estimate(
            [extract(result) for result in replicated.results]
        )
    return replicated


def compare_policies(
    config: SimulationConfig,
    policies: List[Tuple[str, dict]],
    n_replications: int = 5,
    base_seed: int = 1000,
    executor: Optional["Executor"] = None,
) -> Dict[str, ReplicatedResult]:
    """Replicated comparison of several policies on matched seeds.

    Matched seeds make the comparison paired: policy A's seed-k run and
    policy B's seed-k run see identically distributed workloads.
    """
    return {
        name: run_replications(
            config,
            name,
            n_replications=n_replications,
            base_seed=base_seed,
            executor=executor,
            **params,
        )
        for name, params in policies
    }
