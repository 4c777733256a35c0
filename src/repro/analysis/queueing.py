"""Analytic queueing models for the processing-farm baseline.

§3.1 of the paper: "A mathematical model can be established which
describes the cluster behavior as a special case of a M/Er/m queuing
system."  We implement the standard tools —

* Erlang-C (M/M/m waiting probability and mean wait), and
* the Allen–Cunneen approximation for M/G/m (exact for the M/M/m case),
  which for Erlang-k service (squared CV = 1/k) gives
  ``Wq(M/Ek/m) ≈ Wq(M/M/m) × (1 + 1/k) / 2``

— so the simulated farm can be validated against theory (see
``tests/test_queueing.py`` and the ``farmq`` experiment's verdict).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core.errors import ConfigurationError


def erlang_c(servers: int, offered_load: float) -> float:
    """Erlang-C formula: probability an arriving job must wait.

    ``offered_load`` is λ·E[S] in erlangs; must be < servers for a
    steady-state answer.

    >>> round(erlang_c(1, 0.5), 3)
    0.5
    """
    if servers < 1:
        raise ConfigurationError(f"servers must be >= 1, got {servers}")
    if offered_load < 0:
        raise ConfigurationError(f"offered load must be >= 0, got {offered_load}")
    if offered_load >= servers:
        return 1.0
    # Stable recurrence for the Erlang-B blocking probability…
    blocking = 1.0
    for k in range(1, servers + 1):
        blocking = (offered_load * blocking) / (k + offered_load * blocking)
    # …converted to Erlang-C.
    rho = offered_load / servers
    return blocking / (1.0 - rho + rho * blocking)


@dataclass(frozen=True)
class QueueingPrediction:
    """Mean steady-state quantities predicted for a multi-server queue."""

    servers: int
    arrival_rate: float  # jobs/second
    mean_service: float  # seconds
    utilization: float
    wait_probability: float
    mean_wait: float  # seconds in queue
    mean_sojourn: float  # queue + service

    @property
    def stable(self) -> bool:
        return self.utilization < 1.0


def mmc_wait(servers: int, arrival_rate: float, mean_service: float) -> QueueingPrediction:
    """Mean waiting time of an M/M/m queue (exponential service)."""
    if arrival_rate <= 0 or mean_service <= 0:
        raise ConfigurationError("arrival rate and service time must be > 0")
    offered = arrival_rate * mean_service
    rho = offered / servers
    if rho >= 1.0:
        return QueueingPrediction(
            servers, arrival_rate, mean_service, rho, 1.0, math.inf, math.inf
        )
    wait_probability = erlang_c(servers, offered)
    mean_wait = wait_probability * mean_service / (servers * (1.0 - rho))
    return QueueingPrediction(
        servers=servers,
        arrival_rate=arrival_rate,
        mean_service=mean_service,
        utilization=rho,
        wait_probability=wait_probability,
        mean_wait=mean_wait,
        mean_sojourn=mean_wait + mean_service,
    )


def mgc_wait_allen_cunneen(
    servers: int,
    arrival_rate: float,
    mean_service: float,
    service_scv: float,
    arrival_scv: float = 1.0,
) -> QueueingPrediction:
    """Allen–Cunneen approximation for G/G/m mean waiting time.

    ``service_scv``/``arrival_scv`` are squared coefficients of variation
    (Poisson arrivals → 1; Erlang-k service → 1/k).  Exact for M/M/m.
    """
    if service_scv < 0 or arrival_scv < 0:
        raise ConfigurationError("squared CVs must be >= 0")
    base = mmc_wait(servers, arrival_rate, mean_service)
    if not base.stable:
        return base
    factor = (arrival_scv + service_scv) / 2.0
    mean_wait = base.mean_wait * factor
    return QueueingPrediction(
        servers=servers,
        arrival_rate=arrival_rate,
        mean_service=mean_service,
        utilization=base.utilization,
        wait_probability=base.wait_probability,
        mean_wait=mean_wait,
        mean_sojourn=mean_wait + mean_service,
    )


def merlang_wait(
    servers: int,
    arrival_rate: float,
    mean_service: float,
    erlang_shape: int = 4,
) -> QueueingPrediction:
    """M/Er/m mean waiting time (Allen–Cunneen with SCV = 1/k).

    This is the analytic model of the paper's processing-farm baseline:
    ``servers`` nodes, Poisson arrivals, Erlang-``k`` job service times.
    """
    if erlang_shape < 1:
        raise ConfigurationError(f"erlang shape must be >= 1, got {erlang_shape}")
    return mgc_wait_allen_cunneen(
        servers=servers,
        arrival_rate=arrival_rate,
        mean_service=mean_service,
        service_scv=1.0 / erlang_shape,
    )
