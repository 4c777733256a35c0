"""Simulation configuration with the paper's defaults (§2.4).

One frozen dataclass carries every knob of a run; derived objects
(data space, cost model, distributions) are built from it on demand so a
config remains a plain, serialisable value.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Optional, Tuple

from ..core import units
from ..core.errors import ConfigurationError
from ..cluster.costmodel import CostModel
from ..data.dataspace import DataSpace
from ..topo.spec import TopologySpec
from ..workload.distributions import (
    ErlangJobSize,
    HotRegion,
    HotspotStartDistribution,
)


@dataclass(frozen=True)
class ScriptedFault:
    """One trace-driven fault for deterministic tests and replays.

    ``kind`` is ``"crash"`` (node ``node_id`` fails at ``time`` and
    recovers ``duration`` seconds later) or ``"stall"`` (tertiary storage
    degrades cluster-wide for ``duration`` seconds; ``node_id`` ignored).
    """

    time: float
    duration: float
    kind: str = "crash"
    node_id: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("crash", "stall"):
            raise ConfigurationError(
                f"fault kind must be 'crash' or 'stall', got {self.kind!r}"
            )
        if self.time < 0:
            raise ConfigurationError(f"fault time must be >= 0, got {self.time}")
        if self.duration <= 0:
            raise ConfigurationError(
                f"fault duration must be > 0, got {self.duration}"
            )


@dataclass(frozen=True)
class FaultConfig:
    """Fault-injection parameters (the ``repro.faults`` subsystem).

    Node crashes follow independent per-node alternating renewal
    processes: up times ~ Exp(``node_mtbf``), down times ~ Exp(``node_mttr``)
    drawn from the ``faults.node<i>`` RNG streams.  Tertiary stalls are a
    cluster-wide process from the ``faults.tertiary`` stream: gaps ~
    Exp(``stall_interval``), durations ~ Exp(``stall_duration``), during
    which tertiary reads slow down by ``stall_slowdown``.  ``scripted``
    faults replace the stochastic processes entirely (trace-driven tests).

    Recovery: an aborted subjob is retried after an exponential backoff
    ``retry_backoff_base * retry_backoff_factor**(attempt-1)`` capped at
    ``retry_backoff_max``; ``max_retries = 0`` means unlimited.
    """

    #: Mean time between failures per node (0 disables crashes).
    node_mtbf: float = 1 * units.DAY
    #: Mean time to repair per node.
    node_mttr: float = 2 * units.HOUR
    #: Whether a crash loses the node's disk cache contents.
    wipe_cache_on_failure: bool = False
    #: Mean time between tertiary stalls (0 disables stalls).
    stall_interval: float = 0.0
    #: Mean stall duration.
    stall_duration: float = 10 * units.MINUTE
    #: Per-event time multiplier for tertiary reads during a stall.
    stall_slowdown: float = 4.0
    #: First retry delay after an abort.
    retry_backoff_base: float = 60.0
    #: Backoff growth factor per failed attempt.
    retry_backoff_factor: float = 2.0
    #: Backoff ceiling.
    retry_backoff_max: float = 1 * units.HOUR
    #: Retry budget per subjob (0 = unlimited).
    max_retries: int = 0
    #: Trace-driven faults; non-empty disables the stochastic processes.
    scripted: Tuple[ScriptedFault, ...] = ()

    def __post_init__(self) -> None:
        if self.node_mtbf < 0 or self.node_mttr <= 0:
            raise ConfigurationError(
                f"need node_mtbf >= 0 and node_mttr > 0, got "
                f"mtbf={self.node_mtbf}, mttr={self.node_mttr}"
            )
        if self.stall_interval < 0 or self.stall_duration <= 0:
            raise ConfigurationError(
                f"need stall_interval >= 0 and stall_duration > 0, got "
                f"interval={self.stall_interval}, duration={self.stall_duration}"
            )
        if self.stall_slowdown < 1.0:
            raise ConfigurationError(
                f"stall_slowdown must be >= 1.0, got {self.stall_slowdown}"
            )
        if self.retry_backoff_base <= 0 or self.retry_backoff_factor < 1.0:
            raise ConfigurationError(
                f"need retry_backoff_base > 0 and retry_backoff_factor >= 1, "
                f"got base={self.retry_backoff_base}, "
                f"factor={self.retry_backoff_factor}"
            )
        if self.retry_backoff_max < self.retry_backoff_base:
            raise ConfigurationError(
                "retry_backoff_max must be >= retry_backoff_base "
                f"({self.retry_backoff_max} < {self.retry_backoff_base})"
            )
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )


@dataclass(frozen=True)
class NetFaultConfig:
    """Control-plane unreliability parameters (``repro.faults.net``).

    Every scheduler↔node control message (central dispatch/report,
    decentral grants and standing-bid posts) is routed through a
    :class:`~repro.faults.net.ControlChannel` that drops, duplicates,
    reorders and delays messages with the probabilities below, drawn from
    the dedicated ``faults.net.*`` RNG streams.  The hardened protocols
    recover via ack+retransmit with exponential backoff
    (``ack_timeout * ack_backoff_factor**(attempt-1)`` capped at
    ``ack_timeout_max``), give up after ``retransmit_budget`` retransmits
    (dead-letter: the work is re-pended, never stranded), and detect a
    dead arbiter after ``lease_misses`` consecutive lost lease beats
    (every ``lease_interval`` seconds) with a deterministic failover
    re-election.
    """

    #: Per-transmission loss probability (applies to acks too).
    loss: float = 0.0
    #: Probability a transmitted copy is spontaneously duplicated.
    duplicate: float = 0.0
    #: Mean exponential one-way delivery delay in seconds (0 = immediate).
    delay_mean: float = 0.0
    #: Probability a copy is held back past later traffic (reordering).
    reorder: float = 0.0
    #: Extra delay window applied to a reordered copy.
    reorder_window: float = 0.25
    #: First retransmit timeout after an unacknowledged send.
    ack_timeout: float = 1.0
    #: Retransmit timeout growth factor per attempt.
    ack_backoff_factor: float = 2.0
    #: Retransmit timeout ceiling.
    ack_timeout_max: float = 30.0
    #: Retransmits before a message is dead-lettered (completion reports
    #: retransmit without budget — losing ground truth is never an option).
    retransmit_budget: int = 8
    #: Arbiter lease heartbeat interval (decentral mode).
    lease_interval: float = 60.0
    #: Consecutive lost lease beats that trigger a failover re-election.
    lease_misses: int = 3

    def __post_init__(self) -> None:
        for name in ("loss", "duplicate", "reorder"):
            value = getattr(self, name)
            if not (0.0 <= value < 1.0):
                raise ConfigurationError(
                    f"net {name} probability must be in [0, 1), got {value}"
                )
        if self.delay_mean < 0 or self.reorder_window < 0:
            raise ConfigurationError(
                f"net delays must be >= 0, got delay_mean={self.delay_mean}, "
                f"reorder_window={self.reorder_window}"
            )
        if self.ack_timeout <= 0 or self.ack_backoff_factor < 1.0:
            raise ConfigurationError(
                f"need ack_timeout > 0 and ack_backoff_factor >= 1, got "
                f"timeout={self.ack_timeout}, factor={self.ack_backoff_factor}"
            )
        if self.ack_timeout_max < self.ack_timeout:
            raise ConfigurationError(
                "ack_timeout_max must be >= ack_timeout "
                f"({self.ack_timeout_max} < {self.ack_timeout})"
            )
        if self.retransmit_budget < 1:
            raise ConfigurationError(
                f"retransmit_budget must be >= 1, got {self.retransmit_budget}"
            )
        if self.lease_interval <= 0 or self.lease_misses < 1:
            raise ConfigurationError(
                f"need lease_interval > 0 and lease_misses >= 1, got "
                f"interval={self.lease_interval}, misses={self.lease_misses}"
            )

    @property
    def enabled(self) -> bool:
        """Whether any fault dimension is actually active.

        An all-zero config is the perfect network: the simulator builds
        no control channel for it, so the run draws no random numbers
        and schedules no events on the control plane.
        """
        return (
            self.loss > 0
            or self.duplicate > 0
            or self.delay_mean > 0
            or self.reorder > 0
        )


@dataclass(frozen=True)
class SimulationConfig:
    """All parameters of one simulation run.

    Defaults reproduce the paper's §2.4 setup: 10 identical nodes, 100 GB
    disk caches, 2 TB data space of 600 KB events, 0.2 s CPU per event,
    10 MB/s disks, 1 MB/s tertiary streams, Erlang-4 job sizes with mean
    40 000 events (mode 30 000 — see DESIGN.md §2), two hot regions
    holding 50 % of the job start points in 10 % of the space, Poisson
    arrivals.
    """

    # -- randomness -----------------------------------------------------------
    seed: int = 0

    # -- cluster ---------------------------------------------------------------
    n_nodes: int = 10
    cache_bytes: int = 100 * units.GB
    node_speed_factors: Optional[Tuple[float, ...]] = None

    # -- data ------------------------------------------------------------------
    total_data_bytes: int = 2 * units.TB
    event_bytes: int = 600 * units.KB

    # -- hardware timing ---------------------------------------------------------
    cpu_time_per_event: float = 0.2
    disk_throughput: float = 10 * units.MB  # bytes/second
    tertiary_throughput: float = 1 * units.MB
    network_throughput: float = 125 * units.MB
    pipelined_io: bool = False
    #: Per-tertiary-request setup latency (tape positioning); the paper
    #: assumes Castor's disk arrays hide it (0.0).
    tertiary_latency_s: float = 0.0

    # -- workload -----------------------------------------------------------------
    arrival_rate_per_hour: float = 1.0
    mean_job_events: float = 40_000.0
    erlang_shape: int = 4
    hot_regions: Tuple[Tuple[float, float], ...] = ((0.20, 0.05), (0.60, 0.05))
    hot_weight: float = 0.5

    # -- scheduling granularity -------------------------------------------------------
    min_subjob_events: int = 10
    chunk_events: int = 2000

    # -- run control ---------------------------------------------------------------
    duration: float = 40 * units.DAY
    warmup_fraction: float = 0.25
    probe_interval: float = 2 * units.HOUR

    # -- fault injection --------------------------------------------------------
    #: ``None`` simulates the paper's implicitly perfect cluster.
    faults: Optional[FaultConfig] = None
    #: ``None`` simulates the paper's implicitly perfect control LAN.
    net: Optional[NetFaultConfig] = None

    # -- hierarchical topology (repro.topo) --------------------------------------
    #: ``None`` (or a trivial depth-1 spec) simulates the paper's flat
    #: cluster: every node one disk hop from the shared tertiary store.
    topology: Optional[TopologySpec] = None

    # -- validation -------------------------------------------------------------------

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ConfigurationError(f"n_nodes must be >= 1, got {self.n_nodes}")
        if self.cache_bytes < 0:
            raise ConfigurationError(f"cache_bytes must be >= 0, got {self.cache_bytes}")
        if self.arrival_rate_per_hour <= 0:
            raise ConfigurationError(
                f"arrival_rate_per_hour must be > 0, got {self.arrival_rate_per_hour}"
            )
        if not (0.0 <= self.warmup_fraction < 1.0):
            raise ConfigurationError(
                f"warmup_fraction must be in [0, 1), got {self.warmup_fraction}"
            )
        if self.duration <= 0:
            raise ConfigurationError(f"duration must be > 0, got {self.duration}")
        if self.min_subjob_events < 1:
            raise ConfigurationError(
                f"min_subjob_events must be >= 1, got {self.min_subjob_events}"
            )
        if self.chunk_events < self.min_subjob_events:
            raise ConfigurationError(
                "chunk_events must be >= min_subjob_events "
                f"({self.chunk_events} < {self.min_subjob_events})"
            )
        if self.mean_job_events * self.event_bytes > self.total_data_bytes:
            raise ConfigurationError("mean job larger than the data space")
        if self.tertiary_latency_s < 0:
            raise ConfigurationError(
                f"tertiary_latency_s must be >= 0, got {self.tertiary_latency_s}"
            )

    # -- derived objects ---------------------------------------------------------------

    def dataspace(self) -> DataSpace:
        return DataSpace.from_bytes(self.total_data_bytes, self.event_bytes)

    def cost_model(self) -> CostModel:
        return CostModel.from_hardware(
            event_bytes=self.event_bytes,
            cpu_time_per_event=self.cpu_time_per_event,
            disk_throughput=self.disk_throughput,
            tertiary_throughput=self.tertiary_throughput,
            network_throughput=self.network_throughput,
            pipelined=self.pipelined_io,
            tertiary_latency=self.tertiary_latency_s,
        )

    def job_size_distribution(self) -> ErlangJobSize:
        return ErlangJobSize(self.mean_job_events, self.erlang_shape)

    def start_distribution(self) -> HotspotStartDistribution:
        return HotspotStartDistribution(
            self.dataspace(),
            regions=tuple(HotRegion(s, l) for s, l in self.hot_regions),
            hot_weight=self.hot_weight,
        )

    # -- derived scalars ---------------------------------------------------------------

    @property
    def cache_events(self) -> int:
        """Per-node disk cache capacity in whole events."""
        return int(self.cache_bytes // self.event_bytes)

    @property
    def warmup_time(self) -> float:
        return self.duration * self.warmup_fraction

    @property
    def mean_service_time_uncached(self) -> float:
        """Expected single-node no-cache job time (the paper's 32 000 s)."""
        return self.mean_job_events * self.cost_model().uncached_event_time

    @property
    def mean_service_time_cached(self) -> float:
        return self.mean_job_events * self.cost_model().cached_event_time

    @property
    def max_theoretical_load_per_hour(self) -> float:
        """All CPUs busy, all data cached (the paper's 3.46 jobs/h)."""
        return self.n_nodes * units.HOUR / self.mean_service_time_cached

    @property
    def offered_load_fraction(self) -> float:
        """Offered load relative to the theoretical maximum."""
        return self.arrival_rate_per_hour / self.max_theoretical_load_per_hour

    # -- convenience ----------------------------------------------------------------------

    def with_(self, **changes) -> "SimulationConfig":
        """A modified copy (thin wrapper over dataclasses.replace)."""
        return replace(self, **changes)

    def to_dict(self) -> dict:
        return asdict(self)


def paper_config(**overrides) -> SimulationConfig:
    """The §2.4 reference configuration, with keyword overrides."""
    return SimulationConfig(**overrides)


def quick_config(**overrides) -> SimulationConfig:
    """A reduced-scale configuration for tests and smoke benches.

    Scales the data space, caches and job sizes down by ~20x while
    preserving the paper's ratios (cache/data ≈ 5 %, job/data ≈ 1.2 %,
    caching factor 3.08), so policy behaviour is qualitatively unchanged
    but runs take milliseconds.
    """
    defaults = dict(
        total_data_bytes=100 * units.GB,
        cache_bytes=5 * units.GB,
        mean_job_events=2_000.0,
        min_subjob_events=10,
        chunk_events=200,
        duration=10 * units.DAY,
        arrival_rate_per_hour=1.0,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)
