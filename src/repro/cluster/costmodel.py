"""Per-event timing model.

The paper's simulator charges each event a data-transfer time plus a CPU
time, with three possible data sources:

* node **disk cache** (10 MB/s → 0.06 s/event),
* **tertiary** storage (1 MB/s per node stream → 0.6 s/event),
* a **remote** node's disk over Gigabit Ethernet (§4.2; disk-bound, plus
  a small wire time).

With the paper's 0.2 s CPU per event this yields 0.26 s (cached) and
0.8 s (uncached) per event — reproducing the paper's anchors: caching
factor "slightly larger than 3" (3.08), 32 000 s single-node uncached job
time, 3.46 jobs/hour theoretical maximal load.

``pipelined=True`` implements the §7 "future work" extension: transfer and
computation of successive events overlap, so the per-event cost becomes
``max(transfer, cpu)`` instead of their sum.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..core.errors import ConfigurationError


class DataSource(enum.Enum):
    """Where a chunk's events are read from."""

    CACHE = "cache"  # local disk cache hit
    TERTIARY = "tertiary"  # streamed from mass storage
    REMOTE = "remote"  # read from another node's disk cache
    TIER = "tier"  # served by an interior tier cache (repro.topo)

    #: Members are singletons compared by identity, so identity hashing is
    #: exact.  It runs in C, where :class:`enum.Enum`'s name hash is a
    #: Python-level call on every source-keyed dict access of the chunk
    #: loop.
    __hash__ = object.__hash__


@dataclass(frozen=True)
class CostModel:
    """Per-event timing for each data source.

    All times are seconds per event for a speed-factor-1.0 node.
    """

    cpu_time: float = 0.2
    disk_time: float = 0.06
    tertiary_time: float = 0.6
    network_time: float = 0.0048
    pipelined: bool = False
    #: Fixed setup latency per tertiary read request (tape positioning /
    #: Castor staging).  The paper sets this to zero ("we do not take the
    #: tertiary storage system data access latency into account"); the
    #: ``ablate-tape-latency`` experiment sweeps it.
    tertiary_latency: float = 0.0

    def __post_init__(self) -> None:
        for name in (
            "cpu_time",
            "disk_time",
            "tertiary_time",
            "network_time",
            "tertiary_latency",
        ):
            value = getattr(self, name)
            if value < 0:
                raise ConfigurationError(f"{name} must be >= 0, got {value}")

    @classmethod
    def from_hardware(
        cls,
        event_bytes: int,
        cpu_time_per_event: float = 0.2,
        disk_throughput: float = 10e6,
        tertiary_throughput: float = 1e6,
        network_throughput: float = 125e6,
        pipelined: bool = False,
        tertiary_latency: float = 0.0,
    ) -> "CostModel":
        """Derive per-event times from hardware rates (bytes/second).

        >>> CostModel.from_hardware(600_000).uncached_event_time
        0.8
        """
        if min(disk_throughput, tertiary_throughput, network_throughput) <= 0:
            raise ConfigurationError("throughputs must be > 0")
        return cls(
            cpu_time=cpu_time_per_event,
            disk_time=event_bytes / disk_throughput,
            tertiary_time=event_bytes / tertiary_throughput,
            network_time=event_bytes / network_throughput,
            pipelined=pipelined,
            tertiary_latency=tertiary_latency,
        )

    def setup_latency(self, source: DataSource) -> float:
        """Fixed per-chunk setup time for ``source`` (tape positioning)."""
        return self.tertiary_latency if source is DataSource.TERTIARY else 0.0

    # -- per-source times --------------------------------------------------

    def transfer_time(self, source: DataSource) -> float:
        """Data movement seconds per event for ``source``."""
        if source is DataSource.CACHE:
            return self.disk_time
        if source is DataSource.TERTIARY:
            return self.tertiary_time
        if source is DataSource.REMOTE:
            # Remote disk read: bound by the owner's disk, plus wire time.
            return self.disk_time + self.network_time
        if source is DataSource.TIER:
            # Tier caches are disk pools: the read is disk-bound at the
            # serving tier; traversed-link times ride the chunk's
            # rate_factor (set by repro.topo.planner from the path).
            return self.disk_time
        raise ConfigurationError(f"unknown source {source!r}")

    def event_time(self, source: DataSource, speed_factor: float = 1.0) -> float:
        """Total seconds per event on a node of the given speed factor.

        ``speed_factor`` scales the whole per-event cost (a 2.0 node is
        twice as slow); the default homogeneous cluster uses 1.0
        everywhere, matching the paper's "all nodes are identical".
        """
        transfer = self.transfer_time(source)
        if self.pipelined:
            base = max(transfer, self.cpu_time)
        else:
            base = transfer + self.cpu_time
        return base * speed_factor

    # -- derived quantities -------------------------------------------------

    @property
    def cached_event_time(self) -> float:
        """Seconds per event when data is on the local disk (0.26 s)."""
        return self.event_time(DataSource.CACHE)

    @property
    def uncached_event_time(self) -> float:
        """Seconds per event when data comes from tertiary storage
        (0.8 s) — also the paper's speedup reference rate."""
        return self.event_time(DataSource.TERTIARY)

    @property
    def caching_speedup(self) -> float:
        """Maximal speedup factor attributable to caching (≈ 3.08)."""
        return self.uncached_event_time / self.cached_event_time
