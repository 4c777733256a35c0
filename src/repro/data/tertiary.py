"""The shared tertiary mass-storage system (Castor stand-in).

The paper models Castor as a constant-rate source: tape latency is hidden
by Castor's own disk arrays, and each node sees a dedicated 1 MB/s stream
(§2.4).  There is therefore no contention to simulate — this class is an
accounting substrate: it meters how much data each policy pulled from
tertiary storage, which is exactly the quantity the delayed scheduler is
designed to minimise ("load the data from tertiary storage only once
during a given period").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..core.errors import InvariantViolation
from ..obs.hooks import NULL_BUS, HookBus, kinds
from .dataspace import DataSpace
from .intervals import Interval, IntervalSet


@dataclass
class TertiaryStats:
    """Aggregate counters of tertiary-storage traffic."""

    events_read: int = 0
    read_requests: int = 0
    #: Events read for the first time (never pulled from tape before).
    distinct_events_read: int = 0
    events_read_per_node: Dict[int, int] = field(default_factory=dict)

    @property
    def unique_fraction(self) -> float:
        """Fraction of tape traffic that was first-time reads (1.0 = no
        event re-fetched; the inverse of the redundancy factor)."""
        if self.events_read == 0:
            return 0.0
        return self.distinct_events_read / self.events_read


class TertiaryStorage:
    """Accounting model of the Castor tertiary storage system.

    Tracks total and per-node event reads plus the set of distinct events
    ever read, so experiments can report the redundancy factor
    ``events_read / distinct_events_read`` (1.0 = every event loaded at
    most once, the optimum of §5).
    """

    def __init__(self, dataspace: DataSpace, obs: HookBus = NULL_BUS) -> None:
        self.dataspace = dataspace
        self.stats = TertiaryStats()
        self.obs = obs
        self._distinct = IntervalSet()

    def read(
        self, node_id: int, interval: Interval, now: Optional[float] = None
    ) -> None:
        """Record that ``node_id`` streamed ``interval`` from tertiary
        storage (``now`` timestamps the trace event when tracing)."""
        if interval.end <= interval.start:
            return
        self.dataspace.validate_segment(interval)
        events = interval.end - interval.start
        stats = self.stats
        stats.events_read += events
        stats.read_requests += 1
        per_node = stats.events_read_per_node
        per_node[node_id] = per_node.get(node_id, 0) + events
        stats.distinct_events_read += self._distinct.add_measure(interval)
        if self.obs.enabled and now is not None:
            self.obs.emit(
                now,
                kinds.TAPE_READ,
                "tertiary",
                node=node_id,
                events=events,
                start=interval.start,
                end=interval.end,
            )

    def validate(self) -> None:
        """Deep sim-sanitizer check: the read counters balance.

        Total reads equal the sum of the per-node reads, and the
        incrementally kept distinct count equals the measure of the
        distinct-event set.  Raises :class:`InvariantViolation`; O(nodes +
        runs), called from the simulator's periodic probe in
        ``--check-invariants`` mode only.
        """
        stats = self.stats
        per_node = sum(stats.events_read_per_node.values())
        if stats.events_read != per_node:
            raise InvariantViolation(
                f"tertiary: events_read ({stats.events_read}) != sum of "
                f"per-node reads ({per_node})"
            )
        measure = self._distinct.measure()
        if stats.distinct_events_read != measure:
            raise InvariantViolation(
                f"tertiary: distinct_events_read "
                f"({stats.distinct_events_read}) != measure of the "
                f"distinct-event set ({measure})"
            )

    @property
    def distinct_events_read(self) -> int:
        """Number of distinct events ever pulled from tape.

        Maintained incrementally in :meth:`read` (mirrored on
        ``stats.distinct_events_read``); equals ``self._distinct.measure()``,
        which :meth:`validate` checks.
        """
        return self.stats.distinct_events_read

    @property
    def redundancy_factor(self) -> float:
        """Total reads / distinct reads (1.0 is the §5 optimum; large
        values mean the same data was re-fetched many times)."""
        distinct = self.distinct_events_read
        if distinct == 0:
            return 1.0
        return self.stats.events_read / distinct

    def __repr__(self) -> str:
        return (
            f"TertiaryStorage(read={self.stats.events_read} events, "
            f"distinct={self.distinct_events_read}, "
            f"redundancy={self.redundancy_factor:.2f})"
        )
