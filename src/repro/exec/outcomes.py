"""Structured outcomes of the execution layer.

A batch run fills one slot per :class:`~repro.sim.runner.RunSpec`: either
the spec's :class:`~repro.sim.simulator.SimulationResult` or a
:class:`SpecError` describing why its one run failed or timed out.
:class:`ExecStats` aggregates what the executor did (executed, cache
hits, failures, timeouts), and :class:`Progress` is the payload of the live
per-completion callback.

This module deliberately imports nothing outside the standard library so
that :mod:`repro.sim.runner` can depend on it without an import cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


@dataclass(frozen=True)
class SpecError:
    """One spec's failure, attached to its sweep slot instead of raised.

    A worker exception is captured with its type, message and formatted
    traceback so the parent process can report it even though the original
    exception object never crosses the process boundary.
    """

    index: int
    label: str
    policy: str
    kind: str
    message: str
    traceback: str = ""

    def brief(self) -> str:
        """One-line summary for logs and progress output."""
        return f"{self.label}: {self.kind}: {self.message}"

    def as_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "message": self.message}


@dataclass
class ExecStats:
    """What one executor batch did, slot by slot.

    ``executed + cache_hits`` equals ``total``; ``failed`` counts executed
    slots that ended as :class:`SpecError`, and ``timeouts`` counts the
    subset of failures killed by the executor's spec timeout.
    """

    total: int = 0
    executed: int = 0
    cache_hits: int = 0
    failed: int = 0
    timeouts: int = 0
    wall_seconds: float = 0.0

    def brief(self) -> str:
        """The one-line ``exec:`` summary printed by the CLI."""
        return (
            f"exec: total={self.total} executed={self.executed} "
            f"cache_hits={self.cache_hits} "
            f"failed={self.failed} timeouts={self.timeouts} "
            f"wall={self.wall_seconds:.1f}s"
        )


@dataclass(frozen=True)
class Progress:
    """One completion, streamed to the progress callback as it happens.

    ``done`` counts completed slots so far (completion order, not spec
    order); ``cached`` is true when the slot was satisfied from the result
    cache; ``error`` is set when the slot failed.
    """

    done: int
    total: int
    index: int
    label: str
    brief: str
    cached: bool = False
    error: Optional[SpecError] = None


@dataclass
class ExecOutcome:
    """Everything one executor batch produced: ordered slots + stats."""

    #: One entry per input spec, in spec order — ``SimulationResult`` or
    #: :class:`SpecError` (never missing).
    results: List[Any] = field(default_factory=list)
    stats: ExecStats = field(default_factory=ExecStats)

    @property
    def errors(self) -> List[SpecError]:
        return [slot for slot in self.results if isinstance(slot, SpecError)]
