"""Structured outcomes of the execution layer.

A batch run fills one slot per :class:`~repro.sim.runner.RunSpec`: either
the spec's :class:`~repro.sim.simulator.SimulationResult` or a
:class:`SpecError` describing why the worker failed after its retry
budget.  :class:`ExecStats` aggregates what the executor did (executed,
cache hits, resumed, retries), and :class:`Progress` is the payload of
the live per-completion callback.

This module deliberately imports nothing outside the standard library so
that :mod:`repro.sim.runner` can depend on it without an import cycle.
"""

from __future__ import annotations

import traceback as traceback_module
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
    attempts: int = 1

    def brief(self) -> str:
        """One-line summary for logs and progress output."""
        retries = f" after {self.attempts} attempts" if self.attempts > 1 else ""
        return f"{self.label}: {self.kind}: {self.message}{retries}"

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "message": self.message,
            "attempts": self.attempts,
        }

    @classmethod
    def from_exception(
        cls,
        error: BaseException,
        index: int,
        label: str,
        policy: str,
        attempts: int,
    ) -> "SpecError":
        return cls(
            index=index,
            label=label,
            policy=policy,
            kind=type(error).__name__,
            message=str(error),
            traceback="".join(
                traceback_module.format_exception(
                    type(error), error, error.__traceback__
                )
            ),
            attempts=attempts,
        )


@dataclass
class ExecStats:
    """What one executor batch did, slot by slot.

    ``executed + cache_hits + resumed`` equals ``total``; ``failed``
    counts executed slots that ended as :class:`SpecError` and ``retries``
    counts extra attempts beyond each slot's first.  ``timeouts`` counts
    the subset of failures killed by the executor's spec timeout.
    """

    total: int = 0
    executed: int = 0
    cache_hits: int = 0
    resumed: int = 0
    failed: int = 0
    retries: int = 0
    timeouts: int = 0
    wall_seconds: float = 0.0

    @property
    def skipped(self) -> int:
        """Slots satisfied without running a simulation."""
        return self.cache_hits + self.resumed

    def brief(self) -> str:
        """The one-line ``exec:`` summary printed by the CLI."""
        return (
            f"exec: total={self.total} executed={self.executed} "
            f"cache_hits={self.cache_hits} resumed={self.resumed} "
            f"failed={self.failed} retries={self.retries} "
            f"timeouts={self.timeouts} "
            f"wall={self.wall_seconds:.1f}s"
        )


@dataclass(frozen=True)
class Progress:
    """One completion, streamed to the progress callback as it happens.

    ``done`` counts completed slots so far (completion order, not spec
    order); ``cached`` is true when the slot was satisfied from the result
    cache or the resume journal; ``error`` is set when the slot failed.
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
