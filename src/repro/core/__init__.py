"""Core infrastructure: units, errors, RNG streams and the DES kernel."""

from .engine import Engine
from .errors import (
    CacheError,
    ConfigurationError,
    EngineError,
    IntervalError,
    InvariantViolation,
    ReproError,
    SchedulingError,
    WorkloadError,
)
from .events import EventPriority, ScheduledEvent
from .rng import RandomStreams
from . import units

__all__ = [
    "Engine",
    "EventPriority",
    "ScheduledEvent",
    "RandomStreams",
    "units",
    "ReproError",
    "ConfigurationError",
    "SchedulingError",
    "EngineError",
    "CacheError",
    "IntervalError",
    "InvariantViolation",
    "WorkloadError",
]
