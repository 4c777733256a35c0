"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so
applications embedding the simulator can catch one base class.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigurationError(ReproError):
    """A simulation configuration is inconsistent or out of range."""


class SchedulingError(ReproError):
    """A scheduling policy violated an invariant (e.g. double-started a
    subjob, released a job's last node, or scheduled work on a busy node)."""


class EngineError(ReproError):
    """The discrete-event engine was used incorrectly (e.g. scheduling an
    event in the past, or running a finished engine)."""


class CacheError(ReproError):
    """A disk-cache operation violated an invariant (e.g. inserting an
    extent larger than the cache capacity)."""


class IntervalError(ReproError):
    """An interval operation received malformed bounds."""


class WorkloadError(ReproError):
    """A workload description or trace is malformed."""


class ObsError(ReproError):
    """The observability layer was misused (e.g. attaching a sink to the
    shared null bus, or exporting a trace with no recorded events)."""


class InvariantViolation(ReproError):
    """A runtime sim-sanitizer check failed (``--check-invariants``):
    non-monotone event dispatch, corrupted cache accounting, an illegal
    subjob state transition, or a double-assigned subjob.  Always a bug in
    the simulator or a policy, never a user error."""


class ExecError(ReproError):
    """The execution layer (``repro.exec``) failed a batch: one or more
    specs errored in ``raise`` mode, or the result cache is unusable."""
