"""The unified execution layer (``repro.exec``).

Every paper figure is a sweep of dozens-to-hundreds of independent
simulations; this package is the one owner of how such batches run.
:class:`Executor` provides serial and process-pool backends behind a
single API with streamed completions, per-spec crash isolation
(:class:`SpecError` slots instead of aborted pools), a per-spec timeout
and a content-addressed :class:`ResultCache` (``.repro-cache/``).  Each
spec runs once: a seeded point that fails would fail the same way again.
The cache is the checkpoint of an interrupted sweep: running the same
sweep again executes only the points it does not hold, failed ones
included.  An :class:`Executor` is the one way to say how a sweep runs:
every sweep function takes ``executor=`` (``None`` means ``Executor()``).

The high-level entry points — :func:`repro.sim.runner.run_sweep`, the
experiment registry, ``repro sweep``/``repro run`` — all build on this;
nothing else in the repository spawns worker processes.
"""

from .cache import CACHE_DIR_ENV, DEFAULT_CACHE_DIR, ResultCache, resolve_cache_dir
from .executor import (
    JOBS_ENV,
    SPEC_TIMEOUT_ENV,
    TIMEOUT_KIND,
    Executor,
    make_cache,
    resolve_jobs,
    resolve_spec_timeout,
)
from .fingerprint import FINGERPRINT_VERSION, spec_fingerprint, spec_payload
from .outcomes import ExecOutcome, ExecStats, Progress, SpecError

__all__ = [
    "CACHE_DIR_ENV",
    "DEFAULT_CACHE_DIR",
    "ExecOutcome",
    "ExecStats",
    "Executor",
    "FINGERPRINT_VERSION",
    "JOBS_ENV",
    "Progress",
    "ResultCache",
    "SPEC_TIMEOUT_ENV",
    "SpecError",
    "TIMEOUT_KIND",
    "make_cache",
    "resolve_cache_dir",
    "resolve_jobs",
    "resolve_spec_timeout",
    "spec_fingerprint",
    "spec_payload",
]
