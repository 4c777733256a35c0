"""The unified execution layer (``repro.exec``).

Every paper figure is a sweep of dozens-to-hundreds of independent
simulations; this package is the one owner of how such batches run.
:class:`Executor` provides serial and process-pool backends behind a
single API with streamed completions, per-spec crash isolation
(:class:`SpecError` slots instead of aborted pools), bounded retries and
a content-addressed :class:`ResultCache` (``.repro-cache/``).  The cache
is also the checkpoint of an interrupted sweep: running the same sweep
again executes only the points it does not hold.

The high-level entry points — :func:`repro.sim.runner.run_sweep`, the
experiment registry, ``repro sweep``/``repro run`` — all build on this;
nothing else in the repository spawns worker processes.
"""

from .cache import CACHE_DIR_ENV, DEFAULT_CACHE_DIR, ResultCache, resolve_cache_dir
from .executor import (
    JOBS_ENV,
    NO_RETRY,
    SPEC_TIMEOUT_ENV,
    TIMEOUT_KIND,
    Executor,
    RetryPolicy,
    make_cache,
    resolve_jobs,
    resolve_spec_timeout,
    run_with_retries,
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
    "NO_RETRY",
    "Progress",
    "ResultCache",
    "RetryPolicy",
    "SPEC_TIMEOUT_ENV",
    "SpecError",
    "TIMEOUT_KIND",
    "make_cache",
    "resolve_cache_dir",
    "resolve_jobs",
    "resolve_spec_timeout",
    "run_with_retries",
    "spec_fingerprint",
    "spec_payload",
]
