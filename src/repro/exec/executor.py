"""The unified execution layer: one owner for every batch of RunSpecs.

:class:`Executor` runs a sequence of sweep points behind a single API
with two backends — serial (in-process) and a ``multiprocessing`` pool —
chosen by ``jobs``.  Whatever the backend:

* results stream back as they complete (live :class:`Progress`
  callbacks) but are reassembled in spec order, so the returned slots —
  and everything serialised from them — are bit-identical regardless of
  ``--jobs``;
* a worker exception becomes a structured
  :class:`~repro.exec.outcomes.SpecError` attached to that slot instead
  of aborting the pool.  Each spec runs once: it is a seeded computation
  with no side effects, so a rerun would fail the same way;
* with a spec timeout (``--spec-timeout`` / ``$REPRO_SPEC_TIMEOUT``) a
  stuck worker is killed and surfaces as ``SpecError(kind="timeout")``
  in its slot instead of hanging the batch forever;
* with a :class:`~repro.exec.cache.ResultCache` attached, each spec is
  first looked up by content fingerprint and only misses are executed;
  completed misses are written back the moment they finish.  The cache
  is the sweep's only checkpoint: rerunning an interrupted sweep against
  the same cache executes just the points it had not finished.

Workers execute :func:`repro.sim.simulator.run_simulation`, imported
lazily so this module stays import-cycle-free (``sim.runner`` builds on
this executor).
"""

from __future__ import annotations

import multiprocessing
import os
import traceback
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..core.clock import wall_clock
from .cache import ResultCache
from .fingerprint import spec_fingerprint
from .outcomes import ExecOutcome, ExecStats, Progress, SpecError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..sim.runner import RunSpec
    from ..sim.simulator import SimulationResult

#: Environment override for the default worker count (CLI ``--jobs`` wins).
JOBS_ENV = "REPRO_JOBS"

#: Environment override for the per-spec timeout in seconds
#: (CLI ``--spec-timeout`` wins).
SPEC_TIMEOUT_ENV = "REPRO_SPEC_TIMEOUT"

#: ``SpecError.kind`` used for slots killed by the spec timeout.
TIMEOUT_KIND = "timeout"

#: Progress callback type: called once per completed slot, completion order.
ProgressCallback = Callable[[Progress], None]


def resolve_jobs(jobs: Optional[int], n_specs: int) -> int:
    """Worker count: explicit argument > ``$REPRO_JOBS`` > heuristic
    (serial for tiny batches, one worker per spec up to the CPU count)."""
    if jobs is None:
        env = os.environ.get(JOBS_ENV, "").strip()
        if env:
            try:
                count = int(env)
            except ValueError:
                count = 0
            if count < 1:
                raise ValueError(
                    f"${JOBS_ENV} must be an integer >= 1, got {env!r}"
                )
            jobs = count
    if jobs is None:
        return 1 if n_specs <= 2 else min(n_specs, os.cpu_count() or 1)
    return max(1, min(jobs, max(1, n_specs)))


def resolve_spec_timeout(spec_timeout: Optional[float]) -> Optional[float]:
    """Per-spec timeout in seconds: explicit argument >
    ``$REPRO_SPEC_TIMEOUT`` > no timeout."""
    if spec_timeout is None:
        env = os.environ.get(SPEC_TIMEOUT_ENV, "").strip()
        if env:
            try:
                spec_timeout = float(env)
            except ValueError:
                raise ValueError(
                    f"${SPEC_TIMEOUT_ENV} must be a number of seconds, "
                    f"got {env!r}"
                ) from None
    if spec_timeout is not None and spec_timeout <= 0:
        raise ValueError(f"spec timeout must be > 0, got {spec_timeout}")
    return spec_timeout


#: (index, result or failure) — what a worker sends back per task.
_TaskResult = Tuple[int, Union["SimulationResult", SpecError]]


def _execute_spec(spec: "RunSpec") -> "SimulationResult":
    """Run one sweep point (the single place a spec becomes a result)."""
    from ..sim.simulator import run_simulation

    return run_simulation(spec.config, spec.policy, **dict(spec.policy_params))


def _pool_task(task: Tuple[int, "RunSpec"]) -> _TaskResult:
    """Pool entry point: run one spec once, never raise.

    A spec is a seeded computation with no side effects, so running it
    again would fail the same way: its first exception is its outcome.
    """
    index, spec = task
    try:
        return index, _execute_spec(spec)
    except Exception as error:  # noqa: BLE001 - crash isolation boundary
        return index, SpecError(
            index=index,
            label=spec.label,
            policy=spec.policy,
            kind=type(error).__name__,
            message=str(error),
            traceback="".join(
                traceback.format_exception(
                    type(error), error, error.__traceback__
                )
            ),
        )


def _result_schema_version() -> int:
    """The summary-JSON schema version (keys the cache namespace)."""
    from ..sim.export import SCHEMA_VERSION

    return SCHEMA_VERSION


def make_cache(directory: Optional[Union[str, Path]] = None) -> ResultCache:
    """A result cache on the standard store, keyed to the current
    results schema version."""
    return ResultCache(directory, schema_version=_result_schema_version())


class Executor:
    """Runs batches of sweep points; see the module docstring."""

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        spec_timeout: Optional[float] = None,
    ) -> None:
        self.jobs = jobs
        self.cache = cache
        self.spec_timeout = spec_timeout

    # -- the one entry point --------------------------------------------------

    def run(
        self,
        specs: Sequence["RunSpec"],
        progress: Optional[ProgressCallback] = None,
    ) -> ExecOutcome:
        """Execute every spec; returns ordered slots plus stats."""
        specs = list(specs)
        started = wall_clock()
        stats = ExecStats(total=len(specs))
        slots: List[Optional[Union["SimulationResult", SpecError]]] = [
            None
        ] * len(specs)

        fingerprints = self._fingerprints(specs)
        done = 0
        # Phase 1: satisfy slots from the content-addressed cache, in
        # spec order.
        pending: List[int] = []
        for index, spec in enumerate(specs):
            restored = self._restore(index, fingerprints, stats)
            if restored is None:
                pending.append(index)
                continue
            slots[index] = restored
            done += 1
            self._notify(
                progress, done, len(specs), index, spec, restored, cached=True
            )

        # Phase 2: execute the misses, streaming completions.
        for index, outcome in self._execute(pending, specs):
            self._account(index, outcome, fingerprints, stats)
            slots[index] = outcome
            done += 1
            self._notify(
                progress, done, len(specs), index, specs[index], outcome,
                cached=False,
            )

        stats.wall_seconds = wall_clock() - started
        results = [slot for slot in slots if slot is not None]
        assert len(results) == len(specs), "executor lost a slot"
        return ExecOutcome(results=results, stats=stats)

    # -- phase 1: cache -------------------------------------------------------

    def _fingerprints(
        self, specs: Sequence["RunSpec"]
    ) -> Optional[List[str]]:
        """Per-spec fingerprints, or ``None`` when no cache is attached."""
        if self.cache is None:
            return None
        return [
            spec_fingerprint(spec, self.cache.schema_version) for spec in specs
        ]

    def _restore(
        self,
        index: int,
        fingerprints: Optional[List[str]],
        stats: ExecStats,
    ) -> Optional["SimulationResult"]:
        """The cached payload for this slot, or ``None`` to execute it."""
        if fingerprints is None or self.cache is None:
            return None
        result = self.cache.get(fingerprints[index])
        if result is None:
            return None
        stats.cache_hits += 1
        return result

    # -- phase 2: execution ---------------------------------------------------

    def _execute(
        self, pending: List[int], specs: Sequence["RunSpec"]
    ) -> Iterator[_TaskResult]:
        """Run the pending specs, yielding task results as they complete.

        With a spec timeout the pool backend is used even at one worker:
        only a separate process can be killed once stuck.  The timeout
        bounds the wait for *each next completion* — when it expires the
        pool is terminated and every not-yet-seen slot is synthesized as
        a ``timeout`` failure, so the batch always finishes.
        """
        if not pending:
            return
        timeout = resolve_spec_timeout(self.spec_timeout)
        jobs = resolve_jobs(self.jobs, len(pending))
        tasks = [(index, specs[index]) for index in pending]
        if timeout is None and jobs <= 1:
            for task in tasks:
                yield _pool_task(task)
            return
        # chunksize=1 keeps completions streaming: a long spec must not
        # hold a chunk of finished neighbours hostage.
        with multiprocessing.Pool(processes=jobs) as pool:
            iterator = pool.imap_unordered(_pool_task, tasks, chunksize=1)
            seen: set = set()
            for _ in range(len(tasks)):
                try:
                    index, payload = iterator.next(timeout)
                except StopIteration:  # pragma: no cover - defensive
                    break
                except multiprocessing.TimeoutError:
                    pool.terminate()
                    for stuck in pending:
                        if stuck not in seen:
                            yield stuck, SpecError(
                                index=stuck,
                                label=specs[stuck].label,
                                policy=specs[stuck].policy,
                                kind=TIMEOUT_KIND,
                                message=(
                                    f"no completion within the "
                                    f"{timeout:g}s spec timeout"
                                ),
                            )
                    return
                seen.add(index)
                yield index, payload

    def _account(
        self,
        index: int,
        outcome: Union["SimulationResult", SpecError],
        fingerprints: Optional[List[str]],
        stats: ExecStats,
    ) -> None:
        """Count one executed slot; write a success back to the cache.

        A failed slot is never cached, so a rerun executes it again."""
        stats.executed += 1
        if isinstance(outcome, SpecError):
            stats.failed += 1
            if outcome.kind == TIMEOUT_KIND:
                stats.timeouts += 1
        elif self.cache is not None and fingerprints is not None:
            self.cache.put(fingerprints[index], outcome)

    # -- bookkeeping ----------------------------------------------------------

    @staticmethod
    def _notify(
        progress: Optional[ProgressCallback],
        done: int,
        total: int,
        index: int,
        spec: "RunSpec",
        outcome: Union["SimulationResult", SpecError],
        cached: bool,
    ) -> None:
        if progress is None:
            return
        if isinstance(outcome, SpecError):
            progress(
                Progress(
                    done=done, total=total, index=index, label=spec.label,
                    brief=f"ERROR {outcome.brief()}", error=outcome,
                )
            )
            return
        prefix = "cached " if cached else ""
        progress(
            Progress(
                done=done, total=total, index=index, label=spec.label,
                brief=prefix + outcome.brief(), cached=cached,
            )
        )
