"""The unified execution layer: one owner for every batch of RunSpecs.

:class:`Executor` runs a sequence of sweep points behind a single API
with two backends — serial (in-process) and a ``multiprocessing`` pool —
chosen by ``jobs``.  Whatever the backend:

* results stream back as they complete (live :class:`Progress` callbacks
  and ``exec.*`` observability events) but are reassembled in spec order,
  so the returned slots — and everything serialised from them — are
  bit-identical regardless of ``--jobs``;
* a worker exception becomes a structured
  :class:`~repro.exec.outcomes.SpecError` attached to that slot instead
  of aborting the pool, after bounded in-worker retries with the fault
  subsystem's exponential backoff;
* with a spec timeout (``--spec-timeout`` / ``$REPRO_SPEC_TIMEOUT``) a
  stuck worker is killed and surfaces as ``SpecError(kind="timeout")``
  in its slot instead of hanging the batch forever;
* with a :class:`~repro.exec.cache.ResultCache` attached, each spec is
  first looked up by content fingerprint and only misses are executed;
  completed misses are written back;
* with a journal path attached, each finished slot is appended to the
  ``*.journal.jsonl`` checkpoint, and ``resume=True`` re-runs only the
  specs the journal does not mark complete (payloads restored from the
  cache).

Workers execute :func:`repro.sim.simulator.run_simulation`, imported
lazily so this module stays import-cycle-free (``sim.runner`` builds on
this executor).
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..core.clock import wall_clock
from ..obs.hooks import NULL_BUS, HookBus, kinds
from .cache import ResultCache
from .fingerprint import spec_fingerprint
from .journal import JournalEntry, SweepJournal
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


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded in-worker retries for transient spec failures.

    ``max_attempts`` counts the first try; the delay before retry *n*
    follows the fault subsystem's exponential backoff
    (``base * factor**(n-1)``, capped).  Deterministic failures simply
    exhaust the budget quickly and surface as a :class:`SpecError`.
    """

    max_attempts: int = 2
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 1.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        from ..faults.recovery import exponential_backoff

        return exponential_backoff(
            attempt, self.backoff_base, self.backoff_factor, self.backoff_max
        )


#: Retry policy that fails fast on the first error.
NO_RETRY = RetryPolicy(max_attempts=1)


def resolve_jobs(jobs: Optional[int], n_specs: int) -> int:
    """Worker count: explicit argument > ``$REPRO_JOBS`` > heuristic
    (serial for tiny batches, one worker per spec up to the CPU count)."""
    if jobs is None:
        env = os.environ.get(JOBS_ENV, "").strip()
        if env:
            try:
                jobs = int(env)
            except ValueError:
                raise ValueError(
                    f"${JOBS_ENV} must be an integer, got {env!r}"
                ) from None
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


@dataclass(frozen=True)
class _Failure:
    """Pickle-safe carrier of a worker exception across the pool."""

    kind: str
    message: str
    traceback: str


_Payload = Union["SimulationResult", _Failure]
#: (index, attempts, payload) — what a worker sends back per task.
_TaskResult = Tuple[int, int, _Payload]


def _execute_spec(spec: "RunSpec") -> "SimulationResult":
    """Run one sweep point (the single place a spec becomes a result)."""
    from ..sim.simulator import run_simulation

    return run_simulation(spec.config, spec.policy, **dict(spec.policy_params))


def run_with_retries(
    run: Callable[[], Any],
    retry: RetryPolicy,
    sleep: Callable[[float], None] = time.sleep,
) -> Tuple[int, Union[Any, _Failure]]:
    """``run()`` with the retry policy applied; returns (attempts, payload).

    The payload is the call's return value, or a :class:`_Failure` when
    the final attempt raised.  ``sleep`` is injectable for tests.
    """
    import traceback as traceback_module

    attempt = 1
    while True:
        try:
            return attempt, run()
        except Exception as error:  # noqa: BLE001 - crash isolation boundary
            if attempt >= retry.max_attempts:
                return attempt, _Failure(
                    kind=type(error).__name__,
                    message=str(error),
                    traceback="".join(
                        traceback_module.format_exception(
                            type(error), error, error.__traceback__
                        )
                    ),
                )
            sleep(retry.delay(attempt))
            attempt += 1


def _pool_task(task: Tuple[int, "RunSpec", RetryPolicy]) -> _TaskResult:
    """Pool entry point: run one spec with retries, never raise."""
    index, spec, retry = task
    attempts, payload = run_with_retries(lambda: _execute_spec(spec), retry)
    return index, attempts, payload


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
        retry: RetryPolicy = NO_RETRY,
        journal_path: Optional[Union[str, Path]] = None,
        resume: bool = False,
        obs: HookBus = NULL_BUS,
        spec_timeout: Optional[float] = None,
    ) -> None:
        self.jobs = jobs
        self.cache = cache
        self.retry = retry
        self.journal_path = Path(journal_path) if journal_path else None
        self.resume = resume
        self.obs = obs
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
        if self.obs.enabled:
            self.obs.emit(0.0, kinds.EXEC_SWEEP_START, "exec", total=len(specs))

        fingerprints = self._fingerprints(specs)
        resumed_from = self._load_resume_state()
        journal = self._open_journal()
        done = 0
        try:
            # Phase 1: satisfy slots from the journal (resume) and the
            # content-addressed cache, in spec order.
            pending: List[int] = []
            for index, spec in enumerate(specs):
                restored = self._restore(
                    index, fingerprints, resumed_from, stats
                )
                if restored is None:
                    pending.append(index)
                    continue
                slots[index] = restored
                done += 1
                self._record(
                    journal, fingerprints, index, spec, restored, attempts=1
                )
                self._notify(
                    progress, done, len(specs), index, spec, restored,
                    cached=True,
                )

            # Phase 2: execute the misses, streaming completions.
            for index, attempts, payload in self._execute(pending, specs):
                spec = specs[index]
                outcome = self._finish(
                    index, spec, attempts, payload, fingerprints, stats
                )
                slots[index] = outcome
                done += 1
                self._record(
                    journal, fingerprints, index, spec, outcome, attempts
                )
                self._notify(
                    progress, done, len(specs), index, spec, outcome,
                    cached=False,
                )
        finally:
            if journal is not None:
                journal.close()

        stats.wall_seconds = wall_clock() - started
        if self.obs.enabled:
            self.obs.emit(
                stats.wall_seconds, kinds.EXEC_SWEEP_END, "exec",
                **asdict(stats),
            )
        results = [slot for slot in slots if slot is not None]
        assert len(results) == len(specs), "executor lost a slot"
        return ExecOutcome(results=results, stats=stats)

    # -- phase 1: cache & resume ----------------------------------------------

    def _fingerprints(
        self, specs: Sequence["RunSpec"]
    ) -> Optional[List[str]]:
        """Per-spec fingerprints, or ``None`` when nothing needs them."""
        if self.cache is None and self.journal_path is None:
            return None
        schema = (
            self.cache.schema_version
            if self.cache is not None
            else _result_schema_version()
        )
        return [spec_fingerprint(spec, schema) for spec in specs]

    def _load_resume_state(self) -> Dict[str, JournalEntry]:
        if not (self.resume and self.journal_path is not None):
            return {}
        return SweepJournal.completed(SweepJournal.load(self.journal_path))

    def _open_journal(self) -> Optional[SweepJournal]:
        if self.journal_path is None:
            return None
        journal = SweepJournal(self.journal_path)
        # Both fresh and resumed runs rewrite the journal: every restored
        # slot is re-recorded immediately below, so the file always
        # describes the *current* sweep invocation.
        journal.open(truncate=True)
        return journal

    def _restore(
        self,
        index: int,
        fingerprints: Optional[List[str]],
        resumed_from: Dict[str, JournalEntry],
        stats: ExecStats,
    ) -> Optional["SimulationResult"]:
        """A completed payload for this slot, or ``None`` to execute it."""
        if fingerprints is None or self.cache is None:
            return None
        fingerprint = fingerprints[index]
        via_journal = fingerprint in resumed_from
        result = self.cache.get(fingerprint)
        if result is None:
            return None
        if via_journal:
            stats.resumed += 1
        else:
            stats.cache_hits += 1
        if self.obs.enabled:
            self.obs.emit(
                0.0, kinds.EXEC_CACHE_HIT, "exec",
                index=index, resumed=via_journal,
            )
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
        tasks = [(index, specs[index], self.retry) for index in pending]
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
                    index, attempts, payload = iterator.next(timeout)
                except StopIteration:  # pragma: no cover - defensive
                    break
                except multiprocessing.TimeoutError:
                    pool.terminate()
                    for stuck in pending:
                        if stuck not in seen:
                            yield stuck, 1, _Failure(
                                kind=TIMEOUT_KIND,
                                message=(
                                    f"no completion within the "
                                    f"{timeout:g}s spec timeout"
                                ),
                                traceback="",
                            )
                    return
                seen.add(index)
                yield index, attempts, payload

    def _finish(
        self,
        index: int,
        spec: "RunSpec",
        attempts: int,
        payload: _Payload,
        fingerprints: Optional[List[str]],
        stats: ExecStats,
    ) -> Union["SimulationResult", SpecError]:
        """Account one executed slot; write successes back to the cache."""
        stats.executed += 1
        stats.retries += attempts - 1
        if self.obs.enabled and attempts > 1:
            self.obs.emit(
                0.0, kinds.EXEC_RETRY, "exec",
                index=index, attempts=attempts,
            )
        if isinstance(payload, _Failure):
            stats.failed += 1
            if payload.kind == TIMEOUT_KIND:
                stats.timeouts += 1
            error = SpecError(
                index=index,
                label=spec.label,
                policy=spec.policy,
                kind=payload.kind,
                message=payload.message,
                traceback=payload.traceback,
                attempts=attempts,
            )
            if self.obs.enabled:
                self.obs.emit(
                    0.0, kinds.EXEC_SPEC_ERROR, "exec",
                    index=index, error_kind=error.kind, attempts=attempts,
                )
            return error
        if self.cache is not None and fingerprints is not None:
            self.cache.put(fingerprints[index], payload)
        if self.obs.enabled:
            self.obs.emit(0.0, kinds.EXEC_SPEC_DONE, "exec", index=index)
        return payload

    # -- bookkeeping ----------------------------------------------------------

    @staticmethod
    def _record(
        journal: Optional[SweepJournal],
        fingerprints: Optional[List[str]],
        index: int,
        spec: "RunSpec",
        outcome: Union["SimulationResult", SpecError],
        attempts: int,
    ) -> None:
        if journal is None or fingerprints is None:
            return
        failed = isinstance(outcome, SpecError)
        journal.append(
            JournalEntry(
                fingerprint=fingerprints[index],
                index=index,
                label=spec.label,
                policy=spec.policy,
                status="error" if failed else "ok",
                attempts=attempts,
                error_kind=outcome.kind if isinstance(outcome, SpecError) else "",
                error_message=(
                    outcome.message if isinstance(outcome, SpecError) else ""
                ),
            )
        )

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
