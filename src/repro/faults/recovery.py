"""Recovery policy: retry crash-aborted subjobs with exponential backoff.

An aborted subjob keeps all progress up to its last completed chunk (the
node credits whole chunks as they finish), so a retry *resumes from the
chunk boundary* rather than restarting — the subjob is simply SUSPENDED
and re-dispatched.

The :class:`RecoveryManager` holds the retry backlog.  A retry becomes
*due* after an exponential backoff; due retries are offered to the
scheduler at three drain points (all driven by the caller):

* the backoff timer fires (a retry just became due);
* a subjob completes — *before* the policy's completion handler runs,
  so a due retry gets first claim on the freed node (otherwise
  aggressively splitting policies would refill every node themselves
  and starve the backlog);
* a node recovers — before ``policy.on_node_recovered``, for the same
  reason.

Node choice is delegated to
:meth:`~repro.sched.base.SchedulerPolicy.pick_retry_node` (default: the
idle node with the most of the subjob's remaining data cached), so
cache-aware policies keep retries cache-preserving while cache-less
policies degrade gracefully to first-idle placement.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from ..core.engine import Engine, Timer
from ..core.events import EventPriority
from ..obs.hooks import NULL_BUS, HookBus, kinds
from ..sim.config import FaultConfig
from ..workload.jobs import Subjob, SubjobState

if TYPE_CHECKING:  # pragma: no cover
    from ..sched.base import SchedulerPolicy


def exponential_backoff(
    attempt: int, base: float, factor: float, cap: float
) -> float:
    """Capped exponential backoff before retry number ``attempt``
    (1-based): ``base * factor**(attempt-1)``, at most ``cap``.

    Shared by the :class:`RecoveryManager`'s subjob retries (through
    :func:`backoff_delay`) and the control channel's retransmit levels
    (:mod:`repro.faults.net`), whose ack timeouts it sets.
    """
    if attempt < 1:
        raise ValueError(f"attempt must be >= 1, got {attempt}")
    return min(base * factor ** (attempt - 1), cap)


def backoff_delay(attempt: int, config: FaultConfig) -> float:
    """The backoff before retry number ``attempt`` (1-based):
    ``base * factor**(attempt-1)``, capped at ``retry_backoff_max``."""
    return exponential_backoff(
        attempt,
        config.retry_backoff_base,
        config.retry_backoff_factor,
        config.retry_backoff_max,
    )


class _PendingRetry:
    __slots__ = ("subjob", "attempt", "due", "seq")

    def __init__(self, subjob: Subjob, attempt: int, due: float, seq: int) -> None:
        self.subjob = subjob
        self.attempt = attempt
        self.due = due
        self.seq = seq


class RecoveryManager:
    """The retry backlog of crash-aborted subjobs."""

    def __init__(
        self,
        engine: Engine,
        policy: "SchedulerPolicy",
        config: FaultConfig,
        obs: HookBus = NULL_BUS,
    ) -> None:
        self.engine = engine
        self.policy = policy
        self.config = config
        self.obs = obs
        #: Due-ordered backlog (ties broken by admission order).
        self._backlog: List[_PendingRetry] = []
        #: Lifetime abort count per subjob id (attempt numbering).
        self._attempts: Dict[str, int] = {}
        self._seq = 0
        self.stats_retries = 0
        self.stats_giveups = 0
        self._timer: Timer = engine.timer(
            self._on_timer, priority=EventPriority.TIMER, label="fault-retry"
        )

    # -- admission -----------------------------------------------------------

    def add(self, subjob: Subjob) -> None:
        """Admit a just-aborted subjob; it becomes due after its backoff."""
        attempt = self._attempts.get(subjob.sid, 0) + 1
        self._attempts[subjob.sid] = attempt
        if 0 < self.config.max_retries < attempt:
            self.stats_giveups += 1
            if self.obs.enabled:
                self.obs.emit(
                    self.engine.now,
                    kinds.FAULT_GIVEUP,
                    "faults",
                    job=subjob.job.job_id,
                    sid=subjob.sid,
                    attempts=attempt - 1,
                )
            return
        due = self.engine.now + backoff_delay(attempt, self.config)
        entry = _PendingRetry(subjob, attempt, due, self._seq)
        self._seq += 1
        self._backlog.append(entry)
        self._backlog.sort(key=lambda e: (e.due, e.seq))
        self._rearm()

    # -- draining --------------------------------------------------------------

    def drain(self) -> int:
        """Dispatch every due retry an idle node will take; returns the
        number dispatched.  Call at the drain points documented above."""
        dispatched = 0
        now = self.engine.now
        index = 0
        while index < len(self._backlog):
            entry = self._backlog[index]
            if entry.due > now:
                break  # sorted by due time: nothing further is due
            subjob = entry.subjob
            if subjob.state is not SubjobState.SUSPENDED:
                # The policy resumed (or finished) it through its normal
                # suspended-work path before the backoff fired; the retry
                # is stale.  A re-abort re-admits it with a fresh entry.
                del self._backlog[index]
                continue
            node = self.policy.pick_retry_node(subjob)
            if node is None:
                index += 1  # no idle node now; keep for the next drain
                continue
            del self._backlog[index]
            self.stats_retries += 1
            if self.obs.enabled:
                self.obs.emit(
                    now,
                    kinds.FAULT_RETRY,
                    "faults",
                    node=node.node_id,
                    job=subjob.job.job_id,
                    sid=subjob.sid,
                    attempt=entry.attempt,
                )
            self.policy.start_on(node, subjob)
            dispatched += 1
        self._rearm()
        return dispatched

    @property
    def pending(self) -> int:
        """Backlog size (due and not-yet-due entries)."""
        return len(self._backlog)

    # -- internals -------------------------------------------------------------

    def _on_timer(self) -> None:
        self.drain()

    def _rearm(self) -> None:
        """Point the timer at the earliest not-yet-due entry."""
        now = self.engine.now
        for entry in self._backlog:
            if entry.due > now:
                self._timer.schedule_at(entry.due)
                return
        self._timer.cancel()
