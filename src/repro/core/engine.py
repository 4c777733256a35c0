"""Discrete-event simulation kernel.

A deliberately small, fast, callback-based engine:

* a binary heap orders events by ``(time, priority, sequence)``; heap
  entries are plain ``(time, priority, seq, event)`` tuples so sift
  comparisons run natively in C instead of through rich-comparison
  dunders on the event records;
* cancellation is lazy (events carry a flag; the dispatcher skips dead
  entries), so cancelling is O(1) and preemption-heavy policies stay cheap;
* ties at the same timestamp dispatch in a documented order
  (:class:`~repro.core.events.EventPriority`), making every simulation
  fully deterministic for a given seed.

The paper's simulator only models data transfers, never inter-node
messages, so process-style coroutines (à la simpy) would buy nothing here;
plain callbacks keep the hot loop allocation-free and ~5x faster in
profiling runs on this workload.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterator, List, Optional, Set, Tuple

from ..obs.hooks import NULL_BUS, HookBus, kinds
from .errors import EngineError, InvariantViolation
from .events import EngineStats, EventPriority, ScheduledEvent

#: One calendar slot: the tuple key heapq compares, plus the payload.
_HeapEntry = Tuple[float, int, int, ScheduledEvent]


class Engine:
    """The simulation clock and event calendar.

    >>> eng = Engine()
    >>> out = []
    >>> _ = eng.call_at(2.0, out.append, "b")
    >>> _ = eng.call_at(1.0, out.append, "a")
    >>> eng.run()
    >>> out
    ['a', 'b']
    >>> eng.now
    2.0
    """

    def __init__(
        self,
        start_time: float = 0.0,
        obs: HookBus = NULL_BUS,
        check_invariants: bool = False,
    ) -> None:
        #: Current simulation time in seconds: a plain attribute, written
        #: only by the dispatch loop (the flow lint flags any store to a
        #: ``.now`` outside the kernel), so the hot paths that read the
        #: clock pay an attribute load rather than a property call.
        self.now = float(start_time)
        #: Calendar entries: ``(time, priority, seq, event)`` — ``seq`` is
        #: unique, so tuple comparisons never reach the event payload.
        self._heap: List[_HeapEntry] = []
        self._seq = 0
        self._running = False
        self._stopped = False
        self.stats = EngineStats()
        #: Observability bus; per-dispatch emission is additionally gated
        #: by ``obs.engine_dispatch`` (high volume, off by default).
        self.obs = obs
        #: Sim-sanitizer mode: assert monotone dispatch on every event (one
        #: extra branch per dispatch when on, a single attribute test when
        #: off).  Deep heap validation is :meth:`validate_heap`.
        self.check_invariants = bool(check_invariants)

    # -- clock ---------------------------------------------------------------

    def __len__(self) -> int:
        """Number of events still in the calendar (including cancelled)."""
        return len(self._heap)

    # -- scheduling ------------------------------------------------------------

    def call_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = EventPriority.TIMER,
        label: str = "",
    ) -> ScheduledEvent:
        """Schedule ``callback(*args)`` at absolute time ``time``.

        Returns a handle whose :meth:`~ScheduledEvent.cancel` removes it.
        Scheduling in the past raises :class:`EngineError`; scheduling *at*
        the current instant is allowed (the event runs in this dispatch
        round, after already-queued events of lower ``(priority, seq)``).
        """
        if time < self.now:
            raise EngineError(
                f"cannot schedule at t={time:.6f} < now={self.now:.6f}"
            )
        if callback is None:
            raise EngineError("callback must not be None")
        time = float(time)
        priority = int(priority)
        seq = self._seq
        event = ScheduledEvent(time, priority, seq, callback, args, False, label)
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, priority, seq, event))
        self.stats.scheduled += 1
        if len(self._heap) > self.stats.max_queue:
            self.stats.max_queue = len(self._heap)
        return event

    def reserve_seq(self) -> int:
        """Take the next sequence number without pushing anything.

        A later :meth:`rearm` at this ``seq`` sorts exactly where a
        :meth:`call_at` made now would have, among every push before and
        after the reservation.  A reservation is not counted in
        ``stats.scheduled``; the push that uses it is.
        """
        seq = self._seq
        self._seq = seq + 1
        return seq

    def rearm(
        self, event: ScheduledEvent, time: float, seq: Optional[int] = None
    ) -> ScheduledEvent:
        """Push ``event``, which has already fired (or was never pushed),
        back into the calendar at absolute time ``time`` with its
        callback, arguments, priority and label unchanged.

        The event takes the next sequence number, exactly as a fresh
        :meth:`call_at` at this point would, or ``seq`` when given: a
        number from :meth:`reserve_seq`, used once.  Either way the
        calendar order and the scheduling counters are the same as with a
        new event made when the number was taken; only the record is
        reused.  A cancelled event is never re-armed (raises
        :class:`EngineError`), and an event still pending must not be
        passed (:meth:`validate_heap` reports an event queued twice).
        """
        if event.cancelled:
            raise EngineError(f"cannot re-arm cancelled event {event.label!r}")
        if time < self.now:
            raise EngineError(
                f"cannot schedule at t={time:.6f} < now={self.now:.6f}"
            )
        if seq is None:
            seq = self._seq
            self._seq = seq + 1
        event.time = time
        event.seq = seq
        heap = self._heap
        heapq.heappush(heap, (time, event.priority, seq, event))
        stats = self.stats
        stats.scheduled += 1
        if len(heap) > stats.max_queue:
            stats.max_queue = len(heap)
        return event

    def call_after(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = EventPriority.TIMER,
        label: str = "",
    ) -> ScheduledEvent:
        """Schedule ``callback(*args)`` ``delay`` seconds from now."""
        if delay < 0:
            raise EngineError(f"negative delay {delay!r}")
        return self.call_at(
            self.now + delay, callback, *args, priority=priority, label=label
        )

    def cancel(self, event: Optional[ScheduledEvent]) -> None:
        """Cancel a previously scheduled event (no-op on ``None``)."""
        if event is not None and not event.cancelled:
            event.cancel()
            self.stats.cancelled += 1

    def timer(
        self,
        callback: Callable[..., None],
        *args: Any,
        priority: int = EventPriority.TIMER,
        label: str = "",
    ) -> "Timer":
        """A reusable cancellable timer bound to this engine.

        Unlike raw :meth:`call_at` handles, a :class:`Timer` can be
        re-armed: scheduling it again first cancels the pending firing, so
        holders never leak stale events (retry/backoff logic, watchdogs).
        """
        return Timer(self, callback, args, priority=priority, label=label)

    # -- execution -------------------------------------------------------------

    def peek_time(self) -> Optional[float]:
        """Time of the next active event, or ``None`` if the calendar is
        empty."""
        self._drop_cancelled_head()
        return self._heap[0][0] if self._heap else None

    def step(self) -> bool:
        """Dispatch the single next active event.

        Returns ``False`` when the calendar is empty.
        """
        self._drop_cancelled_head()
        if not self._heap:
            return False
        event = heapq.heappop(self._heap)[3]
        if self.check_invariants and event.time < self.now:
            raise InvariantViolation(
                f"non-monotone dispatch: event {event.label!r} at "
                f"t={event.time:.6f} popped while now={self.now:.6f}"
            )
        self.now = event.time
        self.stats.dispatched += 1
        if self.obs.engine_dispatch:
            self._emit_dispatch(event)
        event.callback(*event.args)
        return True

    def run(self, until: Optional[float] = None) -> None:
        """Run until the calendar drains or the clock would pass ``until``.

        When ``until`` is given, the clock is advanced to exactly ``until``
        on return (even if the last event fired earlier), so back-to-back
        ``run(until=...)`` calls compose naturally.
        """
        if self._running:
            raise EngineError("engine is already running (reentrant run())")
        self._running = True
        self._stopped = False
        heap = self._heap
        obs = self.obs
        stats = self.stats
        heappop = heapq.heappop
        checked = self.check_invariants
        try:
            while heap and not self._stopped:
                event = heap[0][3]
                if event.cancelled:
                    heappop(heap)
                    continue
                time = event.time
                if until is not None and time > until:
                    break
                heappop(heap)
                if checked and time < self.now:
                    raise InvariantViolation(
                        f"non-monotone dispatch: event {event.label!r} at "
                        f"t={time:.6f} popped while now={self.now:.6f}"
                    )
                self.now = time
                stats.dispatched += 1
                if obs.engine_dispatch:
                    self._emit_dispatch(event)
                event.callback(*event.args)
        finally:
            self._running = False
        if until is not None and self.now < until and not self._stopped:
            self.now = until

    def stop(self) -> None:
        """Request :meth:`run` to return after the current callback."""
        self._stopped = True

    # -- validation -------------------------------------------------------------

    def pending_events(self) -> Iterator[ScheduledEvent]:
        """The calendar's live (uncancelled) events in heap order, not
        time order.  O(n) — for sanitizer checks, never the hot path."""
        return (entry[3] for entry in self._heap if not entry[3].cancelled)

    def validate_heap(self) -> None:
        """Deep calendar consistency check (sim-sanitizer mode).

        Verifies the binary-heap ordering property, that no event record
        is queued twice (a :meth:`rearm` of a pending event) and that no
        *active* event lies in the past.  O(n) — called from the
        simulator's periodic probe, never from the dispatch loop.
        """
        heap = self._heap
        seen: Set[int] = set()
        for index, entry in enumerate(heap):
            event = entry[3]
            if id(event) in seen:
                raise InvariantViolation(
                    f"event {event.label!r} is queued twice in the calendar "
                    f"(second entry at index {index}, t={entry[0]:.6f})"
                )
            seen.add(id(event))
            for child_index in (2 * index + 1, 2 * index + 2):
                if child_index < len(heap) and heap[child_index][:3] < entry[:3]:
                    raise InvariantViolation(
                        f"event heap property violated at index {index}: "
                        f"parent (t={event.time:.6f}, prio={event.priority}, "
                        f"seq={event.seq}) sorts after child at "
                        f"{child_index} (t={heap[child_index][0]:.6f})"
                    )
            if not event.cancelled and event.time < self.now:
                raise InvariantViolation(
                    f"active event {event.label!r} scheduled at "
                    f"t={event.time:.6f} lies in the past (now="
                    f"{self.now:.6f})"
                )

    # -- internals --------------------------------------------------------------

    def _emit_dispatch(self, event: ScheduledEvent) -> None:
        # Guarded at both call sites with `if obs.engine_dispatch:` — the
        # guard stays inline in the hot loop to avoid a method call per
        # dispatched event.
        self.obs.emit(  # simlint: disable=SIM004
            event.time,
            kinds.ENGINE_DISPATCH,
            "engine",
            label=event.label or getattr(event.callback, "__name__", "?"),
            priority=event.priority,
            seq=event.seq,
        )

    def _drop_cancelled_head(self) -> None:
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Engine(now={self.now:.3f}, pending={len(self._heap)}, "
            f"dispatched={self.stats.dispatched})"
        )


class Timer:
    """A one-shot, re-armable timer over a single calendar slot.

    At most one firing is ever pending: :meth:`schedule_at` /
    :meth:`schedule_after` cancel any previous arming before scheduling
    the new one, and :meth:`cancel` is idempotent.  The callback and its
    arguments are fixed at construction (see :meth:`Engine.timer`).

    >>> eng = Engine()
    >>> fired = []
    >>> t = eng.timer(fired.append, "x")
    >>> _ = t.schedule_at(5.0)
    >>> _ = t.schedule_at(1.0)   # re-arm: the t=5 firing is cancelled
    >>> eng.run()
    >>> (fired, eng.now)
    (['x'], 1.0)
    """

    __slots__ = ("engine", "callback", "args", "priority", "label", "_event")

    def __init__(
        self,
        engine: Engine,
        callback: Callable[..., None],
        args: Tuple[Any, ...] = (),
        priority: int = EventPriority.TIMER,
        label: str = "",
    ) -> None:
        self.engine = engine
        self.callback = callback
        self.args = args
        self.priority = int(priority)
        self.label = label
        self._event: Optional[ScheduledEvent] = None

    def schedule_at(self, time: float) -> ScheduledEvent:
        """Arm (or re-arm) the timer to fire at absolute ``time``."""
        self.cancel()
        self._event = self.engine.call_at(
            time,
            self._fire,
            priority=self.priority,
            label=self.label,
        )
        return self._event

    def schedule_after(self, delay: float) -> ScheduledEvent:
        """Arm (or re-arm) the timer ``delay`` seconds from now."""
        return self.schedule_at(self.engine.now + delay)

    def cancel(self) -> None:
        """Disarm the pending firing, if any (idempotent)."""
        if self._event is not None:
            self.engine.cancel(self._event)
            self._event = None

    def _fire(self) -> None:
        self._event = None
        self.callback(*self.args)
