"""Tests for the discrete-event kernel."""

import pytest
from hypothesis import given, strategies as st

from repro.core.engine import Engine
from repro.core.errors import EngineError, InvariantViolation
from repro.core.events import EventPriority, describe_event


class TestBasicDispatch:
    def test_events_run_in_time_order(self):
        eng = Engine()
        out = []
        eng.call_at(3.0, out.append, "c")
        eng.call_at(1.0, out.append, "a")
        eng.call_at(2.0, out.append, "b")
        eng.run()
        assert out == ["a", "b", "c"]

    def test_clock_advances_to_event_times(self):
        eng = Engine()
        times = []
        eng.call_at(1.5, lambda: times.append(eng.now))
        eng.call_at(4.0, lambda: times.append(eng.now))
        eng.run()
        assert times == [1.5, 4.0]
        assert eng.now == 4.0

    def test_call_after_is_relative(self):
        eng = Engine(start_time=10.0)
        seen = []
        eng.call_after(5.0, lambda: seen.append(eng.now))
        eng.run()
        assert seen == [15.0]

    def test_args_are_passed(self):
        eng = Engine()
        out = []
        eng.call_at(1.0, lambda a, b: out.append((a, b)), 1, "x")
        eng.run()
        assert out == [(1, "x")]

    def test_events_scheduled_during_run_are_dispatched(self):
        eng = Engine()
        out = []

        def first():
            out.append("first")
            eng.call_after(1.0, lambda: out.append("second"))

        eng.call_at(1.0, first)
        eng.run()
        assert out == ["first", "second"]
        assert eng.now == 2.0


class TestTieBreaking:
    def test_priority_orders_simultaneous_events(self):
        eng = Engine()
        out = []
        eng.call_at(1.0, out.append, "arrival", priority=EventPriority.ARRIVAL)
        eng.call_at(1.0, out.append, "completion", priority=EventPriority.COMPLETION)
        eng.call_at(1.0, out.append, "probe", priority=EventPriority.PROBE)
        eng.call_at(1.0, out.append, "period", priority=EventPriority.PERIOD)
        eng.run()
        assert out == ["completion", "period", "arrival", "probe"]

    def test_fifo_within_same_priority(self):
        eng = Engine()
        out = []
        for index in range(10):
            eng.call_at(1.0, out.append, index)
        eng.run()
        assert out == list(range(10))


class TestCancellation:
    def test_cancelled_event_does_not_run(self):
        eng = Engine()
        out = []
        handle = eng.call_at(1.0, out.append, "x")
        eng.cancel(handle)
        eng.run()
        assert out == []
        assert eng.stats.cancelled == 1

    def test_cancel_none_is_noop(self):
        Engine().cancel(None)

    def test_double_cancel_counted_once(self):
        eng = Engine()
        handle = eng.call_at(1.0, lambda: None)
        eng.cancel(handle)
        eng.cancel(handle)
        assert eng.stats.cancelled == 1

    def test_cancel_during_run(self):
        eng = Engine()
        out = []
        later = eng.call_at(2.0, out.append, "later")
        eng.call_at(1.0, lambda: eng.cancel(later))
        eng.run()
        assert out == []


class TestRunUntil:
    def test_run_until_stops_before_later_events(self):
        eng = Engine()
        out = []
        eng.call_at(1.0, out.append, "early")
        eng.call_at(5.0, out.append, "late")
        eng.run(until=3.0)
        assert out == ["early"]
        assert eng.now == 3.0

    def test_events_at_until_are_dispatched(self):
        eng = Engine()
        out = []
        eng.call_at(3.0, out.append, "boundary")
        eng.run(until=3.0)
        assert out == ["boundary"]

    def test_clock_advances_to_until_when_calendar_drains(self):
        eng = Engine()
        eng.run(until=10.0)
        assert eng.now == 10.0

    def test_runs_compose(self):
        eng = Engine()
        out = []
        eng.call_at(1.0, out.append, 1)
        eng.call_at(5.0, out.append, 5)
        eng.run(until=3.0)
        eng.run(until=10.0)
        assert out == [1, 5]


class TestStop:
    def test_stop_halts_dispatch(self):
        eng = Engine()
        out = []

        def first():
            out.append(1)
            eng.stop()

        eng.call_at(1.0, first)
        eng.call_at(2.0, out.append, 2)
        eng.run()
        assert out == [1]
        assert len(eng) == 1  # second still queued

    def test_step_by_step(self):
        eng = Engine()
        out = []
        eng.call_at(1.0, out.append, "a")
        eng.call_at(2.0, out.append, "b")
        assert eng.step() is True
        assert out == ["a"]
        assert eng.step() is True
        assert eng.step() is False

    def test_peek_time(self):
        eng = Engine()
        assert eng.peek_time() is None
        handle = eng.call_at(4.0, lambda: None)
        assert eng.peek_time() == 4.0
        eng.cancel(handle)
        assert eng.peek_time() is None


class TestErrors:
    def test_scheduling_in_the_past_raises(self):
        eng = Engine(start_time=10.0)
        with pytest.raises(EngineError):
            eng.call_at(5.0, lambda: None)

    def test_negative_delay_raises(self):
        with pytest.raises(EngineError):
            Engine().call_after(-1.0, lambda: None)

    def test_none_callback_raises(self):
        with pytest.raises(EngineError):
            Engine().call_at(1.0, None)

    def test_reentrant_run_raises(self):
        eng = Engine()

        def reenter():
            with pytest.raises(EngineError):
                eng.run()

        eng.call_at(1.0, reenter)
        eng.run()

    def test_scheduling_now_is_allowed(self):
        eng = Engine()
        out = []
        eng.call_at(1.0, lambda: eng.call_at(eng.now, out.append, "now"))
        eng.run()
        assert out == ["now"]


def _chunk_loop(rearm: bool):
    """Two self-rescheduling "chunk" loops plus a competing push at the
    same ``(time, priority)`` before and after every reschedule; each loop
    reschedules through :meth:`Engine.rearm` or a fresh ``call_at``."""
    eng = Engine()
    log = []
    left = {"a": 4, "b": 3}
    handles = {}

    def other(tag):
        log.append((eng.now, tag))

    def chunk(name):
        log.append((eng.now, name, handles[name].seq))
        if left[name] == 0:
            return
        left[name] -= 1
        due = eng.now + 1.0
        eng.call_at(due, other, f"before-{name}", priority=EventPriority.COMPLETION)
        if rearm:
            assert eng.rearm(handles[name], due) is handles[name]
        else:
            handles[name] = eng.call_at(
                due, chunk, name, priority=EventPriority.COMPLETION
            )
        eng.call_at(due, other, f"after-{name}", priority=EventPriority.COMPLETION)

    for name in ("a", "b"):
        handles[name] = eng.call_at(
            0.0, chunk, name, priority=EventPriority.COMPLETION
        )
    eng.run()
    return log, eng.stats


def _reserved_push(reserve: bool):
    """A fired event pushed again at ``t=1`` among competing pushes at the
    same ``(time, priority)`` made before and after a point: through a
    seq reserved at that point and a later :meth:`Engine.rearm`, or a
    fresh ``call_at`` made there."""
    eng = Engine()
    log = []

    def other(tag):
        log.append((eng.now, tag))

    timer = eng.call_at(0.0, other, "timer")
    eng.run()
    eng.call_at(1.0, other, "before")
    if reserve:
        seq = eng.reserve_seq()
        scheduled = eng.stats.scheduled
    else:
        eng.call_at(1.0, other, "timer")
    eng.call_at(1.0, other, "after")
    eng.call_at(1.0, other, "early", priority=EventPriority.MESSAGE)
    eng.call_at(1.0, other, "last")
    if reserve:
        assert eng.stats.scheduled == scheduled + 3
        assert eng.rearm(timer, 1.0, seq) is timer
    eng.run()
    return log, eng.stats


class TestRearm:
    def test_reserved_seq_sorts_where_call_at_would(self):
        rearmed, rearmed_stats = _reserved_push(reserve=True)
        fresh, fresh_stats = _reserved_push(reserve=False)
        assert rearmed == fresh
        assert [tag for _, tag in rearmed] == [
            "timer", "early", "before", "timer", "after", "last"
        ]
        assert rearmed_stats == fresh_stats

    def test_reservation_is_not_counted_as_scheduled(self):
        eng = Engine()
        assert (eng.reserve_seq(), eng.reserve_seq()) == (0, 1)
        assert eng.stats.scheduled == 0
        event = eng.call_at(1.0, lambda: None)
        assert event.seq == 2
        assert eng.stats.scheduled == 1

    def test_validate_heap_rejects_a_reserved_rearm_of_a_queued_event(self):
        eng = Engine()
        event = eng.call_at(1.0, lambda: None, label="fifo")
        eng.validate_heap()
        eng.rearm(event, 2.0, eng.reserve_seq())
        with pytest.raises(InvariantViolation, match="'fifo' is queued twice"):
            eng.validate_heap()

    def test_orders_exactly_like_call_at(self):
        rearmed, rearmed_stats = _chunk_loop(rearm=True)
        fresh, fresh_stats = _chunk_loop(rearm=False)
        assert rearmed == fresh
        assert len(rearmed) == 9 + 2 * 7
        assert rearmed_stats == fresh_stats

    def test_rearmed_event_keeps_callback_priority_and_label(self):
        eng = Engine()
        out = []
        event = eng.call_at(1.0, out.append, "x", priority=EventPriority.PERIOD, label="p")
        eng.run()
        eng.call_at(2.0, out.append, "timer")
        eng.rearm(event, 2.0)
        eng.run()
        # Same time, lower priority value first: the re-armed PERIOD event
        # runs before the TIMER pushed ahead of it.
        assert out == ["x", "x", "timer"]
        assert (event.time, event.priority, event.label) == (2.0, EventPriority.PERIOD, "p")

    def test_cancelled_event_raises(self):
        eng = Engine()
        event = eng.call_at(1.0, lambda: None)
        eng.run()
        eng.cancel(event)
        with pytest.raises(EngineError, match="cancelled"):
            eng.rearm(event, 2.0)
        assert len(eng) == 0

    def test_past_time_raises(self):
        eng = Engine()
        event = eng.call_at(1.0, lambda: None)
        eng.run()
        with pytest.raises(EngineError, match="cannot schedule"):
            eng.rearm(event, 0.5)


class TestStats:
    def test_counters(self):
        eng = Engine()
        handles = [eng.call_at(float(i), lambda: None) for i in range(5)]
        eng.cancel(handles[0])
        eng.run()
        assert eng.stats.scheduled == 5
        assert eng.stats.dispatched == 4
        assert eng.stats.cancelled == 1
        assert eng.stats.max_queue == 5

    def test_describe_event(self):
        eng = Engine()
        handle = eng.call_at(1.0, lambda: None, label="probe")
        assert "probe" in describe_event(handle)
        assert describe_event(None) == "<none>"


class TestPropertyOrdering:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
                st.integers(min_value=0, max_value=3),
            ),
            max_size=60,
        )
    )
    def test_dispatch_order_is_sorted(self, entries):
        eng = Engine()
        out = []
        for index, (time, priority) in enumerate(entries):
            eng.call_at(
                time,
                out.append,
                (time, priority, index),
                priority=priority,
            )
        eng.run()
        assert out == sorted(out)

    @given(st.lists(st.floats(min_value=0.0, max_value=100.0, allow_nan=False), max_size=40))
    def test_clock_is_monotone(self, times):
        eng = Engine()
        seen = []
        for time in times:
            eng.call_at(time, lambda: seen.append(eng.now))
        eng.run()
        assert seen == sorted(seen)
