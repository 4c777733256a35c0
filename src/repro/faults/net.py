"""Message-level control-plane fault injection (``repro.faults.net``).

The paper's master pushes subjobs to nodes over a LAN and silently
assumes every control message arrives, in order, exactly once.  This
module drops that assumption: a :class:`ControlChannel` sits between the
schedulers and the cluster and subjects every control message — central
dispatches and completion reports, decentral grants and standing-bid
posts — to seeded per-message loss, duplication, reordering and delay
drawn from the dedicated ``faults.net.*`` RNG streams.

The reliability protocol layered on top is a classic ack+retransmit
state machine:

* every reliable message is (re)transmitted until the receiver's ack
  survives the reverse path, with exponential backoff between attempts
  (``ack_timeout * ack_backoff_factor**(attempt-1)``, capped);
* the receiver deduplicates: only the *first* copy of a message invokes
  its ``deliver`` callback, later copies are counted and re-acked;
* after ``retransmit_budget`` retransmits without an ack the message is
  **dead-lettered**: if it was genuinely never delivered its
  ``on_dead_letter`` callback runs (dispatches re-pend their subjob, so
  lost work is re-queued rather than stranded), and a copy of it still
  in flight is dropped when it lands; if it *was* delivered and only
  the acks were lost, it is silently retired — running the dead-letter
  path would double-book the work;
* completion reports are sent ``unlimited`` — ground truth must
  eventually reach the master, so they retransmit without a budget.

Determinism: all randomness comes from the channel's four private
streams, so a run depends only on ``(seed, NetFaultConfig)`` and is
bit-identical across ``--jobs``, cache hits and the sanitizer.  Each
stream is read through a block reader that draws ``_BLOCK`` values at a
time and hands them out one per decision.  Nothing else reads these
streams, and on Philox a block draw yields exactly the values the same
number of single draws would, so the order of reads *within* a stream
is all that fixes each decision's value — how the streams' reads
interleave, or where a block boundary falls, changes nothing.  A
perfect network has no channel at all: the simulator builds one only
for a config with some fault enabled, and the constructor refuses any
other, so every control path of a perfect-network run is synchronous
and draw-free.

Acks and retransmit timers cost no calendar event of their own.  An
ack that survives its draws is recorded on its message as the instant
it lands, ``(ack_at, ack_ord)``: ``ack_ord`` comes from the channel's
ordinal counter, which every copy also draws from when it is pushed, so
a copy (``MESSAGE`` priority) sees the ack iff ``(ack_at, ack_ord) <
(now, ordinal)`` — exactly the order the ack's own ``MESSAGE`` event
would have taken — and a timer (``TIMER`` priority, after every
message of its instant) sees it iff ``ack_at <= now``.  The timeout of
attempt *k* is constant, so the timers armed at one attempt level come
due in arm order: each level is one FIFO of ``(deadline, seq,
message)`` behind one reused calendar event, queued at its head's
``(deadline, TIMER, seq)``, where ``seq`` was reserved from the engine
when the timer was armed.  Every timeout therefore fires exactly where
a per-message timer event would have.  A retire or a landed ack leaves
the calendar alone; the firing that reaches a finished message drops
it.

Accounting invariants (checked by :meth:`ControlChannel.validate` under
the sanitizer): for reliable messages, at every instant,
``sent == delivered + dead_letters + (in-flight messages not yet
delivered)`` — a delivered message stays in flight until its ack
lands, so it counts as delivered already.  Every in-flight message sits
in exactly one FIFO, the one of its attempt level, and every non-empty
FIFO's event is queued at its head, so no message is ever silently
stranded.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from functools import partial
from itertools import chain
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

from ..core.engine import Engine
from ..core.errors import ConfigurationError, InvariantViolation
from ..core.events import EventPriority, ScheduledEvent
from ..core.rng import RandomStreams
from ..obs.hooks import NULL_BUS, HookBus, kinds
from ..sim.config import NetFaultConfig
from ..workload.jobs import Subjob, SubjobState
from .recovery import exponential_backoff

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.node import Node
    from ..sched.base import SchedulerPolicy

#: Values drawn per refill of a private stream's block reader.
_BLOCK = 512

_MESSAGE = int(EventPriority.MESSAGE)
_TIMER = int(EventPriority.TIMER)


def _block_reader(draw: Callable[[int], np.ndarray]) -> Callable[[], float]:
    """A zero-argument reader handing out the values of ``draw(_BLOCK)``
    one per call and drawing the next block when one runs out; the
    chained iterator's ``__next__`` keeps each read at C level."""

    def refill() -> List[float]:
        return draw(_BLOCK).tolist()

    return chain.from_iterable(iter(refill, None)).__next__


@dataclass
class ChannelStats:
    """Lifetime counters of one :class:`ControlChannel`."""

    #: Reliable messages admitted via :meth:`ControlChannel.send_reliable`.
    sent: int = 0
    #: Reliable messages whose first copy reached the receiver.
    delivered: int = 0
    #: Reliable messages that exhausted their retransmit budget undelivered.
    dead_letters: int = 0
    #: Individual transmissions (requests, acks, one-way posts) lost in transit.
    copies_lost: int = 0
    #: Spontaneous duplicate copies injected by the channel.
    duplicates: int = 0
    #: Redundant copies discarded by receiver-side deduplication.
    duplicates_dropped: int = 0
    #: Copies held back past later traffic (reordering events).
    reordered: int = 0
    #: Retransmissions performed by the ack state machine.
    retransmits: int = 0
    #: Messages whose ack timer ran out (one per timed-out attempt).
    timeouts: int = 0
    #: Arbiter failover re-elections (incremented by the decentral policy).
    failovers: int = 0
    #: Subjobs re-pended after a dispatch dead-letter or bounce.
    dispatch_repends: int = 0
    #: One-way (fire-and-forget) posts attempted.
    oneway_sent: int = 0
    #: One-way posts lost (the sender finds out via its own timeout logic).
    oneway_lost: int = 0


class _Message:
    """Sender-side state of one reliable message."""

    __slots__ = (
        "msg_id",
        "kind",
        "label",
        "node",
        "deliver",
        "on_dead_letter",
        "unlimited",
        "attempt",
        "delivered",
        "retired",
        "ack_at",
        "ack_ord",
    )

    def __init__(
        self,
        msg_id: int,
        kind: str,
        label: str,
        node: int,
        deliver: Callable[[], None],
        on_dead_letter: Optional[Callable[[], None]],
        unlimited: bool,
    ) -> None:
        self.msg_id = msg_id
        self.kind = kind
        #: Calendar label of the message's copies, shared by the kind.
        self.label = label
        self.node = node
        self.deliver = deliver
        self.on_dead_letter = on_dead_letter
        self.unlimited = unlimited
        self.attempt = 1
        self.delivered = False
        #: Given up on: dead-lettered, or delivered with every ack lost.
        self.retired = False
        #: When and in which channel ordinal the earliest surviving ack
        #: lands (``inf`` until one is sent).
        self.ack_at = float("inf")
        self.ack_ord = -1


class _RetransmitLevel:
    """The retransmit timers of one attempt level: ``(deadline, seq,
    message)`` entries in arm order, behind one reused calendar event
    that is queued at the head's key while the FIFO is non-empty."""

    __slots__ = ("attempt", "timeout", "entries", "event")

    def __init__(
        self, attempt: int, timeout: float, callback: Callable[..., None]
    ) -> None:
        self.attempt = attempt
        #: Ack timeout of this attempt: ``exponential_backoff(attempt)``.
        self.timeout = timeout
        self.entries: Deque[Tuple[float, int, _Message]] = deque()
        self.event = ScheduledEvent(
            timeout, _TIMER, -1, callback, (self,), False, f"net.rto@{attempt}"
        )


class ControlChannel:
    """The unreliable control LAN between schedulers and nodes.

    Deliveries are dispatched at :attr:`EventPriority.MESSAGE` and the
    channel owns the ``faults.net.loss/dup/delay/reorder`` streams.  A
    config with no fault enabled is refused: a perfect network has no
    channel.
    """

    def __init__(
        self,
        engine: Engine,
        config: NetFaultConfig,
        streams: RandomStreams,
        obs: HookBus = NULL_BUS,
    ) -> None:
        if not config.enabled:
            raise ConfigurationError(
                "a ControlChannel needs a NetFaultConfig with some fault "
                "enabled; a perfect network runs without one"
            )
        self.engine = engine
        self.config = config
        self.obs = obs
        self.stats = ChannelStats()
        self._seq = 0
        #: Order of copies and acks among the channel's ``MESSAGE`` traffic.
        self._ordinal = 0
        #: Retransmit FIFOs by attempt level (index ``attempt - 1``).
        self._levels: List[_RetransmitLevel] = []
        #: Messages that left the FIFOs for good: acked, or given up on.
        self._settled = 0
        self._labels: Dict[str, str] = {}
        # -- central-dispatch coordination -----------------------------------
        self.policy: Optional["SchedulerPolicy"] = None
        self._repend_backlog: List[Subjob] = []
        self._loss = _block_reader(streams.get("faults.net.loss").random)
        self._dup = _block_reader(streams.get("faults.net.dup").random)
        self._delay = _block_reader(
            partial(
                streams.get("faults.net.delay").exponential, config.delay_mean
            )
        )
        self._reorder = _block_reader(
            streams.get("faults.net.reorder").random
        )
        self._repend_timer = engine.timer(
            self._on_repend_timer,
            priority=EventPriority.TIMER,
            label="net.repend",
        )

    # -- queries ---------------------------------------------------------------

    @property
    def in_flight(self) -> int:
        """Reliable messages neither delivered+acked nor given up on."""
        now = self.engine.now
        return sum(
            1
            for level in self._levels
            for _, _, msg in level.entries
            if not msg.retired and msg.ack_at > now
        )

    def validate(self) -> None:
        """Deep consistency check (sim-sanitizer mode): each retransmit
        FIFO in arm order, every in-flight message in exactly one FIFO
        (its attempt level's), each non-empty FIFO's event queued at its
        head and each empty one's not queued, and the reliable balance
        law of the module docstring.  O(calendar) — called from the
        simulator's periodic probe."""
        now = self.engine.now
        stats = self.stats
        where: Dict[int, int] = {}
        undelivered = 0
        for level in self._levels:
            previous: Optional[Tuple[float, int]] = None
            for deadline, seq, msg in level.entries:
                if previous is not None and (
                    deadline < previous[0] or seq <= previous[1]
                ):
                    raise InvariantViolation(
                        f"retransmit FIFO {level.attempt} out of order at "
                        f"t={now:.6f}: (t={deadline:.6f}, seq={seq}) "
                        f"follows (t={previous[0]:.6f}, seq={previous[1]})"
                    )
                previous = (deadline, seq)
                other = where.setdefault(msg.msg_id, level.attempt)
                if other != level.attempt:
                    raise InvariantViolation(
                        f"message {msg.msg_id} ({msg.kind}) is queued in "
                        f"retransmit FIFOs {other} and {level.attempt}"
                    )
                if msg.retired or msg.ack_at <= now:
                    continue  # finished; the next firing drops it
                if msg.attempt != level.attempt:
                    raise InvariantViolation(
                        f"in-flight message {msg.msg_id} ({msg.kind}) at "
                        f"attempt {msg.attempt} is queued in retransmit "
                        f"FIFO {level.attempt}"
                    )
                if not msg.delivered:
                    undelivered += 1
        armed = Counter(
            id(event)
            for event in self.engine.pending_events()
            if event.callback == self._on_rto
        )
        for level in self._levels:
            event = level.event
            queued = armed[id(event)]
            if not level.entries:
                if queued:
                    raise InvariantViolation(
                        f"retransmit FIFO {level.attempt} is empty but its "
                        f"event is queued at t={event.time:.6f}"
                    )
                continue
            deadline, seq, msg = level.entries[0]
            if queued != 1 or (event.time, event.priority, event.seq) != (
                deadline,
                _TIMER,
                seq,
            ):
                raise InvariantViolation(
                    f"retransmit FIFO {level.attempt}'s event is queued "
                    f"{queued} times at (t={event.time:.6f}, "
                    f"prio={event.priority}, seq={event.seq}), not at its "
                    f"head's (t={deadline:.6f}, prio={_TIMER}, seq={seq}) "
                    f"(message {msg.msg_id})"
                )
        if stats.sent != self._settled + len(where):
            raise InvariantViolation(
                f"a reliable message is missing from the retransmit FIFOs "
                f"at t={now:.6f}: sent ({stats.sent}) != settled "
                f"({self._settled}) + queued ({len(where)})"
            )
        if stats.sent != stats.delivered + stats.dead_letters + undelivered:
            raise InvariantViolation(
                f"control channel balance broken at t={now:.6f}: "
                f"sent ({stats.sent}) != delivered ({stats.delivered}) + "
                f"dead letters ({stats.dead_letters}) + undelivered in "
                f"flight ({undelivered})"
            )

    # -- one-way posts ----------------------------------------------------------

    def attempt(self, kind: str = "post", node: int = -1) -> bool:
        """One loss draw for a fire-and-forget message (standing bids,
        lease beats).  Returns whether the post survived; the sender owns
        any recovery logic (re-advertisement timers, lease-miss counts)."""
        self.stats.oneway_sent += 1
        if self._loss() < self.config.loss:
            self.stats.oneway_lost += 1
            self.stats.copies_lost += 1
            if self.obs.enabled:
                self.obs.emit(
                    self.engine.now, kinds.NET_DROP, "net", node=node, msg=kind
                )
            return False
        return True

    # -- reliable messaging -------------------------------------------------------

    def send_reliable(
        self,
        deliver: Callable[[], None],
        kind: str,
        node: int = -1,
        on_dead_letter: Optional[Callable[[], None]] = None,
        unlimited: bool = False,
    ) -> None:
        """Send a message that must eventually invoke ``deliver`` exactly
        once, or — after the retransmit budget — ``on_dead_letter``.

        ``unlimited`` removes the budget (completion reports).
        """
        label = self._labels.get(kind)
        if label is None:
            label = self._labels[kind] = f"net:{kind}"
        msg = _Message(
            self._seq, kind, label, node, deliver, on_dead_letter, unlimited
        )
        self._seq += 1
        self.stats.sent += 1
        self._transmit(msg)
        self._arm(msg)

    # -- transmission internals ----------------------------------------------------

    def _transmit(self, msg: _Message) -> None:
        """Put one (possibly duplicated) copy of ``msg`` on the wire."""
        config = self.config
        if self._loss() < config.loss:
            self.stats.copies_lost += 1
            if self.obs.enabled:
                self.obs.emit(
                    self.engine.now,
                    kinds.NET_DROP,
                    "net",
                    node=msg.node,
                    msg=msg.kind,
                )
        else:
            self._schedule_copy(msg)
        if config.duplicate > 0 and self._dup() < config.duplicate:
            self.stats.duplicates += 1
            self._schedule_copy(msg)

    def _schedule_copy(self, msg: _Message) -> None:
        config = self.config
        delay = 0.0
        if config.delay_mean > 0:
            delay += self._delay()
        if config.reorder > 0 and self._reorder() < config.reorder:
            self.stats.reordered += 1
            delay += config.reorder_window * (1.0 + self._reorder())
        ordinal = self._ordinal
        self._ordinal = ordinal + 1
        engine = self.engine
        engine.call_at(
            engine.now + delay,
            self._deliver_copy,
            msg,
            ordinal,
            priority=_MESSAGE,
            label=msg.label,
        )

    def _deliver_copy(self, msg: _Message, ordinal: int) -> None:
        if msg.retired and not msg.delivered:
            # Dead-lettered: ``on_dead_letter`` already re-pended the
            # work, so a copy still in flight must not deliver it again.
            return
        if msg.delivered:
            # Receiver-side dedup: count the redundant copy and re-ack it
            # (the retransmit implies the sender missed the earlier ack).
            self.stats.duplicates_dropped += 1
            if self.obs.enabled:
                self.obs.emit(
                    self.engine.now,
                    kinds.NET_DUP,
                    "net",
                    node=msg.node,
                    msg=msg.kind,
                )
            self._send_ack(msg, ordinal)
            return
        msg.delivered = True
        self.stats.delivered += 1
        if self.obs.enabled:
            self.obs.emit(
                self.engine.now,
                kinds.NET_DELIVER,
                "net",
                node=msg.node,
                msg=msg.kind,
                attempt=msg.attempt,
            )
        # Draw the ack's fate before running the handler so the channel's
        # stream consumption per delivery is a fixed prefix, independent
        # of whatever scheduling cascade the handler triggers.
        self._send_ack(msg, ordinal)
        msg.deliver()

    def _send_ack(self, msg: _Message, ordinal: int) -> None:
        """Ack the copy of channel ordinal ``ordinal`` — unless the
        sender is done with the message: given up on, or an earlier ack
        landed before this copy in calendar order."""
        now = self.engine.now
        if msg.retired or (msg.ack_at, msg.ack_ord) < (now, ordinal):
            return
        config = self.config
        if self._loss() < config.loss:
            self.stats.copies_lost += 1
            return  # lost ack: the sender's timer keeps retransmitting
        ack_at = now + self._delay() if config.delay_mean > 0 else now
        ack_ord = self._ordinal
        self._ordinal = ack_ord + 1
        if ack_at < msg.ack_at:  # at a tie the earlier ordinal lands first
            msg.ack_at = ack_at
            msg.ack_ord = ack_ord

    # -- retransmit state machine ---------------------------------------------------

    def _level(self, attempt: int) -> _RetransmitLevel:
        """The FIFO of attempt level ``attempt``, made on first use."""
        levels = self._levels
        config = self.config
        while len(levels) < attempt:
            number = len(levels) + 1
            timeout = exponential_backoff(
                number,
                config.ack_timeout,
                config.ack_backoff_factor,
                config.ack_timeout_max,
            )
            levels.append(_RetransmitLevel(number, timeout, self._on_rto))
        return levels[attempt - 1]

    def _arm(self, msg: _Message) -> None:
        """Queue ``msg``'s timer in its attempt level's FIFO, pushing the
        FIFO's event when the timer is its new head."""
        level = self._level(msg.attempt)
        engine = self.engine
        deadline = engine.now + level.timeout
        seq = engine.reserve_seq()
        entries = level.entries
        entries.append((deadline, seq, msg))
        if len(entries) == 1:
            engine.rearm(level.event, deadline, seq)

    def _on_rto(self, level: _RetransmitLevel) -> None:
        """The timer at the head of ``level`` is due: re-arm the FIFO at
        its next unfinished entry, then time the head out unless it was
        acked or given up on meanwhile."""
        now = self.engine.now
        entries = level.entries
        msg = entries.popleft()[2]
        while entries:
            head = entries[0][2]
            if head.retired or head.ack_at <= now:
                entries.popleft()
                self._settled += 1
                continue
            deadline, seq, _ = entries[0]
            self.engine.rearm(level.event, deadline, seq)
            break
        if msg.retired or msg.ack_at <= now:
            self._settled += 1
            return
        self.stats.timeouts += 1
        if self.obs.enabled:
            self.obs.emit(
                self.engine.now,
                kinds.NET_TIMEOUT,
                "net",
                node=msg.node,
                msg=msg.kind,
                attempt=msg.attempt,
            )
        if not msg.unlimited and msg.attempt > self.config.retransmit_budget:
            self._settled += 1
            self._give_up(msg)
            return
        msg.attempt += 1
        self.stats.retransmits += 1
        if self.obs.enabled:
            self.obs.emit(
                self.engine.now,
                kinds.NET_RETRANSMIT,
                "net",
                node=msg.node,
                msg=msg.kind,
                attempt=msg.attempt,
            )
        self._transmit(msg)
        self._arm(msg)

    def _give_up(self, msg: _Message) -> None:
        msg.retired = True
        if msg.delivered:
            # The payload arrived; only the acks were lost.  Retiring
            # without the dead-letter path is what keeps delivery
            # exactly-once — re-pending here would double-book the work.
            return
        self.stats.dead_letters += 1
        if self.obs.enabled:
            self.obs.emit(
                self.engine.now,
                kinds.NET_DEAD_LETTER,
                "net",
                node=msg.node,
                msg=msg.kind,
                attempts=msg.attempt,
            )
        callback = msg.on_dead_letter
        if callback is not None:
            callback()

    # -- central dispatch coordination ------------------------------------------------

    def attach_policy(self, policy: "SchedulerPolicy") -> None:
        """Install the bound policy used for re-dispatching dead-lettered
        work (called by the simulator after ``policy.bind``)."""
        self.policy = policy

    def dispatch(self, node: "Node", subjob: Subjob) -> None:
        """Reliable central push of ``subjob`` to ``node``.

        The node is *reserved* while the message is in flight so no other
        scheduling decision double-books it; delivery clears the
        reservation and starts the subjob (or bounces it back to the
        re-pend backlog if the node crashed in the meantime), and a
        dead-letter re-pends it.
        """
        node.reserved = True
        self.send_reliable(
            lambda: self._deliver_dispatch(node, subjob),
            kind="dispatch",
            node=node.node_id,
            on_dead_letter=lambda: self._dispatch_dead_letter(node, subjob),
        )

    def _deliver_dispatch(self, node: "Node", subjob: Subjob) -> None:
        if (
            subjob.state not in (SubjobState.PENDING, SubjobState.SUSPENDED)
            or subjob.remaining_events == 0
        ):
            node.reserved = False
            return  # finished or resumed through another path meanwhile
        if node.failed or node.busy:
            node.reserved = False
            self._repend(subjob)
            return
        # Start first, then drop the reservation: the node goes from
        # reserved to busy without passing through the idle index.
        node.start(subjob)
        node.reserved = False

    def _dispatch_dead_letter(self, node: "Node", subjob: Subjob) -> None:
        node.reserved = False
        if (
            subjob.state in (SubjobState.PENDING, SubjobState.SUSPENDED)
            and subjob.remaining_events > 0
        ):
            self._repend(subjob)

    def _repend(self, subjob: Subjob) -> None:
        self.stats.dispatch_repends += 1
        self._repend_backlog.append(subjob)
        self._arm_repend()

    def drain(self) -> int:
        """Re-dispatch re-pended subjobs onto idle nodes.

        Drain points (caller-driven, mirroring
        :class:`~repro.faults.recovery.RecoveryManager`): every subjob
        completion and the channel's own backstop timer.  Returns the
        number re-dispatched.
        """
        if not self._repend_backlog or self.policy is None:
            return 0
        dispatched = 0
        index = 0
        while index < len(self._repend_backlog):
            subjob = self._repend_backlog[index]
            if (
                subjob.state not in (SubjobState.PENDING, SubjobState.SUSPENDED)
                or subjob.remaining_events == 0
            ):
                del self._repend_backlog[index]  # resumed/finished elsewhere
                continue
            node = self.policy.pick_retry_node(subjob)
            if node is None:
                index += 1  # no idle node right now
                continue
            del self._repend_backlog[index]
            # Routed back through start_on, i.e. through this channel: the
            # re-dispatch rides the same unreliable LAN as the original.
            self.policy.start_on(node, subjob)
            dispatched += 1
        self._arm_repend()
        return dispatched

    def _on_repend_timer(self) -> None:
        self.drain()

    def _arm_repend(self) -> None:
        if self._repend_backlog:
            self._repend_timer.schedule_after(self.config.ack_timeout)
        else:
            self._repend_timer.cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ControlChannel(in_flight={self.in_flight}, stats={self.stats})"
        )
