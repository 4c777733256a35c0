"""Tests for the unreliable control plane (repro.faults.net).

Covers the tentpole guarantees: no channel on a perfect network (a
disabled config builds none and is refused), deterministic seeded
fault injection when enabled (bit-identical across repeats, --jobs and
the sanitizer), the ack+retransmit/dead-letter accounting invariant
and ``ControlChannel.validate``, exactly-once delivery under
duplication, liveness under brutal loss (dead-lettered dispatches are
re-pended, not stranded), and the decentral policy's lease-based arbiter
failover.  Two checks reach across commits: lossy runs pinned to
``goldens/net_metrics.json``, and a hypothesis oracle that drives the
block-draw channel against the scalar-draw channel it replaced, with one
calendar event per ack and per retransmit timer.
"""

import dataclasses
import json
import math
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import units
from repro.core.engine import Engine
from repro.core.errors import ConfigurationError, InvariantViolation
from repro.core.events import EventPriority
from repro.core.rng import RandomStreams
from repro.exec import Executor
from repro.faults import ChannelStats, ControlChannel
from repro.faults.recovery import exponential_backoff
from repro.sched.base import create_policy
from repro.sim.config import FaultConfig, NetFaultConfig, quick_config
from repro.sim.export import SCHEMA_VERSION, result_summary_dict
from repro.sim.runner import RunSpec, run_sweep
from repro.sim.simulator import Simulation, run_simulation

GOLDENS = os.path.join(os.path.dirname(__file__), "goldens", "net_metrics.json")


def _config(net=None, **overrides):
    defaults = dict(duration=2 * units.DAY, seed=3, n_nodes=6,
                    arrival_rate_per_hour=6.0)
    defaults.update(overrides)
    return quick_config(net=net, **defaults)


def _lossy(**overrides):
    defaults = dict(loss=0.2, duplicate=0.1, delay_mean=0.05, reorder=0.1,
                    ack_timeout=2.0)
    defaults.update(overrides)
    return NetFaultConfig(**defaults)


def _comparable(result):
    """The summary minus wall-clock noise and the config block (which
    legitimately differs between net=None and a disabled NetFaultConfig)."""
    summary = result_summary_dict(result)
    summary.pop("wall_seconds")
    summary.pop("config")
    return summary


class TestNetFaultConfig:
    def test_all_zero_is_disabled(self):
        assert not NetFaultConfig().enabled

    @pytest.mark.parametrize(
        "field", ["loss", "duplicate", "delay_mean", "reorder"]
    )
    def test_any_fault_knob_enables(self, field):
        assert NetFaultConfig(**{field: 0.1}).enabled

    @pytest.mark.parametrize(
        "bad",
        [
            dict(loss=1.0),
            dict(duplicate=-0.1),
            dict(delay_mean=-1.0),
            dict(ack_timeout=0.0),
            dict(ack_backoff_factor=0.5),
            dict(retransmit_budget=0),
            dict(lease_misses=0),
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(Exception):
            NetFaultConfig(**bad)


class TestDisabledPassThrough:
    def test_disabled_config_matches_channelless_run(self):
        bare = run_simulation(_config(net=None), "out-of-order")
        disabled = run_simulation(
            _config(net=NetFaultConfig()), "out-of-order"
        )
        assert _comparable(bare) == _comparable(disabled)

    def test_perfect_network_has_no_channel(self):
        for net in (None, NetFaultConfig()):
            sim = Simulation(_config(net=net), create_policy("out-of-order"))
            assert sim.channel is None
        with pytest.raises(ConfigurationError, match="perfect network"):
            ControlChannel(Engine(), NetFaultConfig(), RandomStreams(0))

    def test_reliability_counters_zero_on_perfect_network(self):
        result = run_simulation(_config(), "out-of-order")
        sched = result.sched
        assert (sched.retransmits, sched.duplicates_dropped, sched.timeouts,
                sched.dead_letters, sched.failovers) == (0, 0, 0, 0, 0)


class TestDeterminism:
    @pytest.mark.parametrize("policy", ["out-of-order", "decentral"])
    def test_bit_identical_across_repeats(self, policy):
        first = run_simulation(_config(net=_lossy()), policy)
        second = run_simulation(_config(net=_lossy()), policy)
        assert _comparable(first) == _comparable(second)

    def test_bit_identical_under_sanitizer(self):
        plain = run_simulation(_config(net=_lossy()), "out-of-order")
        checked = run_simulation(
            _config(net=_lossy()), "out-of-order", check_invariants=True
        )
        assert _comparable(plain) == _comparable(checked)

    def test_sweep_json_identical_across_jobs(self):
        def specs():
            return [
                RunSpec.make(_config(net=_lossy(), seed=seed), policy,
                             label=f"{policy}@{seed}")
                for seed in (1, 2)
                for policy in ("out-of-order", "decentral")
            ]

        serial = run_sweep(specs(), executor=Executor(jobs=1))
        pooled = run_sweep(specs(), executor=Executor(jobs=3))
        assert serial.to_json() == pooled.to_json()

    def test_adding_the_channel_does_not_perturb_other_streams(self):
        # The channel draws only from its private faults.net.* streams:
        # a run whose channel is enabled sees the same arrivals (and the
        # same job population) as the perfect-network run.
        bare = run_simulation(_config(), "out-of-order")
        lossy = run_simulation(_config(net=_lossy()), "out-of-order")
        assert lossy.jobs_arrived == bare.jobs_arrived


class TestChannelProtocol:
    def _channel(self, config, seed=0):
        engine = Engine()
        return engine, ControlChannel(engine, config, RandomStreams(seed))

    def test_balance_invariant_under_heavy_loss(self):
        engine, channel = self._channel(
            NetFaultConfig(loss=0.6, ack_timeout=0.5, retransmit_budget=2)
        )
        delivered = []
        dead = []
        for i in range(200):
            channel.send_reliable(
                lambda i=i: delivered.append(i),
                kind="test",
                on_dead_letter=lambda i=i: dead.append(i),
            )
        engine.run(until=1000.0)
        stats = channel.stats
        assert channel.in_flight == 0
        assert stats.sent == 200
        assert stats.sent == stats.delivered + stats.dead_letters
        assert len(delivered) == stats.delivered
        assert stats.dead_letters > 0
        # Exactly-once: dead-lettered messages never ran their handler.
        assert set(delivered).isdisjoint(dead)
        assert len(dead) == stats.dead_letters

    def test_exactly_once_under_certain_duplication(self):
        engine, channel = self._channel(NetFaultConfig(duplicate=0.99))
        count = [0]
        for _ in range(100):
            channel.send_reliable(lambda: count.__setitem__(0, count[0] + 1),
                                  kind="test")
        engine.run(until=100.0)
        assert count[0] == 100
        assert channel.stats.duplicates > 0
        assert channel.stats.duplicates_dropped > 0
        assert channel.in_flight == 0

    def test_unlimited_messages_never_dead_letter(self):
        engine, channel = self._channel(
            NetFaultConfig(loss=0.9, ack_timeout=0.5, retransmit_budget=1)
        )
        delivered = [0]
        for _ in range(30):
            channel.send_reliable(
                lambda: delivered.__setitem__(0, delivered[0] + 1),
                kind="report",
                unlimited=True,
            )
        engine.run(until=500_000.0)
        assert delivered[0] == 30
        assert channel.stats.dead_letters == 0
        assert channel.in_flight == 0

    def test_delivered_but_unacked_retires_without_dead_letter(self):
        # loss=0 forward... force the scenario directly: mark a message
        # delivered, then exhaust its budget — the dead-letter callback
        # must NOT run (the work already happened exactly once).
        engine, channel = self._channel(
            NetFaultConfig(loss=0.5, ack_timeout=1.0, retransmit_budget=1)
        )
        dead = []
        channel.send_reliable(lambda: None, kind="test",
                              on_dead_letter=lambda: dead.append(True))
        ((_, _, msg),) = channel._levels[0].entries
        msg.delivered = True
        channel._give_up(msg)
        assert dead == []
        assert channel.stats.dead_letters == 0
        assert channel.in_flight == 0

    def test_late_copy_of_a_dead_letter_is_dropped(self):
        # Delays far above the ack timeout: copies are still in flight
        # when their message runs out of retransmits and is dead-lettered.
        # Such a copy must not deliver what on_dead_letter re-pended.
        engine, channel = self._channel(
            NetFaultConfig(loss=0.3, delay_mean=3.0, ack_timeout=0.5,
                           retransmit_budget=1),
            seed=7,
        )
        delivered = []
        dead = []
        for i in range(200):
            channel.send_reliable(
                lambda i=i: delivered.append(i),
                kind="dispatch",
                on_dead_letter=lambda i=i: dead.append(i),
            )
        engine.run()
        stats = channel.stats
        assert dead, "the setup must dead-letter some messages"
        assert set(delivered).isdisjoint(dead)
        assert len(delivered) == stats.delivered
        assert len(dead) == stats.dead_letters
        assert channel.in_flight == 0
        assert stats.sent == stats.delivered + stats.dead_letters

    def test_balance_law_holds_at_every_instant(self):
        engine, channel = self._channel(
            NetFaultConfig(loss=0.3, duplicate=0.1, delay_mean=0.2,
                           reorder=0.1, ack_timeout=0.5, retransmit_budget=2)
        )
        for _ in range(50):
            channel.send_reliable(lambda: None, kind="test")
        stats = channel.stats
        while engine.step():
            channel.validate()
        assert channel.in_flight == 0
        assert stats.sent == stats.delivered + stats.dead_letters

    def test_validate_rejects_a_broken_balance(self):
        engine, channel = self._channel(NetFaultConfig(loss=0.1))
        channel.send_reliable(lambda: None, kind="test")
        channel.validate()
        channel.stats.delivered += 1
        with pytest.raises(InvariantViolation, match="balance"):
            channel.validate()

    def test_validate_rejects_a_message_missing_from_its_fifo(self):
        engine, channel = self._channel(NetFaultConfig(loss=0.1))
        channel.send_reliable(lambda: None, kind="test")
        channel.send_reliable(lambda: None, kind="test")
        channel.validate()
        channel._levels[0].entries.pop()  # the tail: the head stays armed
        with pytest.raises(InvariantViolation, match="missing from the retransmit"):
            channel.validate()

    def test_validate_rejects_a_message_in_two_fifos(self):
        engine, channel = self._channel(NetFaultConfig(loss=0.1))
        channel.send_reliable(lambda: None, kind="test")
        (entry,) = channel._levels[0].entries
        channel._level(2).entries.append(entry)
        with pytest.raises(InvariantViolation, match="FIFOs 1 and 2"):
            channel.validate()

    def test_validate_rejects_an_event_rearmed_at_a_wrong_seq(self):
        engine, channel = self._channel(NetFaultConfig(loss=0.1))
        rearm = engine.rearm
        # Re-arm at a fresh seq instead of the one reserved at arm time.
        engine.rearm = lambda event, time, seq=None: rearm(event, time)
        channel.send_reliable(lambda: None, kind="test")
        with pytest.raises(InvariantViolation, match="not at its head"):
            channel.validate()

    def test_validate_rejects_an_empty_fifo_whose_event_is_queued(self):
        engine, channel = self._channel(NetFaultConfig(loss=0.1))
        channel.send_reliable(lambda: None, kind="test")
        channel._levels[0].entries.clear()
        with pytest.raises(InvariantViolation, match="empty but its event"):
            channel.validate()

    def test_oneway_posts_tracked_separately(self):
        engine, channel = self._channel(NetFaultConfig(loss=0.5))
        survived = sum(channel.attempt() for _ in range(400))
        stats = channel.stats
        assert stats.oneway_sent == 400
        assert stats.oneway_lost == 400 - survived
        assert stats.sent == 0  # not part of the reliable balance
        assert 100 < survived < 300  # loss is actually being applied


class TestEndToEndLiveness:
    def test_brutal_loss_still_completes_the_workload(self):
        net = NetFaultConfig(loss=0.45, ack_timeout=0.5, retransmit_budget=2)
        result = run_simulation(_config(net=net), "out-of-order")
        sched = result.sched
        assert sched.dead_letters > 0  # the re-pend path actually ran
        assert sched.retransmits > 0
        # Dead-lettered dispatches are re-pended, not stranded: nearly
        # everything that arrived still completes.
        assert result.jobs_completed >= 0.9 * result.jobs_arrived

    def test_summary_json_carries_v5_reliability_counters(self):
        result = run_simulation(_config(net=_lossy()), "out-of-order")
        summary = result_summary_dict(result)
        assert summary["schema_version"] == SCHEMA_VERSION
        sched = summary["sched"]
        assert sched["retransmits"] > 0
        for key in ("duplicates_dropped", "timeouts", "dead_letters",
                    "failovers"):
            assert key in sched
        assert not math.isnan(sched["messages_per_subjob"])


class TestDecentralHardening:
    def test_failover_fires_under_loss(self):
        net = NetFaultConfig(loss=0.2, ack_timeout=2.0, lease_interval=600.0,
                             lease_misses=2)
        result = run_simulation(_config(net=net), "decentral")
        assert result.sched.failovers > 0
        assert result.jobs_completed >= 0.9 * result.jobs_arrived

    def test_perfect_network_decentral_untouched(self):
        bare = run_simulation(_config(), "decentral")
        disabled = run_simulation(_config(net=NetFaultConfig()), "decentral")
        assert _comparable(bare) == _comparable(disabled)
        assert bare.sched.failovers == 0

    def test_bid_losses_counted(self):
        result = run_simulation(
            _config(net=NetFaultConfig(loss=0.3, ack_timeout=1.0)),
            "decentral",
        )
        assert int(result.policy_stats["bid_losses"]) > 0


class TestObsEvents:
    def test_net_events_reach_the_recorder(self):
        from repro.obs import TraceRecorder

        recorder = TraceRecorder(capacity=200_000)
        run_simulation(_config(net=_lossy()), "out-of-order", sink=recorder)
        recorder.close()
        summary = recorder.summary()
        assert summary["net_drops"] > 0
        assert summary["net_delivered"] > 0
        assert summary["net_retransmits"] > 0
        assert summary["net_timeouts"] > 0


# -- cross-commit golden: lossy runs pinned to the committed file ------------

_GOLDEN_POLICIES = ("out-of-order", "decentral")

_SCHED_RELIABILITY = (
    "messages", "subjobs_started", "retransmits", "duplicates_dropped",
    "timeouts", "dead_letters", "failovers",
)


def _golden_config():
    """Loss, duplication, delay and reordering all on, over node crashes."""
    return quick_config(
        duration=2 * units.DAY, seed=7, n_nodes=8, arrival_rate_per_hour=6.0,
        faults=FaultConfig(node_mtbf=6 * units.HOUR,
                           node_mttr=30 * units.MINUTE),
        net=NetFaultConfig(loss=0.2, duplicate=0.05, delay_mean=0.05,
                           reorder=0.1, ack_timeout=2.0, retransmit_budget=2),
    )


def _net_snapshot(policy: str) -> dict:
    sim = Simulation(_golden_config(), create_policy(policy))
    result = sim.run()
    measured = result.measured
    return {
        "channel": dataclasses.asdict(sim.channel.stats),
        "engine": {
            "dispatched": sim.engine.stats.dispatched,
            "scheduled": sim.engine.stats.scheduled,
            "cancelled": sim.engine.stats.cancelled,
        },
        "engine_events": result.engine_events,
        "sched": {key: getattr(result.sched, key) for key in _SCHED_RELIABILITY},
        "events_by_source": result.events_by_source,
        "jobs_arrived": result.jobs_arrived,
        "jobs_completed": result.jobs_completed,
        "n_jobs": measured.n_jobs,
        "mean_processing": measured.mean_processing,
        "mean_sojourn": measured.mean_sojourn,
        "mean_speedup": measured.mean_speedup,
        "mean_waiting": measured.mean_waiting,
        "p95_waiting": measured.p95_waiting,
        "node_utilization": result.node_utilization,
        "tertiary_events_read": result.tertiary_events_read,
    }


def write_net_golden(path: str = GOLDENS) -> None:
    """Regenerate ``goldens/net_metrics.json`` (only on a deliberate
    change of the channel's draws or schedule)."""
    payload = {policy: _net_snapshot(policy) for policy in _GOLDEN_POLICIES}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


class TestCrossCommitGolden:
    """A change in draw order or calendar pushes passes every
    self-comparison above; it cannot pass this one."""

    @pytest.mark.parametrize("policy", _GOLDEN_POLICIES)
    def test_lossy_run_matches_committed_golden(self, policy):
        with open(GOLDENS, "r", encoding="utf-8") as handle:
            golden = json.load(handle)[policy]
        snapshot = json.loads(json.dumps(_net_snapshot(policy)))
        assert snapshot == golden


# -- oracle: the scalar-draw channel the block-draw one replaced --------------


class _ScalarMessage:
    __slots__ = ("msg_id", "kind", "deliver", "on_dead_letter", "unlimited",
                 "attempt", "delivered", "done", "retransmit_event")

    def __init__(self, msg_id, kind, deliver, on_dead_letter, unlimited):
        self.msg_id = msg_id
        self.kind = kind
        self.deliver = deliver
        self.on_dead_letter = on_dead_letter
        self.unlimited = unlimited
        self.attempt = 1
        self.delivered = False
        self.done = False
        self.retransmit_event = None


class _ScalarChannel:
    """The messaging half of the channel as it was before block draws:
    one numpy draw per decision, ``call_after`` for every copy, ack and
    timer, labels built per call and the backoff recomputed per arm.  An
    ack retires its message when its own event runs, and a retire
    cancels the message's timer event."""

    def __init__(self, engine, config, streams):
        self.engine = engine
        self.config = config
        self.stats = ChannelStats()
        self._seq = 0
        self._messages = {}
        self._loss = streams.get("faults.net.loss")
        self._dup = streams.get("faults.net.dup")
        self._delay = streams.get("faults.net.delay")
        self._reorder = streams.get("faults.net.reorder")

    @property
    def in_flight(self):
        return len(self._messages)

    def attempt(self, kind="post", node=-1):
        self.stats.oneway_sent += 1
        if float(self._loss.random()) < self.config.loss:
            self.stats.oneway_lost += 1
            self.stats.copies_lost += 1
            return False
        return True

    def send_reliable(self, deliver, kind, node=-1, on_dead_letter=None,
                      unlimited=False):
        msg = _ScalarMessage(self._seq, kind, deliver, on_dead_letter,
                             unlimited)
        self._seq += 1
        self._messages[msg.msg_id] = msg
        self.stats.sent += 1
        self._transmit(msg)
        self._arm(msg)

    def _transmit(self, msg):
        config = self.config
        if float(self._loss.random()) < config.loss:
            self.stats.copies_lost += 1
        else:
            self._schedule_copy(msg)
        if config.duplicate > 0 and float(self._dup.random()) < config.duplicate:
            self.stats.duplicates += 1
            self._schedule_copy(msg)

    def _copy_delay(self):
        config = self.config
        delay = 0.0
        if config.delay_mean > 0:
            delay += float(self._delay.exponential(config.delay_mean))
        if config.reorder > 0 and float(self._reorder.random()) < config.reorder:
            self.stats.reordered += 1
            delay += config.reorder_window * (1.0 + float(self._reorder.random()))
        return delay

    def _schedule_copy(self, msg):
        self.engine.call_after(self._copy_delay(), self._deliver_copy, msg,
                               priority=EventPriority.MESSAGE,
                               label=f"net:{msg.kind}")

    def _deliver_copy(self, msg):
        if msg.done and not msg.delivered:
            return  # a late copy of a dead letter
        if msg.delivered:
            self.stats.duplicates_dropped += 1
            self._send_ack(msg)
            return
        msg.delivered = True
        self.stats.delivered += 1
        self._send_ack(msg)
        msg.deliver()

    def _send_ack(self, msg):
        if msg.done:
            return
        config = self.config
        if float(self._loss.random()) < config.loss:
            self.stats.copies_lost += 1
            return
        delay = 0.0
        if config.delay_mean > 0:
            delay = float(self._delay.exponential(config.delay_mean))
        self.engine.call_after(delay, self._on_ack, msg,
                               priority=EventPriority.MESSAGE,
                               label=f"net.ack:{msg.kind}")

    def _on_ack(self, msg):
        if not msg.done:
            self._retire(msg)

    def _retire(self, msg):
        msg.done = True
        if msg.retransmit_event is not None:
            self.engine.cancel(msg.retransmit_event)
            msg.retransmit_event = None
        del self._messages[msg.msg_id]

    def _arm(self, msg):
        config = self.config
        timeout = exponential_backoff(msg.attempt, config.ack_timeout,
                                      config.ack_backoff_factor,
                                      config.ack_timeout_max)
        msg.retransmit_event = self.engine.call_after(
            timeout, self._on_timeout, msg, priority=EventPriority.TIMER,
            label=f"net.rto:{msg.kind}")

    def _on_timeout(self, msg):
        if msg.done:
            return
        msg.retransmit_event = None
        self.stats.timeouts += 1
        if not msg.unlimited and msg.attempt > self.config.retransmit_budget:
            self._give_up(msg)
            return
        msg.attempt += 1
        self.stats.retransmits += 1
        self._transmit(msg)
        self._arm(msg)

    def _give_up(self, msg):
        if msg.delivered:
            self._retire(msg)
            return
        self.stats.dead_letters += 1
        callback = msg.on_dead_letter
        self._retire(msg)
        if callback is not None:
            callback()


@st.composite
def net_configs(draw):
    """Random lossy configs: zero and non-zero delay, reordering, tiny
    budgets and flat or steep backoff."""
    probability = st.sampled_from([0.0, 0.05, 0.3, 0.6])
    config = NetFaultConfig(
        loss=draw(probability),
        duplicate=draw(probability),
        delay_mean=draw(st.sampled_from([0.0, 0.01, 0.5, 3.0])),
        reorder=draw(probability),
        reorder_window=draw(st.sampled_from([0.0, 0.25, 2.0])),
        ack_timeout=draw(st.sampled_from([0.5, 1.0, 2.0])),
        ack_backoff_factor=draw(st.sampled_from([1.0, 1.5, 2.0])),
        ack_timeout_max=draw(st.sampled_from([2.0, 30.0])),
        retransmit_budget=draw(st.integers(1, 4)),
    )
    if not config.enabled:
        config = dataclasses.replace(config, loss=0.3)
    return config


#: One scripted action: ``(at, kind, unlimited, oneway)``.
_ACTIONS = st.lists(
    st.tuples(
        st.floats(0.0, 20.0, allow_nan=False),
        st.sampled_from(["dispatch", "report", "grant"]),
        st.booleans(),
        st.booleans(),
    ),
    max_size=40,
)


@st.composite
def tied_net_configs(draw):
    """Zero-delay configs on a dyadic grid: every copy lands at its send
    instant, acks tie with copies and sends tie with deadlines."""
    config = NetFaultConfig(
        loss=draw(st.sampled_from([0.05, 0.3, 0.6])),
        duplicate=draw(st.sampled_from([0.0, 0.3, 0.6])),
        reorder=draw(st.sampled_from([0.0, 0.3])),
        reorder_window=0.0,
        ack_timeout=draw(st.sampled_from([0.5, 1.0])),
        ack_backoff_factor=draw(st.sampled_from([1.0, 2.0])),
        ack_timeout_max=draw(st.sampled_from([2.0, 30.0])),
        retransmit_budget=draw(st.integers(1, 4)),
    )
    return config


#: Scripted actions at the instants of the tied grid.
_TIED_ACTIONS = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0]),
        st.sampled_from(["dispatch", "report", "grant"]),
        st.booleans(),
        st.booleans(),
    ),
    max_size=40,
)


#: Events a scripted run may dispatch before it counts as stuck.
_MAX_EVENTS = 10_000


def _drive(channel_factory, config, seed, actions):
    """Run ``actions`` through a channel on a bare engine; returns the
    delivery/dead-letter log with times, the channel stats and the
    messages left in flight.  Engine counters are not compared: the
    channel under test pushes no event per ack or timer."""
    engine = Engine()
    channel = channel_factory(engine, config, RandomStreams(seed))
    log = []

    def act(index, kind, unlimited, oneway):
        if oneway:
            log.append(("post", index, engine.now, channel.attempt(kind)))
            return
        channel.send_reliable(
            lambda: log.append(("deliver", index, engine.now)),
            kind=kind,
            on_dead_letter=lambda: log.append(("dead", index, engine.now)),
            unlimited=unlimited,
        )

    for index, (at, kind, unlimited, oneway) in enumerate(actions):
        engine.call_at(at, act, index, kind, unlimited, oneway)
    # Stepped with a cap, so a channel that never lets a message go
    # fails here instead of running forever.
    for _ in range(_MAX_EVENTS):
        if not engine.step():
            break
    else:
        pytest.fail(f"channel still busy after {_MAX_EVENTS} events")
    return log, channel.stats, channel.in_flight


class TestAgainstScalarDraws:
    @settings(max_examples=250, deadline=None)
    @given(net_configs(), st.integers(0, 2**16), _ACTIONS)
    def test_same_deliveries_and_stats(self, config, seed, actions):
        block = _drive(ControlChannel, config, seed, actions)
        scalar = _drive(_ScalarChannel, config, seed, actions)
        assert block == scalar
        assert block[2] == 0

    @settings(max_examples=250, deadline=None)
    @given(tied_net_configs(), st.integers(0, 2**16), _TIED_ACTIONS)
    def test_same_deliveries_and_stats_at_tied_instants(
        self, config, seed, actions
    ):
        block = _drive(ControlChannel, config, seed, actions)
        scalar = _drive(_ScalarChannel, config, seed, actions)
        assert block == scalar
        assert block[2] == 0

    def test_unlimited_reports_retry_past_the_budget(self):
        # Past retransmit_budget + 1 attempts an unlimited message keeps
        # retrying on the capped backoff, as the scalar channel does.
        config = NetFaultConfig(loss=0.6, ack_timeout=0.5,
                                ack_timeout_max=4.0, retransmit_budget=1)
        actions = [(0.0, "report", True, False)] * 30
        block = _drive(ControlChannel, config, 5, actions)
        assert block == _drive(_ScalarChannel, config, 5, actions)
        assert block[1].retransmits > 2 * len(actions)
