"""Control-plane accounting shared by every scheduling policy.

The paper's policies assume a central master that pushes each subjob to a
node and hears back on completion — two control messages per dispatched
subjob, a cost that is invisible at 20 nodes and dominant at thousands.
:class:`SchedulerStats` makes that traffic a measured quantity for *every*
policy so centralized and decentralized schedulers can be compared on the
same axis:

* decentralized policies (``repro.sched.decentral``) count their real
  rule/bid/grant traffic as charged by their
  :class:`~repro.sched.decentral.costs.ControlCostModel`;
* centralized policies get a synthesized estimate from node dispatch
  counters (one push per subjob start, one completion report back).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

#: Bytes charged per synthesized central-scheduler control message (a
#: subjob descriptor or a completion report; same order of magnitude as
#: the decentralized cost model's per-message sizes).
CENTRAL_MESSAGE_BYTES = 64


@dataclass(frozen=True)
class SchedulerStats:
    """Aggregate control-plane accounting of one run.

    ``mode`` is ``"central"`` (estimate synthesized from node counters)
    or ``"decentral"`` (real counters from the bidding protocol).
    ``subjobs_started`` counts node dispatches (starts + resumes) and is
    filled in by the simulator for both modes, so
    :meth:`messages_per_subjob` is comparable across policies.
    """

    mode: str = "central"
    #: Arbitration rounds resolved (0 for central policies).
    rounds: int = 0
    #: Rules published by the arbiter (0 for central policies).
    rules_published: int = 0
    #: (node, task) bid entries evaluated across all rounds — scoring
    #: work, not messages; standing offers re-enter later rounds free.
    bids: int = 0
    #: Tasks granted to nodes across all rounds (0 for central policies).
    grants: int = 0
    #: Control-plane messages (rules + bids + grants, or pushes + reports).
    messages: int = 0
    #: Total control-plane payload bytes.
    control_bytes: int = 0
    #: Simulated seconds spent moving control traffic.
    control_seconds: float = 0.0
    #: Node dispatches (subjob starts + resumes); filled by the simulator.
    subjobs_started: int = 0
    # -- control-plane reliability (repro.faults.net; all 0 on a perfect
    # -- network; filled from ChannelStats by the simulator) -----------------
    #: Messages re-sent by the ack+retransmit state machine.
    retransmits: int = 0
    #: Redundant copies discarded by receiver-side deduplication.
    duplicates_dropped: int = 0
    #: Ack timers that fired.
    timeouts: int = 0
    #: Messages that exhausted their retransmit budget (work re-pended).
    dead_letters: int = 0
    #: Arbiter failover re-elections (decentral mode).
    failovers: int = 0

    def messages_per_subjob(self) -> float:
        """Control messages per node dispatch (NaN when nothing ran)."""
        if self.subjobs_started <= 0:
            return math.nan
        return self.messages / self.subjobs_started

    def as_dict(self) -> dict:
        return {**asdict(self), "messages_per_subjob": self.messages_per_subjob()}

    @classmethod
    def from_dict(cls, payload: dict) -> "SchedulerStats":
        """Rebuild from :meth:`as_dict` output (summary-JSON round trip).

        The reliability counters default to 0 so schema-v4 summaries
        (written before the unreliable control plane existed) round-trip
        unchanged.
        """
        return cls(
            mode=str(payload["mode"]),
            rounds=int(payload["rounds"]),
            rules_published=int(payload["rules_published"]),
            bids=int(payload["bids"]),
            grants=int(payload["grants"]),
            messages=int(payload["messages"]),
            control_bytes=int(payload["control_bytes"]),
            control_seconds=float(payload["control_seconds"]),
            subjobs_started=int(payload["subjobs_started"]),
            retransmits=int(payload.get("retransmits", 0)),
            duplicates_dropped=int(payload.get("duplicates_dropped", 0)),
            timeouts=int(payload.get("timeouts", 0)),
            dead_letters=int(payload.get("dead_letters", 0)),
            failovers=int(payload.get("failovers", 0)),
        )

    @classmethod
    def central_estimate(cls, dispatches: int, completions: int) -> "SchedulerStats":
        """The implicit traffic of a central push scheduler: one push per
        dispatch, one completion report per finished subjob."""
        messages = dispatches + completions
        return cls(
            mode="central",
            messages=messages,
            control_bytes=messages * CENTRAL_MESSAGE_BYTES,
            subjobs_started=dispatches,
        )
