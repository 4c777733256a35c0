"""Decentralized rule/bid scheduling (beyond the paper; PYME-style).

The paper's seven policies share one architecture: a central master
pushes every subjob.  This package inverts it — the arbiter publishes
declarative :class:`~repro.sched.decentral.rules.Rule` specs, each node
expands active rules into candidate tasks, scores them against its *own*
disk cache and bids; the arbiter only resolves integer task grants per
scheduling round.  Control traffic (rules, bids, grants) is charged by a
:class:`~repro.sched.decentral.costs.ControlCostModel` and surfaced as
:class:`~repro.sched.stats.SchedulerStats`.

Registered policies: ``decentral`` (locality-aware bidding) and the
cache-blind ablation ``decentral-nolocal``.
"""

from .arbiter import arbitrate
from .bidding import score_window, window_rows
from .costs import ControlCostModel
from .policy import DecentralNoLocalPolicy, DecentralPolicy
from .rules import Rule, plan_tasks

__all__ = [
    "ControlCostModel",
    "DecentralNoLocalPolicy",
    "DecentralPolicy",
    "Rule",
    "arbitrate",
    "plan_tasks",
    "score_window",
    "window_rows",
]
