"""The ``crossover`` experiment — centralized vs decentralized scheduling.

The paper's policies all assume a central master that knows every node's
cache contents and pushes each subjob explicitly — two control messages
per dispatched subjob, plus an O(nodes) cache scan per decision.  That
is invisible at the paper's 5-20 nodes and a real bottleneck at
hundreds.  The decentralized ``repro.sched.decentral`` subsystem inverts
the flow: the arbiter publishes one *rule* per job, nodes bid with
purely local knowledge when hungry, and grants come back in batches.

This experiment sweeps policy x cluster size in a small-subjob regime
(chunk-sized tasks, so control traffic per unit of work is maximal) and
reports, per point, the delivered performance (makespan over the run's
completed jobs, mean per-job stretch) next to the control-plane bill
(messages, messages per dispatched subjob, payload bytes) from the
schema-v4 ``sched`` accounting.  The verdict: at every node count
decentral stays steady, and its batched rule/bid/grant protocol moves
fewer control messages per dispatched subjob than the best steady
central policy.  Its stretch is not claimed: at 20 nodes it reads about
three times out-of-order's.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from ..analysis.tables import format_table
from ..core import units
from ..sim.config import quick_config
from ..sim.runner import RunSpec, SweepResult
from ..sim.simulator import SimulationResult
from .registry import Experiment, Scale, failed_claims, register_experiment

#: One seed for every point (the sweep compares policies, not seeds).
_SEED = 7

#: Offered load per node (jobs/hour) — held constant as the cluster
#: grows, so every node count sees the same per-node pressure.  2.5/h
#: sits past the uncached capacity (~2.3/h/node): policies survive only
#: by exploiting caches, so the sweep separates them instead of letting
#: everyone coast at low utilisation.
_RATE_PER_NODE = 2.5

#: Policies compared: the paper's span plus both decentral variants.
_POLICIES = (
    "farm",
    "splitting",
    "out-of-order",
    "delayed",
    "decentral",
    "decentral-nolocal",
)

#: Cluster sizes per scale (the paper stops at 20; the crossover is why
#: we keep going).
_NODE_COUNTS = {
    Scale.SMOKE: [5, 10],
    Scale.QUICK: [5, 20, 100],
    Scale.FULL: [5, 20, 100, 500],
}

_DURATIONS = {
    Scale.SMOKE: 2 * units.DAY,
    Scale.QUICK: 2 * units.DAY,
    Scale.FULL: 4 * units.DAY,
}

#: The delayed policy's default 2-day period would swallow these short
#: runs whole; give it a period proportionate to the sweep duration.
_DELAYED_PERIOD = 6 * units.HOUR


def _crossover_build(scale: Scale) -> List[RunSpec]:
    specs: List[RunSpec] = []
    for n_nodes in _NODE_COUNTS[scale]:
        # Small-subjob regime: chunk-sized tasks maximise the control
        # traffic per unit of useful work, which is the axis under test.
        config = quick_config(
            n_nodes=n_nodes,
            arrival_rate_per_hour=_RATE_PER_NODE * n_nodes,
            duration=_DURATIONS[scale],
            chunk_events=100,
            seed=_SEED,
        )
        for policy in _POLICIES:
            params = {"period": _DELAYED_PERIOD} if policy == "delayed" else {}
            specs.append(
                RunSpec.make(
                    config, policy, label=f"{policy}@n={n_nodes}", **params
                )
            )
    return specs


def _mean_stretch(result) -> float:
    """Mean sojourn/ideal ratio over completed jobs (lower is better)."""
    ratios = [
        record.sojourn_time / record.reference_time
        for record in result.records
        if record.reference_time > 0
    ]
    return sum(ratios) / len(ratios) if ratios else math.nan


def _msgs_per_subjob(result) -> float:
    """Control messages per dispatched subjob (nan without accounting)."""
    sched = result.sched
    return sched.messages_per_subjob() if sched is not None else math.nan


def _crossover_render(sweep: SweepResult) -> str:
    rows = []
    for spec, result in sweep.pairs():
        sched = result.sched
        makespan = max((r.completion for r in result.records), default=0.0)
        rows.append(
            [
                spec.label,
                spec.config.n_nodes,
                units.fmt_duration(makespan),
                f"{_mean_stretch(result):.2f}",
                sched.messages if sched is not None else "-",
                f"{_msgs_per_subjob(result):.2f}",
                f"{sched.control_bytes / 1024.0:.1f}" if sched is not None else "-",
                sched.mode if sched is not None else "-",
                "OVERLOADED" if result.overload.overloaded else "steady",
            ]
        )
    return format_table(
        [
            "policy@nodes",
            "nodes",
            "makespan",
            "stretch",
            "ctrl msgs",
            "msgs/subjob",
            "ctrl KB",
            "mode",
            "state",
        ],
        rows,
        title=(
            "Centralized vs decentralized scheduling across cluster sizes "
            "(constant per-node load, chunk-sized tasks; central policies "
            "carry the synthesized 2-messages-per-subjob push cost)"
        ),
    )


def _crossover_verdict(sweep: SweepResult, scale: Scale) -> List[str]:
    by_nodes: Dict[int, Dict[str, SimulationResult]] = {}
    for spec, result in sweep.pairs():
        by_nodes.setdefault(spec.config.n_nodes, {})[spec.policy] = result
    checks: List[Tuple[bool, str]] = []
    for n_nodes, results in sorted(by_nodes.items()):
        decentral = results["decentral"]
        checks.append((
            not decentral.overload.overloaded,
            f"decentral steady at n={n_nodes}",
        ))
        # A collapsing scheduler's message bill is not an operating point:
        # compare against the central policies that stay steady.
        central = {
            policy: _msgs_per_subjob(result)
            for policy, result in results.items()
            if not policy.startswith("decentral")
            and not result.overload.overloaded
        }
        if not central:
            checks.append((False, f"a central policy stays steady at n={n_nodes}"))
            continue
        best = min(central, key=central.__getitem__)
        ours = _msgs_per_subjob(decentral)
        checks.append((
            ours < central[best],
            f"decentral moves fewer control messages per subjob than the "
            f"best steady central policy at n={n_nodes}: {ours:.2f} vs "
            f"{best} {central[best]:.2f}",
        ))
    return failed_claims(*checks)


register_experiment(
    Experiment(
        exp_id="crossover",
        title="Centralized vs decentralized scheduling crossover",
        paper_ref="beyond the paper (its master is implicitly free)",
        build=_crossover_build,
        render=_crossover_render,
        expectation=(
            "decentral stays steady at every cluster size and moves fewer "
            "control messages per dispatched subjob than the best steady "
            "central policy (one rule per job, batched grants against the "
            "central push model's two messages per subjob)"
        ),
        verdict=_crossover_verdict,
    )
)
