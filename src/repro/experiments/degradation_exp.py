"""The ``degradation`` experiment — schedulers on an unreliable LAN.

Every scheduler in the paper assumes a perfect control network: pushes
arrive, completion reports arrive, grants arrive, exactly once and in
order.  The ``repro.faults.net`` channel drops that assumption, and the
hardened protocols (ack+retransmit for central dispatch, idempotent
grants plus lease-based arbiter failover for decentral bidding) are
supposed to turn message loss into *bounded* extra latency instead of
lost work.

This experiment measures how well that holds: it sweeps policy x
control-message loss rate (0-20 %) x cluster size and reports, per
point, the delivered performance (makespan, goodput as the fraction of
arrived jobs completed, mean waiting) next to the reliability bill
(retransmits, dead letters, failovers, control messages per subjob)
from the schema-v5 ``sched`` accounting.  The loss-free point of each
curve runs with no channel at all, so the curves are anchored to the
exact bit-identical baseline of every other experiment.

The verdict: graceful degradation.  Up to 10 % loss every curve keeps
goodput >= 0.9, loses no message to a dead letter and keeps its makespan
within 1.25x of its loss-free point, and at every lossy point
retransmits, not dead letters, absorb the damage.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from ..analysis.tables import format_table
from ..core import units
from ..sim.config import NetFaultConfig, quick_config
from ..sim.runner import RunSpec, SweepResult
from ..sim.simulator import SimulationResult
from .registry import Experiment, Scale, failed_claims, register_experiment

#: One seed for every point (the sweep compares loss rates, not seeds).
_SEED = 11

#: Offered load per node (jobs/hour), held constant across cluster
#: sizes.  Below uncached capacity: the baseline must be comfortably
#: steady so that any collapse on the curve is the *network's* doing.
_RATE_PER_NODE = 1.5

#: The two protocol families under test: the best central push policy
#: and the decentralized rule/bid/grant scheduler.
_POLICIES = ("out-of-order", "decentral")

#: Control-message loss probabilities swept (0 = perfect network,
#: channel disabled entirely).
_LOSS_RATES = (0.0, 0.02, 0.05, 0.10, 0.20)

_NODE_COUNTS = {
    Scale.SMOKE: [6],
    Scale.QUICK: [10],
    Scale.FULL: [10, 50],
}

_DURATIONS = {
    Scale.SMOKE: 1 * units.DAY,
    Scale.QUICK: 2 * units.DAY,
    Scale.FULL: 4 * units.DAY,
}

#: A lossy channel with everything else ideal: pure loss isolates the
#: retransmit machinery from delay/reorder noise, and a short ack
#: timeout keeps recovery fast relative to subjob service times.
_ACK_TIMEOUT = 5.0

#: Up to this loss rate every curve degrades gracefully: goodput at
#: least _GOODPUT_FLOOR, no dead letters, and a makespan within
#: _MAKESPAN_BOUND of the curve's loss-free point.
_GRACEFUL_LOSS = 0.10
_GOODPUT_FLOOR = 0.9
_MAKESPAN_BOUND = 1.25


def _net_for(loss: float) -> NetFaultConfig:
    return NetFaultConfig(loss=loss, ack_timeout=_ACK_TIMEOUT)


def _degradation_build(scale: Scale) -> List[RunSpec]:
    specs: List[RunSpec] = []
    for n_nodes in _NODE_COUNTS[scale]:
        for loss in _LOSS_RATES:
            config = quick_config(
                n_nodes=n_nodes,
                arrival_rate_per_hour=_RATE_PER_NODE * n_nodes,
                duration=_DURATIONS[scale],
                seed=_SEED,
                net=_net_for(loss) if loss > 0.0 else None,
            )
            for policy in _POLICIES:
                specs.append(
                    RunSpec.make(
                        config,
                        policy,
                        label=f"{policy}@n={n_nodes}",
                    )
                )
    return specs


def _goodput(result) -> float:
    """Fraction of arrived jobs the run actually delivered."""
    if result.jobs_arrived <= 0:
        return math.nan
    return result.jobs_completed / result.jobs_arrived


def _loss_of(spec: RunSpec) -> float:
    return spec.config.net.loss if spec.config.net is not None else 0.0


def _makespan(result) -> float:
    return max((r.completion for r in result.records), default=0.0)


def _degradation_render(sweep: SweepResult) -> str:
    rows = []
    for spec, result in sweep.pairs():
        sched = result.sched
        rows.append(
            [
                spec.label,
                f"{_loss_of(spec):.0%}",
                units.fmt_duration(_makespan(result)),
                f"{_goodput(result):.3f}",
                units.fmt_duration(result.measured.mean_waiting),
                sched.retransmits if sched is not None else "-",
                sched.dead_letters if sched is not None else "-",
                sched.failovers if sched is not None else "-",
                f"{sched.messages_per_subjob():.2f}" if sched is not None else "-",
                "OVERLOADED" if result.overload.overloaded else "steady",
            ]
        )
    return format_table(
        [
            "policy@nodes",
            "loss",
            "makespan",
            "goodput",
            "mean wait",
            "rexmit",
            "dead",
            "failover",
            "msgs/subjob",
            "state",
        ],
        rows,
        title=(
            "Scheduler degradation under control-plane message loss "
            "(hardened ack/retransmit + lease protocols; loss=0 runs "
            "with the channel disabled entirely)"
        ),
    )


def _degradation_verdict(sweep: SweepResult, scale: Scale) -> List[str]:
    # policy@nodes -> loss -> result
    curves: Dict[str, Dict[float, SimulationResult]] = {}
    for spec, result in sweep.pairs():
        curves.setdefault(spec.label, {})[_loss_of(spec)] = result
    checks: List[Tuple[bool, str]] = []
    for label, points in sorted(curves.items()):
        base = _makespan(points[0.0])
        for loss, result in sorted(points.items()):
            sched = result.sched
            at = f"{label} at {loss:.0%} loss"
            if loss > 0.0:
                retransmits = sched.retransmits if sched is not None else 0
                checks.append((retransmits > 0, f"{at} retransmits: {retransmits}"))
            if loss > _GRACEFUL_LOSS:
                continue
            goodput = _goodput(result)
            dead = sched.dead_letters if sched is not None else 0
            ratio = _makespan(result) / base if base > 0 else math.inf
            checks += [
                (goodput >= _GOODPUT_FLOOR,
                 f"{at} keeps goodput >= {_GOODPUT_FLOOR}: {goodput:.3f}"),
                (dead == 0, f"{at} has no dead letters: {dead}"),
                (ratio <= _MAKESPAN_BOUND,
                 f"{at} keeps its makespan within {_MAKESPAN_BOUND}x of the "
                 f"loss-free point: {ratio:.2f}x"),
            ]
    return failed_claims(*checks)


register_experiment(
    Experiment(
        exp_id="degradation",
        title="Scheduler degradation under control-plane message loss",
        paper_ref="beyond the paper (its control network is implicitly perfect)",
        build=_degradation_build,
        render=_degradation_render,
        expectation=(
            "graceful degradation: up to 10 % message loss every curve "
            "keeps goodput >= 0.9, has no dead letters and keeps its "
            "makespan within 1.25x of its loss-free point; every lossy "
            "point retransmits"
        ),
        verdict=_degradation_verdict,
    )
)
