"""Experiment registry: every paper figure / in-text claim as a runnable
spec.

An :class:`Experiment` bundles a builder (producing the sweep's
:class:`~repro.sim.runner.RunSpec` list at a given scale) with a renderer
that turns the sweep results into the paper-figure series/rows, and a
verdict: the experiment's claim as a predicate over the sweep.  Every
experiment has one.  ``repro run`` renders the figure and checks the
verdict in one pass, so each claim lives in one place.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from ..core.errors import ConfigurationError
from ..sim.runner import RunSpec, SweepResult


class Scale(enum.Enum):
    """How much simulated time / how many load points to spend.

    * ``SMOKE`` — seconds; sanity only (unit tests).
    * ``QUICK`` — a minute or two; trends visible.
    * ``FULL``  — the paper-faithful sweep (CLI; EXPERIMENTS.md numbers).
    """

    SMOKE = "smoke"
    QUICK = "quick"
    FULL = "full"


@dataclass(frozen=True)
class Experiment:
    """One reproducible experiment."""

    exp_id: str
    title: str
    paper_ref: str
    build: Callable[[Scale], List[RunSpec]]
    render: Callable[[SweepResult], str]
    expectation: str  # the paper's qualitative claim, for the report
    #: The claim as a predicate: the failed claims, each with its measured
    #: numbers (empty when the claim holds).
    verdict: Callable[[SweepResult, Scale], List[str]]

    def specs(self, scale: Scale = Scale.QUICK) -> List[RunSpec]:
        return self.build(scale)


def failed_claims(*checks: Tuple[bool, str]) -> List[str]:
    """The claims of the ``(holds, claim)`` pairs that do not hold."""
    return [claim for holds, claim in checks if not holds]


_EXPERIMENTS: Dict[str, Experiment] = {}


def register_experiment(experiment: Experiment) -> Experiment:
    if experiment.exp_id in _EXPERIMENTS:
        raise ConfigurationError(f"duplicate experiment id {experiment.exp_id!r}")
    _EXPERIMENTS[experiment.exp_id] = experiment
    return experiment


def get_experiment(exp_id: str) -> Experiment:
    try:
        return _EXPERIMENTS[exp_id]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment {exp_id!r}; available: {', '.join(sorted(_EXPERIMENTS))}"
        ) from None


def available_experiments() -> List[str]:
    return sorted(_EXPERIMENTS)


def all_experiments() -> List[Experiment]:
    return [_EXPERIMENTS[key] for key in sorted(_EXPERIMENTS)]
