"""Paper-vs-measured reporting.

``build_report`` runs (or accepts) experiment sweeps and renders a
markdown report in the EXPERIMENTS.md format: one section per experiment
with the paper's qualitative claim, our measured series, and a PASS/CHECK
shape assessment where one can be computed mechanically.

Experiment sweeps run through the execution layer in *capture* mode: a
crashed point is reported as a structured error line instead of taking
the whole figure down, and with a cache-enabled executor a re-rendered
figure reuses every already-computed point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

from ..core.clock import wall_clock
from ..exec.executor import TIMEOUT_KIND
from ..sim.runner import SweepResult, run_sweep
from .registry import Experiment, Scale, all_experiments, get_experiment

if TYPE_CHECKING:  # pragma: no cover
    from ..exec.executor import Executor


@dataclass
class ExperimentOutcome:
    experiment: Experiment
    sweep: SweepResult
    rendered: str
    wall_seconds: float


def _render_errors(sweep: SweepResult) -> str:
    """Error lines appended to a rendering when points crashed."""
    lines = [
        f"FAILED POINTS ({sweep.n_failed} of {len(sweep.specs)}):"
    ]
    for _, error in sweep.errors():
        tag = "TIMED OUT: " if error.kind == TIMEOUT_KIND else ""
        lines.append(f"  {tag}{error.brief()}")
    return "\n".join(lines)


def run_experiment(
    exp_id: str,
    scale: Scale = Scale.QUICK,
    progress: bool = False,
    executor: Optional["Executor"] = None,
) -> ExperimentOutcome:
    """Run one registered experiment end to end.

    A crashed sweep point becomes an error line in the rendering rather
    than an exception — the surviving points still draw the figure.
    """
    experiment = get_experiment(exp_id)
    started = wall_clock()
    sweep = run_sweep(
        experiment.specs(scale),
        progress=progress,
        executor=executor,
        on_error="capture",
    )
    rendered = experiment.render(sweep)
    if sweep.n_failed:
        rendered = rendered + "\n\n" + _render_errors(sweep)
    return ExperimentOutcome(
        experiment=experiment,
        sweep=sweep,
        rendered=rendered,
        wall_seconds=wall_clock() - started,
    )


def run_all(
    scale: Scale = Scale.QUICK,
    exp_ids: Optional[Sequence[str]] = None,
    progress: bool = False,
    executor: Optional["Executor"] = None,
) -> List[ExperimentOutcome]:
    ids = list(exp_ids) if exp_ids else [e.exp_id for e in all_experiments()]
    return [
        run_experiment(
            exp_id,
            scale=scale,
            progress=progress,
            executor=executor,
        )
        for exp_id in ids
    ]


def render_markdown_report(outcomes: Sequence[ExperimentOutcome], scale: Scale) -> str:
    """EXPERIMENTS.md-style report for a set of outcomes."""
    lines: List[str] = [
        "# Experiment report",
        "",
        f"Scale: `{scale.value}`.  Every section reproduces one figure or",
        "in-text claim of Ponce & Hersch (IPDPS 2004); 'expectation' quotes",
        "the paper's qualitative claim, the block below it is our measured",
        "output (overloaded points cut, as in the paper's figures).",
        "",
    ]
    for outcome in outcomes:
        experiment = outcome.experiment
        lines.append(f"## {experiment.exp_id} — {experiment.title}")
        lines.append("")
        lines.append(f"*Paper reference:* {experiment.paper_ref}.")
        lines.append(f"*Expectation:* {experiment.expectation}.")
        lines.append(f"*Wall time:* {outcome.wall_seconds:.1f} s.")
        lines.append("")
        lines.append("```")
        lines.append(outcome.rendered)
        lines.append("```")
        lines.append("")
    return "\n".join(lines)
