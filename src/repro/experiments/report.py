"""Paper-vs-measured reporting.

:func:`run_experiment` runs one experiment's sweep, renders it and checks
its verdict; :func:`render_markdown_report` renders outcomes in the
EXPERIMENTS.md format: one section per experiment with the paper's
qualitative claim, whether the experiment's verdict holds, and our
measured series.

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
from .registry import Experiment, Scale, get_experiment

if TYPE_CHECKING:  # pragma: no cover
    from ..exec.executor import Executor


@dataclass
class ExperimentOutcome:
    experiment: Experiment
    sweep: SweepResult
    rendered: str
    wall_seconds: float
    #: The claims the experiment's verdict found failed (empty when it
    #: holds); ``None`` when it has no verdict or a point failed.
    failed_claims: Optional[List[str]] = None

    @property
    def ok(self) -> bool:
        """No point failed and no claim failed."""
        return not self.sweep.n_failed and not self.failed_claims

    def verdict_lines(self) -> List[str]:
        """``holds``, or one line per failed claim; none when the verdict
        was not checked."""
        if self.failed_claims is None:
            return []
        return [f"FAILED: {claim}" for claim in self.failed_claims] or ["holds"]


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
    """Run one registered experiment end to end and check its verdict.

    A crashed sweep point becomes an error line in the rendering rather
    than an exception — the surviving points still draw the figure, but
    the verdict is checked only on a complete sweep.
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
    failed_claims: Optional[List[str]] = None
    if sweep.n_failed:
        rendered = rendered + "\n\n" + _render_errors(sweep)
    elif experiment.verdict is not None:
        failed_claims = experiment.verdict(sweep, scale)
    return ExperimentOutcome(
        experiment=experiment,
        sweep=sweep,
        rendered=rendered,
        wall_seconds=wall_clock() - started,
        failed_claims=failed_claims,
    )


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
        if outcome.failed_claims is not None:
            lines.append(f"*Verdict:* {'; '.join(outcome.verdict_lines())}.")
        lines.append(f"*Wall time:* {outcome.wall_seconds:.1f} s.")
        lines.append("")
        lines.append("```")
        lines.append(outcome.rendered)
        lines.append("```")
        lines.append("")
    return "\n".join(lines)
