"""Experiment harness: every paper figure / claim as a runnable,
registered experiment."""

from .registry import (
    Experiment,
    Scale,
    all_experiments,
    available_experiments,
    get_experiment,
)
from . import figures  # noqa: F401  (registers fig2..fig7, repl, maxload, ...)
from . import ablations  # noqa: F401  (registers ablate-*)
from . import extensions  # noqa: F401  (registers fairness, ablate-network)
from . import faults_exp  # noqa: F401  (registers faults)
from . import crossover_exp  # noqa: F401  (registers crossover)
from . import degradation_exp  # noqa: F401  (registers degradation)
from . import tiering_exp  # noqa: F401  (registers tiering)
from .calibration import (
    DEFAULT_CANDIDATE_DELAYS,
    calibrate_delay_table,
    max_sustained_load_for_delay,
    summarize_table,
)
from .report import (
    ExperimentOutcome,
    render_markdown_report,
    run_experiment,
)

__all__ = [
    "Experiment",
    "Scale",
    "get_experiment",
    "available_experiments",
    "all_experiments",
    "run_experiment",
    "render_markdown_report",
    "ExperimentOutcome",
    "calibrate_delay_table",
    "max_sustained_load_for_delay",
    "summarize_table",
    "DEFAULT_CANDIDATE_DELAYS",
]
