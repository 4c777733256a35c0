"""Whole-program flow lint: cross-module determinism contracts.

Where a per-file rule judges one module, this package builds a
project-wide fact base (:mod:`.graph`) and checks contracts that only
exist *between* modules (:mod:`.rules`, SIM101–SIM105): RNG stream
ownership, event-ordering discipline, writer/reader schema agreement,
suppression staleness and the obs hook taxonomy.  Every lint run builds
the graph, because it is also the one parse the per-file rules read;
the flow rules run over it with ``repro lint --flow``
(:func:`repro.lint.lint_paths` with ``flow=True``).
"""

from .graph import (
    ProjectGraph,
    Suppression,
    build_graph,
    collect_module,
    component_of,
    parse_suppression_directives,
)
from .rules import run_flow_rules

__all__ = [
    "ProjectGraph",
    "Suppression",
    "build_graph",
    "collect_module",
    "component_of",
    "parse_suppression_directives",
    "run_flow_rules",
]
