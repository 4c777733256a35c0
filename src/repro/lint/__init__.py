"""simlint — determinism & invariant static analysis for the simulator.

A custom AST pass enforcing the reproducibility discipline the paper's
results depend on: no ambient wall-clock reads (SIM001), no unseeded
randomness (SIM002), no exact float comparison of simulation times
(SIM003), guarded hook emissions (SIM004), immutable shared configs
(SIM005) and no I/O from simulation code (SIM006).

Every run parses each file once into a project-wide graph
(:mod:`repro.lint.flow`).  With ``--flow`` the run also checks the
*cross-module* determinism contracts over that graph (SIM101–SIM105):
RNG stream ownership, event-ordering discipline, summary-JSON schema
agreement, stale suppressions and the obs hook taxonomy.  The flow
rules judge files together, so lint the whole project with them.  The
only way to waive a finding is a ``# simlint: disable=`` comment at its
line, which SIM104 keeps honest.

Run it as ``repro lint src/repro`` (exit code 1 on findings), add
``--flow`` for the whole-program rules, or use the API::

    from repro.lint import lint_paths, render_text

    report = lint_paths(["src/repro"], flow=True)
    print(render_text(report))
"""

from .checker import (
    JSON_SCHEMA_VERSION,
    LintReport,
    LintUsageError,
    iter_python_files,
    lint_paths,
    lint_sources,
    make_config,
    render_json,
    render_text,
)
from .config import LintConfig
from .findings import (
    ALL_RULES,
    FLOW_RULES,
    RULES,
    Finding,
    suggest_rule_codes,
    syntax_error_finding,
)
from .flow import parse_suppression_directives

__all__ = [
    "Finding",
    "RULES",
    "FLOW_RULES",
    "ALL_RULES",
    "LintConfig",
    "LintReport",
    "LintUsageError",
    "JSON_SCHEMA_VERSION",
    "lint_sources",
    "lint_paths",
    "iter_python_files",
    "make_config",
    "parse_suppression_directives",
    "suggest_rule_codes",
    "syntax_error_finding",
    "render_text",
    "render_json",
]
