"""Finding records and the rule catalogue of simlint.

Each rule has a stable code used in reports, in CI gating and in targeted
suppression comments (``# simlint: disable=SIM003``).  ``SIM001``–``SIM006``
are per-file AST rules, reported by every run; ``SIM101``–``SIM105`` are
whole-program flow rules (package :mod:`repro.lint.flow`) that judge the
project graph as a whole and run only with ``repro lint --flow``.
``SIM000`` marks a file that does not parse.  The catalogue doubles as
documentation: ``repro lint --rules`` prints it.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass
from typing import Any, Dict, List

#: Per-file rule catalogue: code -> one-line description (kept in sync
#: with docs/ARCHITECTURE.md's "Static analysis" section).
RULES: Dict[str, str] = {
    "SIM001": (
        "wall-clock read (time.time/monotonic/perf_counter, argless "
        "datetime.now/today) outside the sanctioned clock module"
    ),
    "SIM002": (
        "global `random` module or unseeded numpy.random global state "
        "outside core/rng.py; use RandomStreams named streams"
    ),
    "SIM003": (
        "float ==/!= on a simulation-time expression; use "
        "units.times_equal / times_close tolerance helpers"
    ),
    "SIM004": (
        "hook emission not wrapped in the one-branch disabled guard "
        "(`if bus.enabled:` / `if bus.engine_dispatch:`)"
    ),
    "SIM005": (
        "mutation of a shared SimulationConfig/scenario object; configs "
        "are frozen values — build a new one with .with_()"
    ),
    "SIM006": (
        "I/O (open/print/write_text/write_bytes/input) in simulation code "
        "outside export/CLI/obs modules"
    ),
}

#: Whole-program flow-rule catalogue (``repro lint --flow``).  These
#: rules check cross-module contracts no per-file pass can see.
FLOW_RULES: Dict[str, str] = {
    "SIM101": (
        "RNG stream aliasing: the same RandomStreams stream name is "
        "registered by different components, or a stream name is computed "
        "dynamically with no literal prefix"
    ),
    "SIM102": (
        "event-ordering hazard: engine internals touched outside the "
        "kernel, assignment to the simulation clock, or a trace observer "
        "that schedules events / mutates shared state"
    ),
    "SIM103": (
        "schema drift: summary-JSON keys read but never written, a writer "
        "that does not stamp schema_version, or a hardcoded "
        "schema_version=N literal at a call site"
    ),
    "SIM104": (
        "stale suppression: a `# simlint: disable[=...]` comment that "
        "matches no finding on its target line"
    ),
    "SIM105": (
        "obs hook contract: event kinds defined but never emitted, "
        "emitted but never consumed by any sink/exporter, or emitted as "
        "a raw string not in the kinds taxonomy"
    ),
}

#: Every rule code (per-file + flow) — the namespace ``--select`` and
#: suppression comments validate against.
ALL_RULES: Dict[str, str] = {**RULES, **FLOW_RULES}


def suggest_rule_codes(code: str, limit: int = 3) -> List[str]:
    """Closest known rule codes to a mistyped ``code`` (did-you-mean)."""
    return difflib.get_close_matches(
        code.upper(), sorted(ALL_RULES), n=limit, cutoff=0.4
    )


@dataclass(frozen=True)
class Finding:
    """One lint violation at a precise source location."""

    code: str
    path: str
    line: int
    col: int
    message: str

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def as_dict(self) -> Dict[str, Any]:
        return {
            "code": self.code,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.code)


def syntax_error_finding(path: str, error: SyntaxError) -> Finding:
    """SIM000 finding for an unparseable file.

    ``SyntaxError.offset`` is already 1-based, so it is used as the
    column directly; the offending source line (when CPython provides
    it) is embedded in the message so reports are actionable without
    opening the file.
    """
    message = f"syntax error: {error.msg}"
    offending = (error.text or "").strip()
    if offending:
        message += f" [{offending}]"
    return Finding(
        code="SIM000",
        path=path,
        line=error.lineno or 1,
        col=error.offset or 1,
        message=message,
    )
