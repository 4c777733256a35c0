"""simlint driver: one pipeline for every run.

A run reads every ``.py`` file under its paths and builds the project
graph (:func:`repro.lint.flow.build_graph`): one ``ast.parse``, one
per-file :class:`~repro.lint.rules.RuleVisitor` and one suppression
scan per file.  The report holds the per-file findings ``select`` asks
for; with ``flow=True`` the whole-program rules SIM101–SIM105 run over
the same graph and add theirs, so a flow run is a superset of a plain
one.  Every rule runs whatever ``select`` says; suppressions apply to
all findings through the one function below, and ``select`` picks what
is reported.

Suppression syntax (targeted, never blanket)::

    x = time.time()  # simlint: disable=SIM001
    # simlint: disable-next-line=SIM003,SIM004
    if a.last_access == b.last_access: ...

A bare ``# simlint: disable`` (no codes) suppresses every rule on its
line except SIM104, the finding that flags a stale directive itself;
prefer naming the codes so later readers know what was waived.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Set

from ..core.errors import ReproError
from .config import LintConfig
from .findings import ALL_RULES, Finding, suggest_rule_codes
from .flow.graph import ProjectGraph, build_graph
from .flow.rules import run_flow_rules

#: Bumped when the JSON report shape changes.
JSON_SCHEMA_VERSION = 2


class LintUsageError(ReproError):
    """Bad lint invocation (unknown rule code, missing path, ...)."""


@dataclass(frozen=True)
class LintReport:
    """Outcome of one lint run."""

    findings: List[Finding]
    files_checked: int
    #: Fact-base size counters from :meth:`ProjectGraph.stats`.
    graph: Dict[str, int]


def _apply_suppressions(
    findings: Sequence[Finding], graph: ProjectGraph
) -> List[Finding]:
    by_path: Dict[str, Dict[int, Set[str]]] = {}
    for path, info in graph.modules.items():
        lines: Dict[int, Set[str]] = {}
        for directive in info.suppressions:
            lines.setdefault(directive.target_line, set()).update(
                directive.codes or {"*"}
            )
        by_path[path] = lines
    kept: List[Finding] = []
    for finding in findings:
        codes = by_path.get(finding.path, {}).get(finding.line)
        if codes is not None:
            # A bare directive must not swallow the SIM104 finding that
            # flags the directive itself; waiving one takes an explicit
            # ``disable=SIM104``.
            blanket = "*" in codes and finding.code != "SIM104"
            if blanket or finding.code in codes:
                continue
        kept.append(finding)
    return kept


def lint_sources(
    sources: Mapping[str, str],
    config: Optional[LintConfig] = None,
    flow: bool = False,
) -> LintReport:
    """Lint an in-memory ``{path: source}`` project.

    ``path`` is used for reporting and for the per-rule module
    allowlists (matched on posix-style paths).  Unparseable files
    surface as a finding with code ``SIM000`` so CI fails loudly
    instead of skipping.
    """
    config = config or LintConfig()
    graph = build_graph(sources, config)
    findings = [
        finding for info in graph.modules.values() for finding in info.raw_findings
    ]
    if flow:
        # Every flow rule runs whatever ``select`` says, so SIM104 sees
        # each finding a suppression may be silencing.
        findings.extend(
            run_flow_rules(graph, replace(config, select=frozenset(ALL_RULES)))
        )
    findings = [
        finding
        for finding in _apply_suppressions(findings, graph)
        if config.enabled(finding.code)
    ]
    findings.extend(graph.parse_errors)
    return LintReport(
        findings=sorted(findings, key=Finding.sort_key),
        files_checked=len(sources),
        graph=graph.stats(),
    )


def iter_python_files(paths: Sequence[str]) -> List[Path]:
    """Expand files/directories into a sorted, deduplicated .py file list."""
    files: Set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.update(path.rglob("*.py"))
        elif path.is_file():
            files.add(path)
        else:
            raise LintUsageError(f"no such file or directory: {raw}")
    return sorted(files)


def lint_paths(
    paths: Sequence[str], config: Optional[LintConfig] = None, flow: bool = False
) -> LintReport:
    """Lint every ``.py`` file under ``paths`` (see :func:`lint_sources`)."""
    return lint_sources(
        {
            file_path.as_posix(): file_path.read_text(encoding="utf-8")
            for file_path in iter_python_files(paths)
        },
        config,
        flow,
    )


def make_config(select: Optional[Sequence[str]] = None) -> LintConfig:
    """Build a config from ``--select`` style code lists.

    Unknown codes are rejected with a did-you-mean suggestion (codes
    validate against the full catalogue, per-file *and* flow).
    """
    if not select:
        return LintConfig()
    codes = {code.strip().upper() for code in select if code.strip()}
    unknown = codes - set(ALL_RULES)
    if unknown:
        parts = []
        for code in sorted(unknown):
            suggestions = suggest_rule_codes(code)
            hint = (
                f" (did you mean {', '.join(suggestions)}?)" if suggestions else ""
            )
            parts.append(f"{code}{hint}")
        raise LintUsageError(
            f"unknown rule code(s): {'; '.join(parts)}; "
            f"available: {', '.join(sorted(ALL_RULES))}"
        )
    return LintConfig(select=frozenset(codes))


# -- rendering ---------------------------------------------------------------


def render_text(report: LintReport) -> str:
    """Human-readable report (one finding per line, grep-friendly)."""
    lines = [
        f"{finding.location()}: {finding.code} {finding.message}"
        for finding in report.findings
    ]
    files_checked = report.files_checked
    noun = "file" if files_checked == 1 else "files"
    if report.findings:
        lines.append(
            f"simlint: {len(report.findings)} finding(s) in {files_checked} {noun}"
        )
    else:
        lines.append(f"simlint: clean ({files_checked} {noun} checked)")
    return "\n".join(lines)


def render_json(report: LintReport) -> str:
    """Machine-readable report for CI (stable schema, see tests)."""
    payload = {
        "schema_version": JSON_SCHEMA_VERSION,
        "tool": "simlint",
        "files_checked": report.files_checked,
        "count": len(report.findings),
        "findings": [finding.as_dict() for finding in report.findings],
        "graph": report.graph,
    }
    return json.dumps(payload, indent=2)
