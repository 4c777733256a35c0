"""The flow-rule passes SIM101–SIM105 over a :class:`ProjectGraph`.

Each pass is a pure function ``(graph, config) -> List[Finding]``; the
driver (:mod:`repro.lint.checker`) applies suppression comments
afterwards.  Rule semantics:

SIM101 — **RNG stream aliasing.**  Every named stream must have exactly
one owning component: two components calling ``streams.get("x")`` share
(and therefore perturb) each other's draws, silently breaking the
add-a-consumer-without-disturbing-anyone guarantee of
:class:`repro.core.rng.RandomStreams`.  Dynamically-computed names with
no literal prefix are flagged too — they defeat static ownership
entirely — while literal-prefix f-string *families*
(``f"faults.node{i}"``) are allowed as long as no other stream name
falls inside the family's prefix.

SIM102 — **event-ordering hazards.**  The DES is only deterministic if
all state changes flow through the calendar: touching private ``Engine``
attributes outside the kernel, assigning to a ``.now`` clock, or a
``TraceSink.on_event`` observer that schedules events / mutates the
shared event object are all static races.

SIM103 — **schema drift.**  Summary-JSON writers and readers are checked
as a contract: every key a reader requires must be produced by its
writer, writers must stamp ``schema_version``, and call sites must not
hardcode ``schema_version=N`` literals (they go stale on the next bump).

SIM104 — **stale suppressions.**  A ``# simlint: disable[=CODES]``
directive must still suppress at least one finding (per-file or flow) on
its target line; each code that matches nothing is reported.

SIM105 — **obs hook contract.**  Every kind in the ``class kinds``
taxonomy must be emitted somewhere and consumed somewhere (a sink,
exporter or filter); emitting a raw dotted string that is not in the
taxonomy is a typo by construction.
"""

from __future__ import annotations

import difflib
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..config import LintConfig
from ..findings import Finding
from .graph import FunctionFacts, KindDef, ModuleInfo, ProjectGraph, StreamReg


def _finding(
    code: str,
    config: LintConfig,
    out: List[Finding],
    path: str,
    line: int,
    col: int,
    message: str,
) -> None:
    if config.enabled(code):
        out.append(Finding(code=code, path=path, line=line, col=col, message=message))


# -- SIM101: RNG stream aliasing ----------------------------------------------


def check_stream_aliasing(graph: ProjectGraph, config: LintConfig) -> List[Finding]:
    out: List[Finding] = []
    regs: List[StreamReg] = []
    components: Dict[StreamReg, str] = {}
    for path in sorted(graph.modules):
        info = graph.modules[path]
        if config.is_rng_module(path):
            continue  # the factory's own internals are not registrations
        for reg in info.stream_regs:
            regs.append(reg)
            components[reg] = info.component

    literal_owner: Dict[str, Set[str]] = defaultdict(set)
    for reg in regs:
        if not reg.dynamic:
            literal_owner[reg.name].add(components[reg])

    for reg in regs:
        if reg.dynamic and not reg.name:
            _finding(
                "SIM101",
                config,
                out,
                reg.path,
                reg.line,
                reg.col,
                "dynamically-computed RNG stream name with no literal "
                "prefix; static analysis cannot prove the stream is "
                "dedicated — use a literal name or a literal-prefix "
                "f-string family",
            )
        elif reg.dynamic:
            # A family owns its prefix: any literal stream name (or other
            # family) from a different component inside the prefix aliases.
            for other in regs:
                if other is reg or components[other] == components[reg]:
                    continue
                if other.name.startswith(reg.name) or reg.name.startswith(
                    other.name
                ):
                    _finding(
                        "SIM101",
                        config,
                        out,
                        reg.path,
                        reg.line,
                        reg.col,
                        f"dynamic RNG stream family '{reg.name}*' overlaps "
                        f"stream '{other.name}' registered by component "
                        f"'{components[other]}' ({other.path}:{other.line})",
                    )
        elif len(literal_owner[reg.name]) > 1:
            owners = ", ".join(sorted(literal_owner[reg.name]))
            _finding(
                "SIM101",
                config,
                out,
                reg.path,
                reg.line,
                reg.col,
                f"RNG stream '{reg.name}' is registered by more than one "
                f"component ({owners}); a named stream must have a single "
                "owner or the components alias each other's draws",
            )
    return out


# -- SIM102: event-ordering hazards -------------------------------------------


def check_event_ordering(graph: ProjectGraph, config: LintConfig) -> List[Finding]:
    out: List[Finding] = []
    sinks = graph.sink_classes()
    for path in sorted(graph.modules):
        info = graph.modules[path]
        in_kernel = path.endswith("core/engine.py")
        if not in_kernel:
            for line, col, attr in info.engine_private_refs:
                _finding(
                    "SIM102",
                    config,
                    out,
                    path,
                    line,
                    col,
                    f"access to private engine attribute `.{attr}` outside "
                    "the kernel; go through the calendar API "
                    "(call_at/call_after/cancel) so event ordering stays "
                    "deterministic",
                )
            for line, col in info.now_stores:
                _finding(
                    "SIM102",
                    config,
                    out,
                    path,
                    line,
                    col,
                    "assignment to a `.now` attribute; simulation time is "
                    "engine-owned and advances only via dispatch",
                )
        for class_name, facts in sorted(info.observers.items()):
            if class_name not in sinks:
                continue
            for line, col, method in facts.sched_calls:
                _finding(
                    "SIM102",
                    config,
                    out,
                    path,
                    line,
                    col,
                    f"trace observer {class_name}.on_event schedules "
                    f"simulation work (`{method}`); sinks must be "
                    "read-only — feeding back into the calendar makes "
                    "metrics depend on whether tracing is enabled",
                )
            for line, col, root in facts.foreign_stores:
                _finding(
                    "SIM102",
                    config,
                    out,
                    path,
                    line,
                    col,
                    f"trace observer {class_name}.on_event mutates the "
                    f"shared `{root}` object; every other sink sees the "
                    "mutation — copy instead",
                )
    return out


# -- SIM103: schema drift ------------------------------------------------------


class SchemaContract:
    """One writer/readers pairing checked for key drift."""

    __slots__ = ("name", "writer", "readers")

    def __init__(
        self,
        name: str,
        writer: Tuple[str, str],
        readers: Sequence[Tuple[str, str]],
    ) -> None:
        self.name = name
        self.writer = writer
        self.readers = tuple(readers)


#: The repository's summary-JSON contract: what ``load_result_json``
#: (and anything else registered here) reads must be produced by
#: ``result_summary_dict``.
DEFAULT_SCHEMA_CONTRACTS: Tuple[SchemaContract, ...] = (
    SchemaContract(
        name="result-summary",
        writer=("*/sim/export.py", "result_summary_dict"),
        readers=(("*/sim/export.py", "load_result_json"),),
    ),
)


def _reader_keys(info: ModuleInfo, facts: FunctionFacts) -> Set[str]:
    keys = set(facts.read_keys)
    for const in facts.referenced_constants:
        keys.update(info.string_constants.get(const, ()))
    return keys


def check_schema_drift(
    graph: ProjectGraph,
    config: LintConfig,
    contracts: Sequence[SchemaContract] = DEFAULT_SCHEMA_CONTRACTS,
) -> List[Finding]:
    out: List[Finding] = []
    for path in sorted(graph.modules):
        for literal in graph.modules[path].schema_literals:
            _finding(
                "SIM103",
                config,
                out,
                path,
                literal.line,
                literal.col,
                f"hardcoded schema_version={literal.value} passed to "
                f"`{literal.callee}`; reference the writer's "
                "SCHEMA_VERSION constant so version bumps propagate",
            )
    for contract in contracts:
        writer = graph.find_function(*contract.writer)
        if writer is None:
            continue
        writer_info, writer_facts = writer
        written = writer_facts.returned_dict_keys
        if not written:
            continue
        if "schema_version" not in written:
            _finding(
                "SIM103",
                config,
                out,
                writer_info.path,
                1,
                1,
                f"schema contract '{contract.name}': writer "
                f"{contract.writer[1]} does not stamp 'schema_version'",
            )
        for reader_glob, reader_name in contract.readers:
            reader = graph.find_function(reader_glob, reader_name)
            if reader is None:
                continue
            reader_info, reader_facts = reader
            for key in sorted(_reader_keys(reader_info, reader_facts) - written):
                _finding(
                    "SIM103",
                    config,
                    out,
                    reader_info.path,
                    1,
                    1,
                    f"schema contract '{contract.name}': {reader_name} "
                    f"reads key '{key}' that {contract.writer[1]} never "
                    "writes (drift — bump schema_version and fix one side)",
                )
    return out


# -- SIM104: stale suppressions ------------------------------------------------


def check_stale_suppressions(
    graph: ProjectGraph,
    config: LintConfig,
    flow_findings: Sequence[Finding],
) -> List[Finding]:
    """A directive earns its keep by matching a *raw* finding (per-file
    rules pre-suppression, or any flow finding) on its target line."""
    out: List[Finding] = []
    by_location: Dict[Tuple[str, int], Set[str]] = defaultdict(set)
    for path in sorted(graph.modules):
        for raw in graph.modules[path].raw_findings:
            by_location[(raw.path, raw.line)].add(raw.code)
    for finding in flow_findings:
        by_location[(finding.path, finding.line)].add(finding.code)
    for path in sorted(graph.modules):
        for directive in graph.modules[path].suppressions:
            present = by_location.get((path, directive.target_line), set())
            if not directive.codes:
                if not present:
                    _finding(
                        "SIM104",
                        config,
                        out,
                        path,
                        directive.comment_line,
                        1,
                        "bare `# simlint: disable` suppresses nothing on "
                        f"line {directive.target_line}; remove it",
                    )
                continue
            for code in directive.codes:
                if code not in present:
                    _finding(
                        "SIM104",
                        config,
                        out,
                        path,
                        directive.comment_line,
                        1,
                        f"suppression for {code} matches no finding on "
                        f"line {directive.target_line} (stale); remove "
                        "the code from the directive",
                    )
    return out


# -- SIM105: obs hook contract ---------------------------------------------------


def check_hook_contract(graph: ProjectGraph, config: LintConfig) -> List[Finding]:
    out: List[Finding] = []
    defs: Dict[str, Tuple[str, KindDef]] = {}
    values: Set[str] = set()
    for path in sorted(graph.modules):
        info = graph.modules[path]
        for definition in info.kind_defs:
            defs[definition.const] = (path, definition)
            values.add(definition.value)
    if not defs:
        return out
    emitted: Set[str] = set()
    consumed: Set[str] = set()
    for path in sorted(graph.modules):
        info = graph.modules[path]
        for ref in info.kind_refs:
            # Non-emit references are consumptions wherever they live:
            # sinks and exporters mostly sit in obs/, but a label map in
            # the defining module counts just the same.
            if ref.emitted:
                emitted.add(ref.const)
            else:
                consumed.add(ref.const)
    for const in sorted(defs):
        path, definition = defs[const]
        if const not in emitted:
            _finding(
                "SIM105",
                config,
                out,
                path,
                definition.line,
                definition.col,
                f"hook kind {const} ('{definition.value}') is defined but "
                "never emitted (dead hook) — delete it or instrument the "
                "component",
            )
        elif const not in consumed:
            _finding(
                "SIM105",
                config,
                out,
                path,
                definition.line,
                definition.col,
                f"hook kind {const} ('{definition.value}') is emitted but "
                "never consumed by any sink/exporter — subscribe a "
                "counter/label or drop the emission",
            )
    for path in sorted(graph.modules):
        for literal in graph.modules[path].emit_literals:
            if literal.value in values:
                continue
            hint = difflib.get_close_matches(literal.value, sorted(values), n=1)
            suffix = f" (did you mean '{hint[0]}'?)" if hint else ""
            _finding(
                "SIM105",
                config,
                out,
                path,
                literal.line,
                literal.col,
                f"emit() with raw kind string '{literal.value}' not in the "
                f"kinds taxonomy{suffix}; use the kinds.* constant",
            )
    return out


# -- driver entry ---------------------------------------------------------------


def run_flow_rules(
    graph: ProjectGraph,
    config: Optional[LintConfig] = None,
    contracts: Sequence[SchemaContract] = DEFAULT_SCHEMA_CONTRACTS,
) -> List[Finding]:
    """All passes in rule order; SIM104 runs last so it sees the other
    flow findings when judging whether a suppression is stale."""
    config = config or LintConfig()
    findings: List[Finding] = []
    findings.extend(check_stream_aliasing(graph, config))
    findings.extend(check_event_ordering(graph, config))
    findings.extend(check_schema_drift(graph, config))
    findings.extend(check_hook_contract(graph, config))
    findings.extend(check_stale_suppressions(graph, config, findings))
    return sorted(findings, key=Finding.sort_key)
