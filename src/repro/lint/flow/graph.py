"""Whole-program fact collection for the flow rules.

One :class:`FlowCollector` AST walk per module extracts the cross-module
facts the SIM101–SIM105 passes need; :func:`build_graph` assembles them
into a :class:`ProjectGraph`:

* **imports** — repro-internal module adjacency (who imports whom);
* **RNG stream registrations** — every ``streams.get("name")`` /
  ``streams.spawn("name")`` site, with the literal name or the literal
  prefix of an f-string family (``f"faults.node{i}"`` → ``faults.node``);
* **hook kinds** — constants defined on a ``class kinds``, references
  split into *emissions* (arguments of an ``.emit(...)`` call) and
  *consumptions* (every other use outside the defining module);
* **schema facts** — dict-literal keys returned by writer functions,
  string keys read via subscripts / ``.get`` / ``.setdefault`` and via
  module-level string-tuple constants, plus hardcoded
  ``schema_version=<int>`` keyword literals at call sites;
* **ordering facts** — accesses to private ``Engine`` attributes,
  stores to ``.now``, the class-inheritance table, and what each
  ``on_event`` observer method schedules or mutates;
* **suppressions & raw findings** — per-file ``# simlint: disable``
  directives plus the *pre-suppression* per-file findings of every
  SIM00x rule: the report of every lint run, and what SIM104 needs to
  prove a directive still suppresses something.

Every lint run builds this graph, flow rules or not: it is the one parse
of each file.  Nothing here decides what is a flow violation — that is
:mod:`.rules`.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..config import LintConfig
from ..findings import Finding, syntax_error_finding
from ..rules import RuleVisitor

#: Private Engine attributes nothing outside the kernel may touch.
ENGINE_PRIVATE_ATTRS = frozenset(
    {"_heap", "_seq", "_running", "_stopped"}
)

#: Methods that feed work into the event calendar.
SCHEDULING_METHODS = frozenset(
    {"call_at", "call_after", "schedule_at", "schedule_after"}
)


def component_of(path: str) -> str:
    """The owning component of a module path.

    For paths containing a ``repro`` package segment this is the first
    package below it (``src/repro/sched/decentral/policy.py`` →
    ``sched``; top-level modules like ``cli.py`` own themselves).
    Otherwise the parent directory name, so fixture trees in tests get
    sensible components too.
    """
    parts = Path(path).as_posix().split("/")
    if "repro" in parts:
        index = len(parts) - 1 - parts[::-1].index("repro")
        below = parts[index + 1 :]
        if len(below) >= 2:
            return below[0]
        if below:
            return Path(below[0]).stem
    if len(parts) >= 2:
        return parts[-2]
    return Path(parts[-1]).stem


@dataclass(frozen=True)
class StreamReg:
    """One RNG stream registration site (``.get``/``.spawn`` call)."""

    name: str  # literal name, or the literal prefix for dynamic names
    dynamic: bool  # True when any part of the name is computed
    path: str
    line: int
    col: int


@dataclass(frozen=True)
class KindDef:
    """One event-kind constant on a ``class kinds``."""

    const: str
    value: str
    path: str
    line: int
    col: int


@dataclass(frozen=True)
class KindRef:
    """One ``kinds.X`` reference outside the defining class."""

    const: str
    emitted: bool  # True when the reference is an ``.emit(...)`` argument
    path: str
    line: int
    col: int


@dataclass(frozen=True)
class EmitLiteral:
    """A raw string passed as the kind of an ``.emit(...)`` call."""

    value: str
    path: str
    line: int
    col: int


@dataclass(frozen=True)
class SchemaVersionLiteral:
    """A hardcoded ``schema_version=<int>`` keyword at a call site."""

    value: int
    callee: str
    path: str
    line: int
    col: int


class Suppression(NamedTuple):
    """One suppression directive: where it sits and what it targets."""

    comment_line: int
    target_line: int
    codes: Tuple[str, ...]  # empty tuple == bare disable (all codes)


_SUPPRESS_RE = re.compile(
    r"#\s*simlint:\s*(?P<directive>disable(?:-next-line)?)"
    r"(?:\s*=\s*(?P<codes>[A-Z0-9,\s]+))?"
)


def parse_suppression_directives(source: str) -> List[Suppression]:
    """Every suppression comment in ``source``, in file order.

    The target line is the comment's own line, or the next line for
    ``disable-next-line`` — including one past EOF when the directive is
    the last line of the file (such a directive can never match and is
    exactly what SIM104 exists to catch).
    """
    directives: List[Suppression] = []
    reader = io.StringIO(source).readline
    try:
        tokens = list(tokenize.generate_tokens(reader))
    except (tokenize.TokenError, IndentationError):  # pragma: no cover
        return directives
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _SUPPRESS_RE.search(token.string)
        if match is None:
            continue
        codes_text = match.group("codes") or ""
        codes = tuple(
            sorted({code.strip() for code in codes_text.split(",") if code.strip()})
        )
        comment_line = token.start[0]
        target_line = comment_line
        if match.group("directive") == "disable-next-line":
            target_line += 1
        directives.append(Suppression(comment_line, target_line, codes))
    return directives


@dataclass
class FunctionFacts:
    """Schema-relevant behaviour of one function."""

    returned_dict_keys: Set[str] = field(default_factory=set)
    read_keys: Set[str] = field(default_factory=set)
    referenced_constants: Set[str] = field(default_factory=set)


@dataclass
class ObserverFacts:
    """What an ``on_event`` method does besides observing."""

    sched_calls: List[Tuple[int, int, str]] = field(default_factory=list)
    foreign_stores: List[Tuple[int, int, str]] = field(default_factory=list)


@dataclass
class ModuleInfo:
    """Everything the flow rules need to know about one module."""

    path: str
    component: str
    imports: Set[str] = field(default_factory=set)
    stream_regs: List[StreamReg] = field(default_factory=list)
    kind_defs: List[KindDef] = field(default_factory=list)
    kind_refs: List[KindRef] = field(default_factory=list)
    emit_literals: List[EmitLiteral] = field(default_factory=list)
    schema_literals: List[SchemaVersionLiteral] = field(default_factory=list)
    functions: Dict[str, FunctionFacts] = field(default_factory=dict)
    string_constants: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    class_bases: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    observers: Dict[str, ObserverFacts] = field(default_factory=dict)
    engine_private_refs: List[Tuple[int, int, str]] = field(default_factory=list)
    now_stores: List[Tuple[int, int]] = field(default_factory=list)
    suppressions: List[Suppression] = field(default_factory=list)
    raw_findings: List[Finding] = field(default_factory=list)


@dataclass
class ProjectGraph:
    """The assembled whole-program index (input of every flow pass)."""

    modules: Dict[str, ModuleInfo] = field(default_factory=dict)
    #: Files that failed to parse, as SIM000 findings (reported as-is).
    parse_errors: List[Finding] = field(default_factory=list)

    def sink_classes(self, roots: Sequence[str] = ("TraceSink",)) -> Set[str]:
        """Transitive subclasses of ``roots`` across every module."""
        bases: Dict[str, Tuple[str, ...]] = {}
        for info in self.modules.values():
            bases.update(info.class_bases)
        sinks: Set[str] = set(roots)
        changed = True
        while changed:
            changed = False
            for name, parents in bases.items():
                if name not in sinks and any(p in sinks for p in parents):
                    sinks.add(name)
                    changed = True
        return sinks

    def find_function(
        self, path_glob: str, name: str
    ) -> Optional[Tuple[ModuleInfo, FunctionFacts]]:
        """Locate a function by path glob + name (schema contracts)."""
        from fnmatch import fnmatch

        for path in sorted(self.modules):
            info = self.modules[path]
            if fnmatch(path, path_glob) and name in info.functions:
                return info, info.functions[name]
        return None

    def stats(self) -> Dict[str, int]:
        """Coarse graph size numbers for reports and benchmarks."""
        return {
            "modules": len(self.modules),
            "import_edges": sum(len(m.imports) for m in self.modules.values()),
            "stream_registrations": sum(
                len(m.stream_regs) for m in self.modules.values()
            ),
            "hook_kinds": sum(len(m.kind_defs) for m in self.modules.values()),
            "hook_refs": sum(len(m.kind_refs) for m in self.modules.values()),
        }


def _terminal_name(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _root_name(node: ast.expr) -> Optional[str]:
    """The base identifier of an attribute chain (``a.b.c`` → ``a``)."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


class FlowCollector(ast.NodeVisitor):
    """Single-pass fact extractor for one module (see module docstring)."""

    def __init__(self, info: ModuleInfo) -> None:
        self.info = info
        #: ids of ``kinds.X`` nodes already recorded as emissions, so the
        #: generic attribute visit does not double-count them as reads.
        self._emitted_ids: Set[int] = set()
        #: locals assigned from ``kinds.X`` expressions (e.g.
        #: ``kind = kinds.A if resumed else kinds.B``) awaiting a later
        #: ``emit(kind, ...)``; flushed as plain reads if never emitted.
        self._pending_aliases: Dict[str, List[Tuple[str, int, int]]] = {}
        self._function_stack: List[FunctionFacts] = []
        self._class_stack: List[str] = []

    def visit_Module(self, node: ast.Module) -> None:
        self.generic_visit(node)
        for name in sorted(self._pending_aliases):
            self._flush_alias(name)

    def _flush_alias(self, name: str) -> None:
        for const, line, col in self._pending_aliases.pop(name, ()):
            self.info.kind_refs.append(
                KindRef(
                    const=const,
                    emitted=False,
                    path=self.info.path,
                    line=line,
                    col=col,
                )
            )

    # -- imports -------------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.info.imports.add(alias.name)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module:
            self.info.imports.add(node.module)
        self.generic_visit(node)

    # -- classes (kinds taxonomy, sink hierarchy, observers) ------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        base_names = tuple(
            name
            for name in (_terminal_name(base) for base in node.bases)
            if name is not None
        )
        self.info.class_bases[node.name] = base_names
        if node.name == "kinds":
            for statement in node.body:
                if (
                    isinstance(statement, ast.Assign)
                    and len(statement.targets) == 1
                    and isinstance(statement.targets[0], ast.Name)
                    and isinstance(statement.value, ast.Constant)
                    and isinstance(statement.value.value, str)
                ):
                    self.info.kind_defs.append(
                        KindDef(
                            const=statement.targets[0].id,
                            value=statement.value.value,
                            path=self.info.path,
                            line=statement.lineno,
                            col=statement.col_offset + 1,
                        )
                    )
        self._class_stack.append(node.name)
        for statement in node.body:
            if (
                isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef))
                and statement.name == "on_event"
            ):
                self._collect_observer(node.name, statement)
            self.visit(statement)
        self._class_stack.pop()

    def _collect_observer(
        self, class_name: str, method: ast.AST
    ) -> None:
        facts = self.info.observers.setdefault(class_name, ObserverFacts())
        for sub in ast.walk(method):
            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
                if sub.func.attr in SCHEDULING_METHODS:
                    facts.sched_calls.append(
                        (sub.lineno, sub.col_offset + 1, sub.func.attr)
                    )
            elif isinstance(sub, (ast.Assign, ast.AugAssign)):
                targets = (
                    sub.targets if isinstance(sub, ast.Assign) else [sub.target]
                )
                for target in targets:
                    if isinstance(target, (ast.Attribute, ast.Subscript)):
                        root = _root_name(target)
                        if root == "event":
                            facts.foreign_stores.append(
                                (target.lineno, target.col_offset + 1, root)
                            )

    # -- functions (schema facts) ---------------------------------------------

    def _visit_function(self, node: ast.AST, name: str, body: List[ast.stmt]) -> None:
        # Only top-level and method functions get schema facts; nested
        # closures fold into their parent (good enough for contracts).
        facts = self.info.functions.setdefault(name, FunctionFacts())
        self._function_stack.append(facts)
        for statement in body:
            self.visit(statement)
        self._function_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node, node.name, node.body)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node, node.name, node.body)

    def visit_Return(self, node: ast.Return) -> None:
        if self._function_stack and isinstance(node.value, ast.Dict):
            for key in node.value.keys:
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    self._function_stack[-1].returned_dict_keys.add(key.value)
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if (
            self._function_stack
            and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str)
        ):
            self._function_stack[-1].read_keys.add(node.slice.value)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        # Module-level tuples/lists of strings double as key manifests
        # (``_REQUIRED_SUMMARY_KEYS``); record them for contract readers.
        if (
            not self._function_stack
            and not self._class_stack
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, (ast.Tuple, ast.List))
        ):
            elements = node.value.elts
            if elements and all(
                isinstance(e, ast.Constant) and isinstance(e.value, str)
                for e in elements
            ):
                self.info.string_constants[node.targets[0].id] = tuple(
                    e.value for e in elements  # type: ignore[union-attr]
                )
        if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            kind_attrs = [
                sub
                for sub in ast.walk(node.value)
                if isinstance(sub, ast.Attribute)
                and _terminal_name(sub.value) == "kinds"
            ]
            if kind_attrs:
                alias = node.targets[0].id
                self._flush_alias(alias)  # reassignment: old refs were reads
                self._pending_aliases[alias] = [
                    (sub.attr, sub.lineno, sub.col_offset + 1)
                    for sub in kind_attrs
                ]
                self._emitted_ids.update(id(sub) for sub in kind_attrs)
        for target in node.targets:
            self._check_now_store(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_now_store(node.target)
        self.generic_visit(node)

    def _check_now_store(self, target: ast.expr) -> None:
        if (
            isinstance(target, ast.Attribute)
            and target.attr == "now"
            and _root_name(target) != "self"
        ):
            self.info.now_stores.append((target.lineno, target.col_offset + 1))

    # -- calls (streams, emissions, schema_version literals) -------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr in ("get", "spawn"):
                self._maybe_stream_reg(node, func)
            if func.attr == "emit":
                self._collect_emission(node)
            if func.attr in ("get", "setdefault") and self._function_stack:
                if (
                    node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)
                ):
                    self._function_stack[-1].read_keys.add(node.args[0].value)
        for keyword in node.keywords:
            if (
                keyword.arg == "schema_version"
                and isinstance(keyword.value, ast.Constant)
                and isinstance(keyword.value.value, int)
            ):
                self.info.schema_literals.append(
                    SchemaVersionLiteral(
                        value=keyword.value.value,
                        callee=_terminal_name(func) or "?",
                        path=self.info.path,
                        line=keyword.value.lineno,
                        col=keyword.value.col_offset + 1,
                    )
                )
        self.generic_visit(node)

    def _maybe_stream_reg(self, node: ast.Call, func: ast.Attribute) -> None:
        receiver = func.value
        terminal = _terminal_name(receiver)
        is_streams = terminal is not None and "stream" in terminal.lower()
        if isinstance(receiver, ast.Call):
            callee = _terminal_name(receiver.func)
            is_streams = is_streams or callee == "RandomStreams"
        if not is_streams or not node.args:
            return
        arg = node.args[0]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            name, dynamic = arg.value, False
        elif isinstance(arg, ast.JoinedStr):
            prefix_parts: List[str] = []
            for value in arg.values:
                if isinstance(value, ast.Constant) and isinstance(value.value, str):
                    prefix_parts.append(value.value)
                else:
                    break
            name, dynamic = "".join(prefix_parts), True
        else:
            name, dynamic = "", True
        self.info.stream_regs.append(
            StreamReg(
                name=name,
                dynamic=dynamic,
                path=self.info.path,
                line=node.lineno,
                col=node.col_offset + 1,
            )
        )

    def _collect_emission(self, node: ast.Call) -> None:
        for arg in node.args:
            if isinstance(arg, ast.Name) and arg.id in self._pending_aliases:
                for const, line, col in self._pending_aliases.pop(arg.id):
                    self.info.kind_refs.append(
                        KindRef(
                            const=const,
                            emitted=True,
                            path=self.info.path,
                            line=line,
                            col=col,
                        )
                    )
            if (
                isinstance(arg, ast.Attribute)
                and _terminal_name(arg.value) == "kinds"
            ):
                self._emitted_ids.add(id(arg))
                self.info.kind_refs.append(
                    KindRef(
                        const=arg.attr,
                        emitted=True,
                        path=self.info.path,
                        line=arg.lineno,
                        col=arg.col_offset + 1,
                    )
                )
            elif isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                # Only the kind slot matters; it is the only dotted-name
                # string argument of emit() by convention, so record every
                # dotted literal and let the rule match against the
                # taxonomy (plain words like a source tag never collide).
                if "." in arg.value:
                    self.info.emit_literals.append(
                        EmitLiteral(
                            value=arg.value,
                            path=self.info.path,
                            line=arg.lineno,
                            col=arg.col_offset + 1,
                        )
                    )

    # -- attributes (kind reads, engine privates) ------------------------------

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if id(node) not in self._emitted_ids:
            if _terminal_name(node.value) == "kinds":
                self.info.kind_refs.append(
                    KindRef(
                        const=node.attr,
                        emitted=False,
                        path=self.info.path,
                        line=node.lineno,
                        col=node.col_offset + 1,
                    )
                )
        if node.attr in ENGINE_PRIVATE_ATTRS:
            receiver = _terminal_name(node.value)
            if receiver is not None and receiver.lower().endswith("engine"):
                self.info.engine_private_refs.append(
                    (node.lineno, node.col_offset + 1, node.attr)
                )
        if self._function_stack:
            facts = self._function_stack[-1]
            if isinstance(node.value, ast.Name):
                facts.referenced_constants.add(node.value.id)
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if self._function_stack:
            self._function_stack[-1].referenced_constants.add(node.id)
        self.generic_visit(node)


def collect_module(
    path: str, source: str, config: Optional[LintConfig] = None
) -> ModuleInfo:
    """Parse one module and extract its flow facts, its per-file
    findings before suppression, and its suppression directives."""
    config = config or LintConfig()
    posix = Path(path).as_posix()
    info = ModuleInfo(path=posix, component=component_of(posix))
    tree = ast.parse(source, filename=path)
    FlowCollector(info).visit(tree)
    # Every per-file rule runs whatever ``config.select`` says: a
    # suppression is live as long as it silences *some* finding, and the
    # report picks the selected codes afterwards.
    visitor = RuleVisitor(posix, config)
    visitor.visit(tree)
    info.raw_findings = visitor.findings
    info.suppressions = parse_suppression_directives(source)
    return info


def build_graph(
    sources: Mapping[str, str], config: Optional[LintConfig] = None
) -> ProjectGraph:
    """Parse every ``{path: source}`` module into the whole-program graph.

    Unparseable files surface as SIM000 findings on
    :attr:`ProjectGraph.parse_errors` instead of aborting the build.
    """
    graph = ProjectGraph()
    for path in sorted(sources):
        try:
            info = collect_module(path, sources[path], config)
        except SyntaxError as error:
            graph.parse_errors.append(
                syntax_error_finding(Path(path).as_posix(), error)
            )
            continue
        graph.modules[info.path] = info
    return graph
