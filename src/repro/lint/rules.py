"""The simlint AST pass: simulation-specific determinism & invariant rules.

One :class:`RuleVisitor` walk checks all six rules.  The visitor keeps a
tiny import-alias table so dotted calls are matched by *resolved* module
path (``import numpy as np; np.random.seed(...)`` and
``from numpy import random; random.seed(...)`` both resolve to
``numpy.random.seed``), which keeps the rules robust against aliasing
without needing type inference.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set

from .config import LintConfig
from .findings import Finding

# -- SIM001: wall-clock sources ---------------------------------------------

#: Zero-argument (or any-argument) calls that read the host clock.
_WALLCLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
}

#: Datetime constructors that read the host clock when called with no
#: arguments (an explicit ``tz``/source argument is somebody else's
#: problem — the issue is the *implicit* ambient clock).
_WALLCLOCK_ARGLESS = {
    "datetime.datetime.now",
    "datetime.datetime.today",
    "datetime.date.today",
    "datetime.datetime.utcnow",
}

# -- SIM002: unseeded randomness --------------------------------------------

#: numpy.random module-level functions drawing from the *global* state.
_NUMPY_GLOBAL_DRAWS = {
    "beta", "binomial", "bytes", "chisquare", "choice", "dirichlet",
    "exponential", "f", "gamma", "geometric", "gumbel", "hypergeometric",
    "integers", "laplace", "logistic", "lognormal", "logseries",
    "multinomial", "multivariate_normal", "negative_binomial",
    "noncentral_chisquare", "noncentral_f", "normal", "pareto",
    "permutation", "poisson", "power", "rand", "randint", "randn",
    "random", "random_integers", "random_sample", "ranf", "rayleigh",
    "sample", "seed", "shuffle", "standard_cauchy",
    "standard_exponential", "standard_gamma", "standard_normal",
    "standard_t", "triangular", "uniform", "vonmises", "wald",
    "weibull", "zipf",
}

# -- SIM003: float equality on simulation times ------------------------------

#: Identifiers treated as simulation-time expressions.
_TIME_EXACT_NAMES = {
    "now",
    "time",
    "last_access",
    "timestamp",
    "deadline",
    "completion",
    "arrival",
    "stamp",
    "first_start",
}
_TIME_SUFFIXES = ("_time", "_at", "_seconds")

# -- SIM005: shared-config mutation ------------------------------------------

_CONFIG_BASE_NAMES = {"config", "scenario", "cfg"}
_CONFIG_SUFFIXES = ("_config", "_scenario")

# -- SIM006: I/O in simulation code ------------------------------------------

_IO_BUILTINS = {"open", "print", "input"}
_IO_METHODS = {"write_text", "write_bytes"}


def _terminal_name(node: ast.expr) -> Optional[str]:
    """The last identifier of a Name/Attribute chain (else None)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _mentions_guard_flag(node: ast.expr) -> bool:
    """True if the expression references ``.enabled``/``.engine_dispatch``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr in (
            "enabled",
            "engine_dispatch",
        ):
            return True
        if isinstance(sub, ast.Name) and sub.id in ("enabled", "engine_dispatch"):
            return True
    return False


def _is_time_like(node: ast.expr) -> bool:
    name = _terminal_name(node)
    if name is None:
        return False
    name = name.lower()
    if name in _TIME_EXACT_NAMES:
        return True
    return any(name.endswith(suffix) for suffix in _TIME_SUFFIXES)


def _is_config_like(node: ast.expr) -> bool:
    name = _terminal_name(node)
    if name is None:
        return False
    name = name.lower()
    if name in _CONFIG_BASE_NAMES:
        return True
    return any(name.endswith(suffix) for suffix in _CONFIG_SUFFIXES)


class RuleVisitor(ast.NodeVisitor):
    """Single-pass checker producing :class:`Finding` s for one module."""

    def __init__(self, path: str, config: LintConfig) -> None:
        self.path = path
        self.config = config
        self.findings: List[Finding] = []
        #: local alias -> dotted module/object path (import resolution).
        self._aliases: Dict[str, str] = {}
        #: stack of enclosing ``if`` tests that mention a hook guard flag.
        self._guard_depth = 0
        #: per-function: line after which an early-return guard protects
        #: emissions (``if not bus.enabled: return`` at function top).
        self._early_guard_lines: List[Optional[int]] = []

    # -- helpers -------------------------------------------------------------

    def _report(self, code: str, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                code=code,
                path=self.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                message=message,
            )
        )

    def _resolve(self, node: ast.expr) -> Optional[str]:
        """Resolve a Name/Attribute chain to a dotted path via the alias
        table; returns None when the base is not an imported name."""
        parts: List[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        base = self._aliases.get(current.id)
        if base is None:
            return None
        parts.append(base)
        return ".".join(reversed(parts))

    # -- imports -------------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            self._aliases[local] = alias.name if alias.asname else local
            if alias.asname:
                self._aliases[alias.asname] = alias.name
            else:
                # `import a.b` binds `a`; resolve through the top module.
                self._aliases[alias.name.split(".")[0]] = alias.name.split(".")[0]
            if self._is_random_module(alias.name):
                self._check_random_import(node)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        for alias in node.names:
            local = alias.asname or alias.name
            self._aliases[local] = f"{module}.{alias.name}" if module else alias.name
        if self._is_random_module(module):
            self._check_random_import(node)
        self.generic_visit(node)

    @staticmethod
    def _is_random_module(module: str) -> bool:
        return module == "random" or module.startswith("random.")

    def _check_random_import(self, node: ast.AST) -> None:
        if self.config.is_rng_module(self.path):
            return
        self._report(
            "SIM002",
            node,
            "import of the global `random` module; draw from a named "
            "RandomStreams stream instead",
        )

    # -- calls (SIM001, SIM002, SIM004, SIM005, SIM006) ----------------------

    def visit_Call(self, node: ast.Call) -> None:
        resolved = self._resolve(node.func) if not isinstance(node.func, ast.Name) \
            else self._aliases.get(node.func.id)
        self._check_wallclock(node, resolved)
        self._check_numpy_random(node, resolved)
        self._check_emit_guard(node)
        self._check_setattr_mutation(node)
        self._check_io(node, resolved)
        self.generic_visit(node)

    def _check_wallclock(self, node: ast.Call, resolved: Optional[str]) -> None:
        if resolved is None or self.config.is_clock_module(self.path):
            return
        if resolved in _WALLCLOCK_CALLS:
            self._report(
                "SIM001",
                node,
                f"wall-clock read `{resolved}()`; use repro.core.clock."
                "wall_clock() (timing reports) or the engine clock "
                "(simulation time)",
            )
        elif (
            resolved in _WALLCLOCK_ARGLESS
            and not node.args
            and not node.keywords
        ):
            self._report(
                "SIM001",
                node,
                f"implicit wall-clock read `{resolved}()`; simulation code "
                "must not depend on the host clock",
            )

    def _check_numpy_random(self, node: ast.Call, resolved: Optional[str]) -> None:
        if self.config.is_rng_module(self.path):
            return
        if resolved is None or not resolved.startswith("numpy.random."):
            return
        tail = resolved[len("numpy.random."):]
        if tail == "seed" or tail in _NUMPY_GLOBAL_DRAWS and "." not in tail:
            self._report(
                "SIM002",
                node,
                f"`{resolved}` uses numpy's process-global random state; "
                "draw from a named RandomStreams stream",
            )
        elif tail == "default_rng" and not node.args and not node.keywords:
            self._report(
                "SIM002",
                node,
                "`numpy.random.default_rng()` without a seed is "
                "non-reproducible; pass an explicit seed or use "
                "RandomStreams",
            )

    def _check_emit_guard(self, node: ast.Call) -> None:
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "emit"):
            return
        receiver = _terminal_name(func.value)
        if receiver not in ("obs", "bus"):
            return
        if self.config.is_obs_module(self.path):
            return
        if self._guard_depth > 0:
            return
        if self._early_guard_lines and self._early_guard_lines[-1] is not None \
                and node.lineno > self._early_guard_lines[-1]:
            return
        self._report(
            "SIM004",
            node,
            "hook emission without the one-branch disabled guard; wrap in "
            "`if bus.enabled:` (or return early when disabled) so untraced "
            "runs never build the event",
        )

    def _check_setattr_mutation(self, node: ast.Call) -> None:
        func = node.func
        target: Optional[ast.expr] = None
        if isinstance(func, ast.Name) and func.id == "setattr" and node.args:
            target = node.args[0]
        elif (
            isinstance(func, ast.Attribute)
            and func.attr == "__setattr__"
            and node.args
        ):
            target = node.args[0]
        if target is not None and _is_config_like(target):
            self._report(
                "SIM005",
                node,
                "setattr on a shared config/scenario object after "
                "construction; derive a new value with .with_()",
            )

    def _check_io(self, node: ast.Call, resolved: Optional[str]) -> None:
        if self.config.is_io_module(self.path):
            return
        func = node.func
        name: Optional[str] = None
        if isinstance(func, ast.Name) and func.id in _IO_BUILTINS:
            # Respect shadowing through an import alias (`from x import open`).
            if self._aliases.get(func.id, func.id) == func.id:
                name = func.id
        elif isinstance(func, ast.Attribute) and func.attr in _IO_METHODS:
            name = func.attr
        if name is not None:
            self._report(
                "SIM006",
                node,
                f"I/O call `{name}` in simulation code; only export/CLI/obs "
                "modules may touch files or the terminal",
            )

    # -- comparisons (SIM003) ------------------------------------------------

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            for side in (left, right):
                if _is_time_like(side):
                    self._report(
                        "SIM003",
                        node,
                        "exact ==/!= on a simulation-time expression "
                        f"(`{_terminal_name(side)}`); float round-off makes "
                        "this fragile — use units.times_equal()",
                    )
                    break
        self.generic_visit(node)

    # -- assignments (SIM005) ------------------------------------------------

    def _check_assign_target(self, target: ast.expr) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._check_assign_target(element)
            return
        if isinstance(target, ast.Starred):
            self._check_assign_target(target.value)
            return
        if isinstance(target, (ast.Subscript, ast.Attribute)) and _is_config_like(
            target.value
        ):
            self._report(
                "SIM005",
                target,
                "mutation of a shared config/scenario object; configs are "
                "frozen values — build a modified copy with .with_()",
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_assign_target(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_assign_target(node.target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check_assign_target(node.target)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._check_assign_target(target)
        self.generic_visit(node)

    # -- guard tracking (SIM004) ----------------------------------------------

    def visit_If(self, node: ast.If) -> None:
        guarded = _mentions_guard_flag(node.test)
        self.visit(node.test)
        if guarded:
            self._guard_depth += 1
        for child in node.body:
            self.visit(child)
        if guarded:
            self._guard_depth -= 1
        for child in node.orelse:
            self.visit(child)

    def _enter_function(self, node: ast.AST, body: List[ast.stmt]) -> None:
        """Record the line of an early-return hook guard, if any: a top-
        level ``if <...enabled...>: ... return`` statement."""
        guard_line: Optional[int] = None
        for statement in body:
            if (
                isinstance(statement, ast.If)
                and _mentions_guard_flag(statement.test)
                and any(isinstance(s, ast.Return) for s in ast.walk(statement))
            ):
                guard_line = statement.lineno
                break
        self._early_guard_lines.append(guard_line)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter_function(node, node.body)
        self.generic_visit(node)
        self._early_guard_lines.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter_function(node, node.body)
        self.generic_visit(node)
        self._early_guard_lines.pop()
