"""simlint configuration: per-rule module allowlists and rule selection.

Allowlists are matched against the *posix-style* path of the linted file
(``src/repro/core/rng.py``) with :func:`fnmatch.fnmatch`, so entries may
use glob wildcards.  The defaults encode this repository's layout; other
projects can construct their own :class:`LintConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatch
from typing import FrozenSet, Tuple

from .findings import ALL_RULES

#: The one module allowed to read the wall clock (SIM001).  Everything
#: else must import :func:`repro.core.clock.wall_clock`.
DEFAULT_CLOCK_MODULES: Tuple[str, ...] = ("*/core/clock.py",)

#: The one module allowed to construct numpy generators (SIM002).  The
#: decentralized scheduler's arbiter deliberately gets no entry here: its
#: tie-breaking draws come from the named ``sched.arbiter`` stream
#: handed out by :class:`repro.core.rng.RandomStreams`.
DEFAULT_RNG_MODULES: Tuple[str, ...] = ("*/core/rng.py",)

#: Modules whose job *is* emitting/consuming trace events (SIM004).
DEFAULT_OBS_MODULES: Tuple[str, ...] = ("*/obs/*.py",)

#: Modules allowed to perform I/O (SIM006): the CLI, exporters, the obs
#: sinks, the sweep runner's progress output, workload-trace files, the
#: benchmark harness (``repro.perf`` reads/writes BENCH_*.json and runs
#: ``git rev-parse``), the execution layer (``repro.exec`` owns the
#: result cache on disk), simlint itself (reads sources) — and the
#: top-level driver scripts (benchmarks/, examples/), whose entire job
#: is terminal output.
DEFAULT_IO_MODULES: Tuple[str, ...] = (
    "*/cli.py",
    "*/__main__.py",
    "*/exec/*.py",
    "*/lint/*.py",
    "*/lint/flow/*.py",
    "*/obs/*.py",
    "*/perf/*.py",
    "*/sim/export.py",
    "*/sim/runner.py",
    "*/workload/trace.py",
    "*/experiments/*.py",
    "*/analysis/plots.py",
    "*/analysis/tables.py",
    "benchmarks/*.py",
    "*/benchmarks/*.py",
    "examples/*.py",
    "*/examples/*.py",
)


def _match_any(path: str, patterns: Tuple[str, ...]) -> bool:
    return any(fnmatch(path, pattern) for pattern in patterns)


@dataclass(frozen=True)
class LintConfig:
    """Immutable knob set of one lint run."""

    #: Rules to report; defaults to the full catalogue (per-file and
    #: flow rules alike).
    select: FrozenSet[str] = field(default_factory=lambda: frozenset(ALL_RULES))
    clock_modules: Tuple[str, ...] = DEFAULT_CLOCK_MODULES
    rng_modules: Tuple[str, ...] = DEFAULT_RNG_MODULES
    obs_modules: Tuple[str, ...] = DEFAULT_OBS_MODULES
    io_modules: Tuple[str, ...] = DEFAULT_IO_MODULES

    def enabled(self, code: str) -> bool:
        return code in self.select

    # -- per-rule module exemptions -----------------------------------------

    def is_clock_module(self, path: str) -> bool:
        return _match_any(path, self.clock_modules)

    def is_rng_module(self, path: str) -> bool:
        return _match_any(path, self.rng_modules)

    def is_obs_module(self, path: str) -> bool:
        return _match_any(path, self.obs_modules)

    def is_io_module(self, path: str) -> bool:
        return _match_any(path, self.io_modules)
