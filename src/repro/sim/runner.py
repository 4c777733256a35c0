"""Experiment runner: parameter sweeps through the execution layer.

A sweep is a list of :class:`RunSpec` (config + policy + policy
parameters, built with :meth:`RunSpec.make` or the :func:`load_sweep`
helper).  :func:`run_sweep` hands the specs to the caller's
:class:`repro.exec.Executor` (``None`` means ``Executor()``: serial for
small sweeps, a process pool otherwise), which streams per-completion
progress, runs each spec once with crash isolation and optionally
caches by content, and returns a :class:`SweepResult` pairing each spec
with its :class:`~repro.sim.simulator.SimulationResult` (or, in
``capture`` mode, the :class:`~repro.exec.SpecError` that felled it).
The executor is the one knob for how a sweep runs; no sweep function
takes a separate worker count.

``SweepResult`` then post-processes the pairs:

* :meth:`SweepResult.series` — (load, metric) points per label, the
  paper's figure format, with overloaded points cut off by default;
* :meth:`SweepResult.max_sustained_load` — highest steady load per label;
* :meth:`SweepResult.by_label` / :meth:`SweepResult.to_json` — grouping
  and machine-readable export (summary-JSON v7 conventions:
  ``schema_version``, per-point ``seed``, fault summary, control-plane
  ``sched`` accounting including the reliability counters, the
  streaming-metrics fields — ``measured.exact``, stretch statistics,
  ``records_dropped`` — and the per-point ``topo`` tier accounting).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..core.errors import ConfigurationError, ExecError
from ..exec.outcomes import ExecStats, Progress, SpecError
from ..sched import policy_parameters
from .config import SimulationConfig
from .export import SCHEMA_VERSION
from .simulator import SimulationResult, run_simulation

if TYPE_CHECKING:  # pragma: no cover - the executor imports us back lazily
    from ..exec.executor import Executor

#: One slot of a sweep: the result, or the structured failure.
SpecOutcome = Union[SimulationResult, SpecError]


@dataclass(frozen=True)
class RunSpec:
    """One point of a sweep."""

    config: SimulationConfig
    policy: str
    policy_params: Tuple[Tuple[str, object], ...] = ()
    label: str = ""

    @classmethod
    def make(
        cls,
        config: SimulationConfig,
        policy: str,
        label: str = "",
        **policy_params,
    ) -> "RunSpec":
        """A sweep point; raises :class:`ConfigurationError` for a keyword
        the policy does not take, before any spec runs."""
        if policy_params:
            accepted = policy_parameters(policy)
            unknown = sorted(set(policy_params) - set(accepted))
            if unknown:
                raise ConfigurationError(
                    f"policy {policy!r} has no parameter(s) "
                    f"{', '.join(unknown)}; it accepts: "
                    f"{', '.join(accepted) or 'none'}"
                )
        return cls(
            config=config,
            policy=policy,
            policy_params=tuple(sorted(policy_params.items())),
            label=label or policy,
        )


def _execute(spec: RunSpec) -> SimulationResult:
    return run_simulation(spec.config, spec.policy, **dict(spec.policy_params))


@dataclass
class SweepResult:
    """Results of a sweep, keyed by spec order.

    ``results`` holds one entry per spec: a ``SimulationResult``, or a
    :class:`~repro.exec.SpecError` when the sweep ran in ``capture`` mode
    and that point crashed.  The analysis accessors silently skip failed
    slots; :meth:`errors` lists them.
    """

    specs: List[RunSpec]
    results: List[SpecOutcome]
    #: Execution accounting (cache hits, failures, wall time) when the
    #: sweep ran through an executor; not part of the JSON export.
    stats: Optional[ExecStats] = field(default=None, compare=False)

    def pairs(self) -> Iterator[Tuple[RunSpec, SimulationResult]]:
        """(spec, result) for every *successful* slot, in spec order."""
        for spec, outcome in zip(self.specs, self.results):
            if not isinstance(outcome, SpecError):
                yield spec, outcome

    def errors(self) -> List[Tuple[RunSpec, SpecError]]:
        """(spec, error) for every failed slot, in spec order."""
        return [
            (spec, outcome)
            for spec, outcome in zip(self.specs, self.results)
            if isinstance(outcome, SpecError)
        ]

    @property
    def n_failed(self) -> int:
        return sum(1 for outcome in self.results if isinstance(outcome, SpecError))

    def by_label(self) -> Dict[str, List[SimulationResult]]:
        """Group results by spec label, preserving order within groups."""
        groups: Dict[str, List[SimulationResult]] = {}
        for spec, result in self.pairs():
            groups.setdefault(spec.label, []).append(result)
        return groups

    def series(
        self, metric: str, include_overloaded: bool = False
    ) -> Dict[str, List[Tuple[float, float]]]:
        """(load, metric) points per label — the paper's figure format.

        Overloaded points are dropped by default, mirroring the paper's
        "curves are cut at high loads when the cluster becomes
        overloaded".
        """
        out: Dict[str, List[Tuple[float, float]]] = {}
        for label, results in self.by_label().items():
            points: List[Tuple[float, float]] = []
            for result in results:
                if result.overload.overloaded and not include_overloaded:
                    continue
                points.append((result.load_per_hour, _metric(result, metric)))
            points.sort()
            out[label] = points
        return out

    def max_sustained_load(self) -> Dict[str, float]:
        """Highest non-overloaded load per label (0.0 if none)."""
        out: Dict[str, float] = {}
        for label, results in self.by_label().items():
            sustained = [r.load_per_hour for r in results if r.steady]
            out[label] = max(sustained) if sustained else 0.0
        return out

    def to_json(self) -> str:
        """Sweep export at the summary-JSON ``SCHEMA_VERSION``:
        deterministic for a given sweep — byte-identical across
        ``--jobs`` settings, cache hits and reruns of an interrupted
        sweep."""
        points = []
        for spec, outcome in zip(self.specs, self.results):
            entry = {
                "label": spec.label,
                "policy": spec.policy,
                "policy_params": dict(spec.policy_params),
                "seed": spec.config.seed,
            }
            if isinstance(outcome, SpecError):
                entry["error"] = outcome.as_dict()
            else:
                entry.update(
                    {
                        "load_per_hour": outcome.load_per_hour,
                        "mean_speedup": outcome.measured.mean_speedup,
                        "mean_waiting": outcome.measured.mean_waiting,
                        "mean_waiting_excl_delay": outcome.measured.mean_waiting_excl_delay,
                        "mean_processing": outcome.measured.mean_processing,
                        "n_jobs": outcome.measured.n_jobs,
                        "overloaded": outcome.overload.overloaded,
                        "tertiary_redundancy": outcome.tertiary_redundancy,
                        "node_utilization": outcome.node_utilization,
                        "faults": (
                            asdict(outcome.faults)
                            if outcome.faults is not None
                            else None
                        ),
                        "sched": (
                            outcome.sched.as_dict()
                            if outcome.sched is not None
                            else None
                        ),
                        "topo": (
                            asdict(outcome.topo)
                            if outcome.topo is not None
                            else None
                        ),
                    }
                )
            points.append(entry)
        payload = {"schema_version": SCHEMA_VERSION, "results": points}
        return json.dumps(payload, indent=2, default=float)


def _metric(result: SimulationResult, metric: str) -> float:
    if metric == "speedup":
        return result.measured.mean_speedup
    if metric == "waiting":
        return result.measured.mean_waiting
    if metric == "waiting_excl_delay":
        return result.measured.mean_waiting_excl_delay
    if metric == "processing":
        return result.measured.mean_processing
    if metric == "sojourn":
        return result.measured.mean_sojourn
    if metric == "utilization":
        return result.node_utilization
    if metric == "redundancy":
        return result.tertiary_redundancy
    raise KeyError(f"unknown metric {metric!r}")


def _print_progress(progress: Progress) -> None:  # pragma: no cover - console
    print(f"[{progress.done}/{progress.total}] {progress.brief}", flush=True)


def run_sweep(
    specs: Sequence[RunSpec],
    progress: bool = False,
    *,
    executor: Optional["Executor"] = None,
    on_error: str = "raise",
) -> SweepResult:
    """Run all specs through the execution layer.

    ``executor`` says how: its worker count, result cache and spec
    timeout.  ``None`` means ``Executor()`` — serial for small sweeps, a
    process pool otherwise, ``$REPRO_JOBS`` overriding the default.

    ``on_error="raise"`` (the default) raises :class:`ExecError` if any
    spec failed — the historical abort semantics; ``on_error="capture"``
    leaves each failure as a :class:`~repro.exec.SpecError` in its slot
    so one bad point cannot take down the sweep.
    """
    from ..exec.executor import Executor

    if on_error not in ("raise", "capture"):
        raise ValueError(
            f"on_error must be 'raise' or 'capture', got {on_error!r}"
        )
    specs = list(specs)
    if executor is None:
        executor = Executor()
    outcome = executor.run(
        specs, progress=_print_progress if progress else None
    )
    sweep = SweepResult(
        specs=specs, results=outcome.results, stats=outcome.stats
    )
    if on_error == "raise" and sweep.n_failed:
        first = sweep.errors()[0][1]
        raise ExecError(
            f"{sweep.n_failed} of {len(specs)} sweep specs failed; first: "
            f"{first.brief()}\n{first.traceback}"
        )
    return sweep


def load_sweep(
    base_config: SimulationConfig,
    policy: str,
    loads_per_hour: Iterable[float],
    label: str = "",
    **policy_params,
) -> List[RunSpec]:
    """Specs for one policy across several offered loads."""
    return [
        RunSpec.make(
            base_config.with_(arrival_rate_per_hour=load),
            policy,
            label=label or policy,
            **policy_params,
        )
        for load in loads_per_hour
    ]
