"""Calibration of the adaptive policy's delay table (§6).

The paper: "This policy makes use of the performance parameters shown in
Figures 5 and 6 in order to choose the minimal 'period' delay that allows
to sustain the current load."  This module measures those performance
parameters — the maximal sustainable load of delayed scheduling for each
candidate period delay — and converts them into the (load fraction →
delay) step table :class:`~repro.sched.adaptive.AdaptiveDelayPolicy`
consumes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from ..core import units
from ..sim.config import SimulationConfig
from ..sim.runner import RunSpec, load_sweep, run_sweep

if TYPE_CHECKING:  # pragma: no cover
    from ..exec.executor import Executor

#: Candidate delays matching the paper's Fig 5 sweep, plus zero.
DEFAULT_CANDIDATE_DELAYS: Tuple[float, ...] = (
    0.0,
    11 * units.HOUR,
    2 * units.DAY,
    1 * units.WEEK,
)


def max_sustained_load_for_delay(
    config: SimulationConfig,
    delay: float,
    stripe_events: int,
    loads_per_hour: Sequence[float],
    executor: Optional["Executor"] = None,
) -> float:
    """Highest offered load (from the given grid) that stays in steady
    state under delayed scheduling with ``delay``."""
    specs: List[RunSpec] = load_sweep(
        config,
        "delayed",
        loads_per_hour,
        label=f"delay-{delay:.0f}",
        period=delay,
        stripe_events=stripe_events,
    )
    sweep = run_sweep(specs, executor=executor)
    sustained = [r.load_per_hour for _, r in sweep.pairs() if r.steady]
    return max(sustained) if sustained else 0.0


def calibrate_delay_table(
    config: SimulationConfig,
    stripe_events: int = 5000,
    delays: Sequence[float] = DEFAULT_CANDIDATE_DELAYS,
    loads_per_hour: Optional[Sequence[float]] = None,
    headroom: float = 0.95,
    executor: Optional["Executor"] = None,
) -> List[Tuple[float, float]]:
    """Measure a (sustainable load fraction → delay) table.

    ``headroom`` derates each measured ceiling so the adaptive policy
    escalates *before* the cliff rather than on it.  The returned table is
    monotone (a longer delay never reports a lower ceiling than a shorter
    one — enforced, since measurement noise can invert neighbours).
    """
    maximum = config.max_theoretical_load_per_hour
    if loads_per_hour is None:
        loads_per_hour = [maximum * f for f in (0.45, 0.55, 0.65, 0.75, 0.85, 0.95)]
    table: List[Tuple[float, float]] = []
    floor = 0.0
    for delay in sorted(delays):
        ceiling = max_sustained_load_for_delay(
            config, delay, stripe_events, loads_per_hour, executor=executor
        )
        fraction = max(floor, headroom * ceiling / maximum)
        floor = fraction
        table.append((round(fraction, 3), delay))
    return table


def summarize_table(table: Sequence[Tuple[float, float]]) -> str:
    lines = ["load fraction ceiling -> delay"]
    for fraction, delay in table:
        lines.append(f"  <= {fraction:5.2f} of max  ->  {units.fmt_duration(delay)}")
    return "\n".join(lines)
