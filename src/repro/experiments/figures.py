"""The paper's figures and in-text claims as registered experiments.

Each ``fig*`` experiment regenerates the corresponding figure of the
paper's evaluation: same policies, same parameters (cache sizes, delays,
stripe sizes), same axes (offered load in jobs/hour → average speedup and
average waiting time), with overloaded points cut exactly like the paper
cuts its curves.  ``repl``, ``maxload``, ``farmq`` and ``nodes`` cover the
evaluation claims made in prose rather than figures.  Each carries its
claim as a verdict beside its build and render: the paper's shape, with
the thresholds this reproduction checks it at.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import numpy as np

from ..analysis.histogram import waiting_time_histogram
from ..analysis.plots import ascii_plot
from ..analysis.queueing import QueueingPrediction, merlang_wait
from ..analysis.tables import format_histogram, format_series_table, format_table
from ..analysis.theory import theoretical_limits
from ..core import units
from ..sim.config import SimulationConfig, paper_config
from ..sim.runner import RunSpec, SweepResult, load_sweep
from .registry import Experiment, Scale, failed_claims, register_experiment

#: Base seed for all figure sweeps (per-spec configs share a seed so every
#: policy sees an identically-distributed workload).
SEED = 2004

_GB = units.GB


def _base(scale: Scale, **overrides) -> SimulationConfig:
    """The paper configuration at the requested scale."""
    durations = {
        Scale.SMOKE: 6 * units.DAY,
        Scale.QUICK: 16 * units.DAY,
        Scale.FULL: 48 * units.DAY,
    }
    defaults = dict(duration=durations[scale], seed=SEED)
    defaults.update(overrides)
    return paper_config(**defaults)


def _loads(scale: Scale, full: List[float]) -> List[float]:
    """Thin a full load grid down for cheaper scales."""
    if scale is Scale.FULL:
        return full
    if scale is Scale.QUICK:
        return full[:: max(1, len(full) // 4)]
    return [full[0], full[len(full) // 2]]


def _speedup_and_wait(
    sweep: SweepResult, wait_metric: str = "waiting", title: str = ""
) -> str:
    """Standard two-panel rendering of a figure sweep."""
    speedup = sweep.series("speedup")
    waiting = sweep.series(wait_metric)
    parts = [
        format_series_table(speedup, "avg speedup", title=f"{title} — average speedup"),
        "",
        ascii_plot(speedup, title=f"{title} — speedup vs load", y_label="speedup"),
        "",
        format_series_table(
            waiting, "avg waiting", time_metric=True,
            title=f"{title} — average waiting time ({wait_metric})",
        ),
        "",
        ascii_plot(
            waiting, log_y=True, title=f"{title} — waiting time vs load (log)",
            y_label="waiting (s)",
        ),
        "",
        format_table(
            ["curve", "max sustained load (jobs/h)"],
            sorted(sweep.max_sustained_load().items()),
            title="Sustainability (highest steady-state load per curve)",
        ),
    ]
    return "\n".join(parts)


def _at_lowest_load(series: Dict[str, List[Tuple[float, float]]], label: str) -> float:
    """A curve's value at its lowest steady load; NaN, which fails every
    claim it enters, when the curve has no steady point."""
    points = series.get(label)
    return points[0][1] if points else math.nan


def _close(actual: float, expected: float, rel: float) -> bool:
    """``actual`` within ``rel`` of ``expected`` (relative to ``expected``)."""
    return abs(actual - expected) <= max(rel * abs(expected), 1e-12)


# ---------------------------------------------------------------------------
# Figure 2 — farm vs splitting vs cache-oriented splitting
# ---------------------------------------------------------------------------


def _fig2_build(scale: Scale) -> List[RunSpec]:
    loads = _loads(scale, [0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3])
    base = _base(scale)
    specs: List[RunSpec] = []
    specs += load_sweep(base, "farm", loads, label="farm")
    specs += load_sweep(base, "splitting", loads, label="splitting")
    for cache_gb in (50, 100, 200):
        specs += load_sweep(
            base.with_(cache_bytes=cache_gb * _GB),
            "cache-splitting",
            loads,
            label=f"cache-{cache_gb}GB",
        )
    return specs


def _fig2_verdict(sweep: SweepResult, scale: Scale) -> List[str]:
    speedups = sweep.series("speedup")
    farm, splitting, small, large = (
        _at_lowest_load(speedups, label)
        for label in ("farm", "splitting", "cache-50GB", "cache-200GB")
    )
    # 200 GB approaches the caching factor (~3x) over plain splitting at
    # full scale; shorter scales leave the caches only partly warm, so
    # only a clear gain is claimed.
    ratio = large / splitting
    return failed_claims(
        (farm < 1.2, f"farm speedup ~1 (< 1.2): {farm:.2f}"),
        (splitting > farm, f"splitting beats farm: {splitting:.2f} vs {farm:.2f}"),
        (small > splitting,
         f"cache-50GB beats splitting: {small:.2f} vs {splitting:.2f}"),
        (large > small,
         f"cache-200GB beats cache-50GB: {large:.2f} vs {small:.2f}"),
        (ratio > 1.25,
         f"cache-200GB / splitting speedup > 1.25 (paper ~3): {ratio:.2f}"),
    )


register_experiment(
    Experiment(
        exp_id="fig2",
        title="FCFS policies: farm, job splitting, cache-oriented splitting",
        paper_ref="Figure 2",
        build=_fig2_build,
        render=lambda sweep: _speedup_and_wait(sweep, title="Fig 2"),
        expectation=(
            "farm speedup ~1 and saturates near 1.1 jobs/h; splitting better at "
            "low load; cache-oriented dominates with gain roughly proportional "
            "to cache size, reaching the caching factor (~3x over splitting) at "
            "200 GB; waiting times drop from days toward hours as caches grow"
        ),
        verdict=_fig2_verdict,
    )
)


# ---------------------------------------------------------------------------
# Figure 3 — cache-oriented splitting vs out-of-order scheduling
# ---------------------------------------------------------------------------


def _fig3_build(scale: Scale) -> List[RunSpec]:
    loads = _loads(scale, [0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.4, 2.6])
    base = _base(scale)
    specs: List[RunSpec] = []
    for cache_gb in (50, 100, 200):
        config = base.with_(cache_bytes=cache_gb * _GB)
        specs += load_sweep(
            config, "cache-splitting", loads, label=f"cache-{cache_gb}GB"
        )
        specs += load_sweep(
            config, "out-of-order", loads, label=f"ooo-{cache_gb}GB"
        )
    return specs


def _fig3_verdict(sweep: SweepResult, scale: Scale) -> List[str]:
    sustained = sweep.max_sustained_load()
    speedups = sweep.series("speedup")
    checks: List[Tuple[bool, str]] = []
    for cache_gb in (50, 100, 200):
        cache_label = f"cache-{cache_gb}GB"
        ooo_label = f"ooo-{cache_gb}GB"
        ooo, cache = sustained[ooo_label], sustained[cache_label]
        checks.append((
            ooo >= cache,
            f"{ooo_label} sustains at least {cache_label}: "
            f"{ooo:.2f} vs {cache:.2f} jobs/h",
        ))
        ooo, cache = (
            _at_lowest_load(speedups, label) for label in (ooo_label, cache_label)
        )
        checks.append((
            ooo > cache,
            f"{ooo_label} speedup beats {cache_label} at the lowest load: "
            f"{ooo:.2f} vs {cache:.2f}",
        ))
    # The paper's headline: ~2x the sustainable load at equal cache.
    ooo, cache = sustained["ooo-100GB"], sustained["cache-100GB"]
    checks.append((
        ooo >= 1.5 * cache,
        f"ooo-100GB sustains >= 1.5x cache-100GB (paper ~2x): "
        f"{ooo:.2f} vs {cache:.2f} jobs/h",
    ))
    return failed_claims(*checks)


register_experiment(
    Experiment(
        exp_id="fig3",
        title="Out-of-order scheduling vs cache-oriented splitting",
        paper_ref="Figure 3",
        build=_fig3_build,
        render=lambda sweep: _speedup_and_wait(sweep, title="Fig 3"),
        expectation=(
            "at equal cache size, out-of-order gives higher speedup, roughly an "
            "order of magnitude lower waiting time, and sustains about twice "
            "the load of FIFO cache-based splitting, with graceful degradation "
            "near the maximal load"
        ),
        verdict=_fig3_verdict,
    )
)


# ---------------------------------------------------------------------------
# Figure 4 — waiting-time distribution near the maximal sustainable load
# ---------------------------------------------------------------------------


def _fig4_build(scale: Scale) -> List[RunSpec]:
    durations = {
        Scale.SMOKE: 8 * units.DAY,
        Scale.QUICK: 24 * units.DAY,
        Scale.FULL: 60 * units.DAY,
    }
    specs = []
    for cache_gb, load in ((100, 1.7), (50, 1.44)):
        config = paper_config(
            duration=durations[scale],
            seed=SEED,
            cache_bytes=cache_gb * _GB,
            arrival_rate_per_hour=load,
        )
        specs.append(
            RunSpec.make(config, "out-of-order", label=f"ooo-{cache_gb}GB@{load}")
        )
    return specs


def _fig4_render(sweep: SweepResult) -> str:
    parts: List[str] = []
    for spec, result in sweep.pairs():
        waits = result.measured.waiting_times
        hist = waiting_time_histogram(waits)
        parts.append(
            format_histogram(
                hist.rows(),
                title=(
                    f"Fig 4 — waiting-time distribution, {spec.label} "
                    f"({result.measured.n_jobs} jobs; <1h: {hist.below}, "
                    f">=2days: {hist.above})"
                ),
            )
        )
        if len(waits):
            parts.append(
                f"  max waiting: {units.fmt_duration(float(np.max(waits)))}, "
                f"median: {units.fmt_duration(float(np.median(waits)))}"
            )
        parts.append("")
    return "\n".join(parts)


def _fig4_verdict(sweep: SweepResult, scale: Scale) -> List[str]:
    checks: List[Tuple[bool, str]] = []
    for spec, result in sweep.pairs():
        waits = result.measured.waiting_times
        if len(waits) <= 50:
            checks.append((False, f"{spec.label}: > 50 jobs measured: {len(waits)}"))
            continue
        hist = waiting_time_histogram(waits)
        worst = float(np.max(waits))
        checks += [
            # Bimodal shape: a substantial sub-hour population...
            (hist.below >= 0.3 * hist.total,
             f"{spec.label}: >= 30% of waits under an hour: "
             f"{hist.below} of {hist.total}"),
            # ...and a bounded tail (nothing beyond ~4 days even near
            # saturation; the paper reports 1-2 days at full scale).
            (worst < 4 * units.DAY,
             f"{spec.label}: worst wait < 4 days: {units.fmt_duration(worst)}"),
        ]
    return failed_claims(*checks)


register_experiment(
    Experiment(
        exp_id="fig4",
        title="Waiting-time distribution of out-of-order scheduling near saturation",
        paper_ref="Figure 4",
        build=_fig4_build,
        render=_fig4_render,
        expectation=(
            "two populations: jobs with cached data overtake and wait little "
            "(bulk below ~an hour); jobs with no cached data form a tail out to "
            "one-two days; worst case stays within about two days"
        ),
        verdict=_fig4_verdict,
    )
)


# ---------------------------------------------------------------------------
# Figure 5 — delayed scheduling for different period delays
# ---------------------------------------------------------------------------


def _fig5_build(scale: Scale) -> List[RunSpec]:
    loads = _loads(scale, [1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.4, 2.6])
    base = _base(scale, cache_bytes=100 * _GB)
    if scale is Scale.SMOKE:
        # The 1-week delay needs several periods to measure at all.
        base = base.with_(duration=12 * units.DAY)
    specs: List[RunSpec] = []
    for delay, name in (
        (11 * units.HOUR, "11h"),
        (2 * units.DAY, "2days"),
        (1 * units.WEEK, "1week"),
    ):
        specs += load_sweep(
            base,
            "delayed",
            loads,
            label=f"delayed-{name}",
            period=delay,
            stripe_events=5000,
        )
    specs += load_sweep(base, "out-of-order", loads, label="out-of-order")
    return specs


def _fig5_verdict(sweep: SweepResult, scale: Scale) -> List[str]:
    sustained = sweep.max_sustained_load()
    speedups = sweep.series("speedup")
    # Out-of-order wins on low-load speedup over every delayed variant
    # that produced steady-state points at this scale.
    ooo = _at_lowest_load(speedups, "out-of-order")
    compared = [
        label
        for label in ("delayed-11h", "delayed-2days", "delayed-1week")
        if speedups.get(label)
    ]
    checks = [
        (bool(compared), "a delayed curve has a steady point to compare"),
    ]
    for label in compared:
        delayed = _at_lowest_load(speedups, label)
        checks.append((
            delayed < ooo,
            f"{label} speedup below out-of-order's at the lowest load: "
            f"{delayed:.2f} vs {ooo:.2f}",
        ))
    # ...but delayed sustains at least as much load, growing with delay.
    # (The 1-week period needs a quick/full horizon to fit several
    # periods, so the sustainability ordering is only claimed there.)
    if scale is not Scale.SMOKE:
        week = sustained["delayed-1week"]
        for label in ("delayed-11h", "out-of-order"):
            checks.append((
                week >= sustained[label],
                f"delayed-1week sustains at least {label}: "
                f"{week:.2f} vs {sustained[label]:.2f} jobs/h",
            ))
    return failed_claims(*checks)


register_experiment(
    Experiment(
        exp_id="fig5",
        title="Delayed scheduling for different period delays",
        paper_ref="Figure 5",
        build=_fig5_build,
        render=lambda sweep: _speedup_and_wait(
            sweep, wait_metric="waiting_excl_delay", title="Fig 5"
        ),
        expectation=(
            "delayed scheduling has lower speedup and higher (delay-excluded) "
            "waiting time than out-of-order, but sustains markedly higher "
            "loads, increasing with the period delay"
        ),
        verdict=_fig5_verdict,
    )
)


# ---------------------------------------------------------------------------
# Figure 6 — delayed scheduling for different stripe sizes
# ---------------------------------------------------------------------------


def _fig6_build(scale: Scale) -> List[RunSpec]:
    loads = _loads(scale, [0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.4])
    base = _base(scale, cache_bytes=100 * _GB)
    specs: List[RunSpec] = []
    for stripe, name in ((200, "200"), (1000, "1K"), (5000, "5K"), (25000, "25K")):
        specs += load_sweep(
            base,
            "delayed",
            loads,
            label=f"stripe-{name}",
            period=2 * units.DAY,
            stripe_events=stripe,
        )
    return specs


def _fig6_verdict(sweep: SweepResult, scale: Scale) -> List[str]:
    speedups = sweep.series("speedup")
    waits = sweep.series("waiting_excl_delay")
    s200, s1k, s5k, s25k = (
        _at_lowest_load(speedups, f"stripe-{name}")
        for name in ("200", "1K", "5K", "25K")
    )
    # Waiting time (delay excluded) barely moves with stripe size: all
    # curves within a few hours of each other at the lowest load.
    first_waits = [points[0][1] for points in waits.values() if points]
    spread = max(first_waits) - min(first_waits) if first_waits else math.nan
    return failed_claims(
        # Monotone: smaller stripes -> higher speedup.
        (s200 > s5k, f"stripe-200 speedup beats stripe-5K: {s200:.2f} vs {s5k:.2f}"),
        (s1k > s25k, f"stripe-1K speedup beats stripe-25K: {s1k:.2f} vs {s25k:.2f}"),
        (spread < 8 * units.HOUR,
         f"lowest-load waits within 8 h of each other: spread "
         f"{units.fmt_duration(spread)}"),
    )


register_experiment(
    Experiment(
        exp_id="fig6",
        title="Delayed scheduling for different stripe sizes",
        paper_ref="Figure 6",
        build=_fig6_build,
        render=lambda sweep: _speedup_and_wait(
            sweep, wait_metric="waiting_excl_delay", title="Fig 6"
        ),
        expectation=(
            "smaller stripes clearly improve speedup (better parallelisation) "
            "with no visible influence on the average waiting time; larger "
            "sustainable load with smaller stripes"
        ),
        verdict=_fig6_verdict,
    )
)


# ---------------------------------------------------------------------------
# Figure 7 — adaptive delay vs out-of-order
# ---------------------------------------------------------------------------


def _fig7_build(scale: Scale) -> List[RunSpec]:
    loads = _loads(scale, [0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.25, 2.5])
    base = _base(scale, cache_bytes=100 * _GB)
    specs: List[RunSpec] = []
    for stripe, name in ((200, "200"), (5000, "5K")):
        specs += load_sweep(
            base,
            "adaptive",
            loads,
            label=f"adaptive-{name}",
            stripe_events=stripe,
        )
    specs += load_sweep(base, "out-of-order", loads, label="out-of-order")
    return specs


def _fig7_verdict(sweep: SweepResult, scale: Scale) -> List[str]:
    sustained = sweep.max_sustained_load()
    speedups = sweep.series("speedup")
    waits = sweep.series("waiting")
    best_adaptive = max(sustained["adaptive-200"], sustained["adaptive-5K"])
    ooo = _at_lowest_load(speedups, "out-of-order")
    adaptive = _at_lowest_load(speedups, "adaptive-200")
    # §6: the adaptive waiting-time overhead at low load is small against
    # the 9 h single-node job time (paper: "up to 1 h").
    overhead = _at_lowest_load(waits, "adaptive-200") - _at_lowest_load(
        waits, "out-of-order"
    )
    return failed_claims(
        (best_adaptive >= sustained["out-of-order"],
         f"adaptive sustains at least out-of-order: {best_adaptive:.2f} vs "
         f"{sustained['out-of-order']:.2f} jobs/h"),
        (adaptive > 0.5 * ooo,
         f"adaptive-200 speedup > 0.5x out-of-order's at the lowest load: "
         f"{adaptive:.2f} vs {ooo:.2f}"),
        (overhead < 2 * units.HOUR,
         f"adaptive-200 waits < 2 h longer than out-of-order at the lowest "
         f"load: {units.fmt_duration(overhead)}"),
    )


register_experiment(
    Experiment(
        exp_id="fig7",
        title="Adaptive delay scheduling vs out-of-order",
        paper_ref="Figure 7",
        build=_fig7_build,
        render=lambda sweep: _speedup_and_wait(sweep, title="Fig 7"),
        expectation=(
            "adaptive delay sustains loads out-of-order cannot; at low loads "
            "the delay is zero and speedup matches or slightly exceeds "
            "out-of-order for small stripes, at the cost of a small (< ~1 h) "
            "waiting-time overhead — negligible against the 9 h job time"
        ),
        verdict=_fig7_verdict,
    )
)


# ---------------------------------------------------------------------------
# §4.2 — data replication brings no improvement
# ---------------------------------------------------------------------------


def _repl_build(scale: Scale) -> List[RunSpec]:
    loads = _loads(scale, [1.0, 1.2, 1.4, 1.6, 1.8, 2.0])
    base = _base(scale, cache_bytes=100 * _GB)
    specs: List[RunSpec] = []
    specs += load_sweep(base, "out-of-order", loads, label="ooo")
    specs += load_sweep(base, "replication", loads, label="ooo+replication")
    specs += load_sweep(
        base,
        "replication",
        loads,
        label="ooo+remote-reads-only",
        replication_enabled=False,
    )
    return specs


def _repl_render(sweep: SweepResult) -> str:
    parts = [_speedup_and_wait(sweep, title="§4.2 replication study")]
    rows = []
    for spec, result in sweep.pairs():
        stats = result.policy_stats
        arrivals = max(result.jobs_arrived, 1)
        rows.append(
            [
                spec.label,
                f"{result.load_per_hour:.2f}",
                int(stats.get("replication_events", 0)),
                f"{1000.0 * stats.get('replication_events', 0) / arrivals:.2f}",
                int(stats.get("remote_chunks", 0)),
                int(stats.get("steals", 0)),
            ]
        )
    parts.append("")
    parts.append(
        format_table(
            ["curve", "load", "replications", "repl. per mille of arrivals",
             "remote chunks", "steals"],
            rows,
            title="Replication usage (paper: replication used in <1 ‰ of arrivals)",
        )
    )
    return "\n".join(parts)


def _repl_verdict(sweep: SweepResult, scale: Scale) -> List[str]:
    speedups = sweep.series("speedup")
    with_repl = dict(speedups["ooo+replication"])
    without = dict(speedups["ooo+remote-reads-only"])
    common = sorted(set(with_repl) & set(without))
    # with-replication ≈ remote-reads-only at every common load.
    checks = [(bool(common), "the two replication curves share a steady load")]
    for load in common:
        checks.append((
            _close(with_repl[load], without[load], rel=0.25),
            f"with and without replication within 25% at {load:.2f} jobs/h: "
            f"speedup {with_repl[load]:.2f} vs {without[load]:.2f}",
        ))
    # Replication moves only a small fraction of the data ever processed
    # (the paper reports it firing for <1 per mille of arrivals at full
    # scale; our remote-read planner is more eager, so the claim is on
    # data volume, which is the cost that matters).
    for spec, result in sweep.pairs():
        if spec.label != "ooo+replication":
            continue
        replicated = result.policy_stats.get("replicated_events", 0.0)
        processed = max(sum(result.events_by_source.values()), 1)
        fraction = replicated / processed
        checks.append((
            fraction < 0.10,
            f"replication moves < 10% of the processed events at "
            f"{result.load_per_hour:.2f} jobs/h: {fraction:.1%}",
        ))
    return failed_claims(*checks)


register_experiment(
    Experiment(
        exp_id="repl",
        title="Out-of-order scheduling with and without data replication",
        paper_ref="§4.2 (in-text)",
        build=_repl_build,
        render=_repl_render,
        expectation=(
            "replication and no-replication curves coincide; replication is "
            "exercised in under 1 per mille of job arrivals because splitting "
            "already spreads large segments across many nodes"
        ),
        verdict=_repl_verdict,
    )
)


# ---------------------------------------------------------------------------
# §5.2 — maximal sustainable load of delayed scheduling
# ---------------------------------------------------------------------------


def _maxload_build(scale: Scale) -> List[RunSpec]:
    durations = {
        Scale.SMOKE: 12 * units.DAY,
        Scale.QUICK: 30 * units.DAY,
        Scale.FULL: 70 * units.DAY,
    }
    # The paper's extreme uses a 1-week period; at smoke scale that would
    # leave no measurable periods, so the delay shrinks with the horizon.
    delay = 1 * units.WEEK if scale is not Scale.SMOKE else 2 * units.DAY
    base = paper_config(duration=durations[scale], seed=SEED)
    specs: List[RunSpec] = []
    farm_loads = _loads(scale, [1.0, 1.05, 1.1, 1.15, 1.2])
    specs += load_sweep(base, "farm", farm_loads, label="farm")
    delayed_loads = _loads(scale, [2.6, 2.8, 3.0, 3.2, 3.4])
    specs += load_sweep(
        base.with_(cache_bytes=200 * _GB),
        "delayed",
        delayed_loads,
        label="delayed-extreme",
        period=delay,
        stripe_events=200,
    )
    # Burst-drain variant: the batch's jobs are processed (nearly) one at
    # a time (job_window=1).  Table 4 does not specify the drain
    # discipline; this one recovers the paper's "average speedup of more
    # than 10" at 3 jobs/hour (see EXPERIMENTS.md §5.2).
    specs += load_sweep(
        base.with_(cache_bytes=200 * _GB),
        "delayed",
        delayed_loads,
        label="delayed-extreme-burst",
        period=delay,
        stripe_events=200,
        job_window=1,
    )
    return specs


def _maxload_render(sweep: SweepResult) -> str:
    limits = theoretical_limits(sweep.specs[0].config)
    sustained = sweep.max_sustained_load()
    speedups = sweep.series("speedup")
    rows = [
        ["theoretical maximum (all cached, all CPUs busy)",
         f"{limits.max_load_per_hour:.2f}", "—"],
        ["theoretical farm ceiling (no cache)",
         f"{limits.farm_max_load_per_hour:.2f}", "—"],
    ]
    for label, max_load in sorted(sustained.items()):
        points = speedups.get(label, [])
        at_max = [s for load, s in points if load == max_load]
        rows.append(
            [f"measured: {label}", f"{max_load:.2f}",
             f"{at_max[0]:.1f}" if at_max else "—"]
        )
    return format_table(
        ["system", "max sustained load (jobs/h)", "speedup at max"],
        rows,
        title="§5.2 — maximal sustainable load (paper: ~3.0 jobs/h with "
        "speedup >10, vs 3.46 theoretical and ~1.1 for the farm)",
    )


def _maxload_verdict(sweep: SweepResult, scale: Scale) -> List[str]:
    sustained = sweep.max_sustained_load()
    limits = theoretical_limits(sweep.specs[0].config)
    farm_max = sustained["farm"]
    delayed_max = sustained["delayed-extreme"]
    burst_max = sustained["delayed-extreme-burst"]
    optimum = limits.max_load_per_hour
    # The farm saturates near its theoretical 1.125 jobs/h ceiling.  A run
    # slightly past the ceiling needs a long horizon before the queue
    # growth dominates the M/Er/m variance, so shorter scales get slack.
    slack = 1.05 if scale is Scale.FULL else 1.15
    checks = [
        (farm_max <= limits.farm_max_load_per_hour * slack,
         f"farm sustains <= {slack:g}x its {limits.farm_max_load_per_hour:.3f} "
         f"jobs/h ceiling: {farm_max:.2f}"),
        # The delayed extreme approaches the global optimum...
        (delayed_max >= 0.75 * optimum,
         f"delayed-extreme sustains >= 0.75x the {optimum:.2f} jobs/h "
         f"optimum: {delayed_max:.2f}"),
        # ...and clearly beats the farm by the paper's ~3x.
        (delayed_max >= 2.3 * farm_max,
         f"delayed-extreme sustains >= 2.3x the farm: {delayed_max:.2f} vs "
         f"{farm_max:.2f} jobs/h"),
        # The burst-drain variant sustains the same extreme loads and
        # delivers the paper's "average speedup of more than 10" there.
        (burst_max >= 0.75 * optimum,
         f"delayed-extreme-burst sustains >= 0.75x the {optimum:.2f} jobs/h "
         f"optimum: {burst_max:.2f}"),
    ]
    burst_speedups = [s for _, s in sweep.series("speedup")["delayed-extreme-burst"]]
    if burst_speedups:
        checks.append((
            max(burst_speedups) > 10.0,
            f"delayed-extreme-burst speedup > 10: {max(burst_speedups):.2f}",
        ))
    return failed_claims(*checks)


register_experiment(
    Experiment(
        exp_id="maxload",
        title="Maximal sustainable load: delayed extremes vs theory vs farm",
        paper_ref="§5.2 (in-text)",
        build=_maxload_build,
        render=_maxload_render,
        expectation=(
            "delayed scheduling with 200 GB caches, 1 week delay and stripe "
            "200 sustains ≈3 jobs/hour with average speedup above 10 — close "
            "to the 3.46 theoretical maximum and ≈3x the farm's ≈1.1"
        ),
        verdict=_maxload_verdict,
    )
)


# ---------------------------------------------------------------------------
# §3.1 — the farm behaves as an M/Er/m queue
# ---------------------------------------------------------------------------


def _farmq_build(scale: Scale) -> List[RunSpec]:
    loads = _loads(scale, [0.6, 0.7, 0.8, 0.9, 1.0])
    base = _base(scale)
    return load_sweep(base, "farm", loads, label="farm")


def _farm_prediction(config: SimulationConfig) -> QueueingPrediction:
    return merlang_wait(
        servers=config.n_nodes,
        arrival_rate=units.per_hour(config.arrival_rate_per_hour),
        mean_service=config.mean_service_time_uncached,
        erlang_shape=config.erlang_shape,
    )


def _farmq_render(sweep: SweepResult) -> str:
    rows = []
    for spec, result in sweep.pairs():
        config = spec.config
        prediction = _farm_prediction(config)
        measured = result.measured.mean_waiting
        rows.append(
            [
                f"{config.arrival_rate_per_hour:.2f}",
                f"{prediction.utilization:.3f}",
                units.fmt_duration(prediction.mean_wait),
                units.fmt_duration(measured),
                "overloaded" if result.overload.overloaded else "steady",
            ]
        )
    return format_table(
        ["load (jobs/h)", "rho", "M/Er/10 predicted wait", "simulated wait",
         "state"],
        rows,
        title="§3.1 — processing farm vs the M/Er/m analytic model "
        "(Allen–Cunneen approximation)",
    )


def _farmq_verdict(sweep: SweepResult, scale: Scale) -> List[str]:
    checks: List[Tuple[bool, str]] = []
    for spec, result in sweep.pairs():
        if result.overload.overloaded:
            continue
        load = spec.config.arrival_rate_per_hour
        predicted = _farm_prediction(spec.config).mean_wait
        measured = result.measured.mean_waiting
        if predicted < 5 * units.MINUTE:
            # Both tiny: the simulated wait need only be tiny too.
            checks.append((
                measured < 30 * units.MINUTE,
                f"simulated wait < 30 mn where M/Er/m predicts < 5 mn at "
                f"{load:.2f} jobs/h: {units.fmt_duration(measured)}",
            ))
        else:
            checks.append((
                _close(measured, predicted, rel=0.6),
                f"simulated wait within 60% of M/Er/m at {load:.2f} jobs/h: "
                f"{units.fmt_duration(measured)} vs "
                f"{units.fmt_duration(predicted)}",
            ))
    checks.append((
        len(checks) >= 2, f"at least 2 steady loads checked: {len(checks)}"
    ))
    return failed_claims(*checks)


register_experiment(
    Experiment(
        exp_id="farmq",
        title="Processing farm vs M/Er/m queueing theory",
        paper_ref="§3.1 (in-text)",
        build=_farmq_build,
        render=_farmq_render,
        expectation=(
            "the simulated farm's mean waiting time tracks the M/Er/m "
            "prediction across utilisations"
        ),
        verdict=_farmq_verdict,
    )
)


# ---------------------------------------------------------------------------
# §2.4 — 5 / 10 / 20 nodes give similar results
# ---------------------------------------------------------------------------


def _nodes_build(scale: Scale) -> List[RunSpec]:
    base = _base(scale, cache_bytes=100 * _GB)
    # Per-node load sustainable even with cold caches (0.1 jobs/h/node x
    # 40k events x 0.8 s = 3200 s of uncached work per node-hour), so the
    # invariance claim is not confounded by cache-coverage differences.
    per_node_load = 0.08
    specs: List[RunSpec] = []
    for n_nodes in (5, 10, 20):
        config = base.with_(
            n_nodes=n_nodes, arrival_rate_per_hour=per_node_load * n_nodes
        )
        specs.append(
            RunSpec.make(config, "out-of-order", label=f"ooo-{n_nodes}nodes")
        )
        specs.append(
            RunSpec.make(
                config, "cache-splitting", label=f"cache-{n_nodes}nodes"
            )
        )
    return specs


def _nodes_render(sweep: SweepResult) -> str:
    rows = []
    for spec, result in sweep.pairs():
        config = spec.config
        rows.append(
            [
                spec.label,
                config.n_nodes,
                f"{config.arrival_rate_per_hour:.2f}",
                f"{result.measured.mean_speedup / config.n_nodes:.3f}",
                units.fmt_duration(result.measured.mean_waiting),
                "overloaded" if result.overload.overloaded else "steady",
            ]
        )
    return format_table(
        ["curve", "nodes", "load (jobs/h)", "speedup per node", "mean wait",
         "state"],
        rows,
        title="§2.4 — cluster-size invariance at equal per-node load "
        "(paper: 5 and 20 node simulations 'lead to similar results')",
    )


def _nodes_verdict(sweep: SweepResult, scale: Scale) -> List[str]:
    by_label = {spec.label: result for spec, result in sweep.pairs()}
    checks: List[Tuple[bool, str]] = []
    for policy in ("ooo", "cache"):
        per_node: Dict[int, float] = {}
        for n_nodes in (5, 10, 20):
            result = by_label[f"{policy}-{n_nodes}nodes"]
            # Smoke runs are too short to tell a steady queue apart.
            if scale is not Scale.SMOKE:
                checks.append((
                    not result.overload.overloaded,
                    f"{policy}-{n_nodes}nodes is not overloaded",
                ))
            per_node[n_nodes] = result.measured.mean_speedup / result.config.n_nodes
        # Normalised speedups within a ~2.5x band across cluster sizes
        # (the paper reports "similar results" without quantifying).
        values = ", ".join(f"{n}: {v:.3f}" for n, v in per_node.items())
        checks.append((
            max(per_node.values()) < 2.5 * min(per_node.values()),
            f"{policy} speedup per node within 2.5x across cluster sizes: {values}",
        ))
    return failed_claims(*checks)


register_experiment(
    Experiment(
        exp_id="nodes",
        title="Cluster-size invariance (5/10/20 nodes)",
        paper_ref="§2.4 (in-text)",
        build=_nodes_build,
        render=_nodes_render,
        expectation=(
            "normalised performance (speedup per node, waiting time) is "
            "similar across 5, 10 and 20 nodes at equal per-node load"
        ),
        verdict=_nodes_verdict,
    )
)
