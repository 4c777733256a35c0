"""Ablation experiments for the design choices DESIGN.md calls out.

These are not paper figures; they quantify the sensitivity of the
reproduction to our own modelling decisions (chunk granularity) and
explore the paper's §7 future-work ideas (pipelined transfer/compute,
mixed immediate/delayed scheduling) plus two parameters the paper fixes
without sweeping (minimal subjob size, fairness timeout).  Each carries
its claim as a verdict beside its build.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..analysis.tables import format_table
from ..core import units
from ..sim.runner import RunSpec, SweepResult
from ..sim.simulator import SimulationResult
from .figures import _base, _close
from .registry import Experiment, Scale, failed_claims, register_experiment


def _by_label(sweep: SweepResult) -> Dict[str, SimulationResult]:
    """Each variant's result (the last one where a label repeats)."""
    return {spec.label: result for spec, result in sweep.pairs()}


def _speedup(sweep: SweepResult) -> Dict[str, float]:
    return {
        label: result.measured.mean_speedup
        for label, result in _by_label(sweep).items()
    }


def _single_load_render(sweep: SweepResult, title: str) -> str:
    rows = []
    for spec, result in sweep.pairs():
        rows.append(
            [
                spec.label,
                f"{result.load_per_hour:.2f}",
                f"{result.measured.mean_speedup:.2f}",
                units.fmt_duration(result.measured.mean_waiting),
                f"{result.tertiary_redundancy:.2f}",
                f"{result.node_utilization:.2f}",
                "overloaded" if result.overload.overloaded else "steady",
            ]
        )
    return format_table(
        ["variant", "load", "speedup", "mean wait", "tape redundancy",
         "utilization", "state"],
        rows,
        title=title,
    )


# -- chunk granularity (our modelling knob) -----------------------------------


def _chunk_build(scale: Scale) -> List[RunSpec]:
    base = _base(scale, cache_bytes=100 * units.GB, arrival_rate_per_hour=1.5)
    return [
        RunSpec.make(
            base.with_(chunk_events=chunk),
            "out-of-order",
            label=f"chunk-{chunk}",
        )
        for chunk in (500, 1000, 2000, 4000, 8000)
    ]


def _chunk_verdict(sweep: SweepResult, scale: Scale) -> List[str]:
    # Chunk size is a modelling knob, not a result driver: all variants
    # within a modest band.
    speedups = _speedup(sweep)
    values = ", ".join(f"{label} {value:.2f}" for label, value in speedups.items())
    return failed_claims((
        max(speedups.values()) < 1.6 * min(speedups.values()),
        f"speedups within 1.6x across chunk sizes: {values}",
    ))


register_experiment(
    Experiment(
        exp_id="ablate-chunk",
        title="Sensitivity to execution/cache chunk granularity",
        paper_ref="DESIGN.md (modelling choice)",
        build=_chunk_build,
        render=lambda sweep: _single_load_render(
            sweep,
            "Chunk-granularity ablation (out-of-order @ 1.5 jobs/h): results "
            "should be stable across chunk sizes",
        ),
        expectation="speedup/waiting vary only weakly with chunk_events",
        verdict=_chunk_verdict,
    )
)


# -- pipelined I/O (paper §7 future work) ----------------------------------------


def _pipeline_build(scale: Scale) -> List[RunSpec]:
    specs: List[RunSpec] = []
    for pipelined in (False, True):
        base = _base(
            scale,
            cache_bytes=100 * units.GB,
            arrival_rate_per_hour=1.5,
            pipelined_io=pipelined,
        )
        tag = "pipelined" if pipelined else "sequential"
        for policy in ("out-of-order", "cache-splitting"):
            specs.append(RunSpec.make(base, policy, label=f"{policy}-{tag}"))
    return specs


def _pipeline_verdict(sweep: SweepResult, scale: Scale) -> List[str]:
    # Overlapping transfer and compute can only help.  The speedup
    # metric's reference time also drops (0.8 -> 0.6 s/event), so the
    # honest claim is on processing time, not the ratio.
    by_label = _by_label(sweep)
    checks: List[Tuple[bool, str]] = []
    for policy in ("out-of-order", "cache-splitting"):
        sequential = by_label[f"{policy}-sequential"].measured.mean_processing
        pipelined = by_label[f"{policy}-pipelined"].measured.mean_processing
        checks.append((
            pipelined < sequential,
            f"{policy} processes faster pipelined: "
            f"{units.fmt_duration(pipelined)} vs {units.fmt_duration(sequential)}",
        ))
    return failed_claims(*checks)


register_experiment(
    Experiment(
        exp_id="ablate-pipeline",
        title="Pipelining of processing and data transfers (§7 future work)",
        paper_ref="§7 (future work)",
        build=_pipeline_build,
        render=lambda sweep: _single_load_render(
            sweep,
            "Pipelined transfer/compute overlap @ 1.5 jobs/h: per-event cost "
            "drops from transfer+cpu to max(transfer, cpu)",
        ),
        expectation=(
            "pipelining improves speedup (cached events 0.26 s → 0.2 s, "
            "uncached 0.8 s → 0.6 s) and raises the sustainable load ceiling"
        ),
        verdict=_pipeline_verdict,
    )
)


# -- minimal subjob size -------------------------------------------------------------


def _minsize_build(scale: Scale) -> List[RunSpec]:
    base = _base(scale, cache_bytes=100 * units.GB, arrival_rate_per_hour=1.5)
    return [
        RunSpec.make(
            base.with_(min_subjob_events=minimum),
            "out-of-order",
            label=f"min-{minimum}",
        )
        for minimum in (10, 100, 1000)
    ]


def _minsize_verdict(sweep: SweepResult, scale: Scale) -> List[str]:
    # Small minima are equivalent; a 1000-event minimum still works.
    speedups = _speedup(sweep)
    small, medium, large = (speedups[f"min-{n}"] for n in (10, 100, 1000))
    return failed_claims(
        (_close(small, medium, rel=0.3),
         f"min-10 speedup within 30% of min-100: {small:.2f} vs {medium:.2f}"),
        (large > 1.0, f"min-1000 speedup > 1: {large:.2f}"),
    )


register_experiment(
    Experiment(
        exp_id="ablate-minsize",
        title="Sensitivity to the minimal subjob size",
        paper_ref="Tables 1-4 fix 10 events without sweeping",
        build=_minsize_build,
        render=lambda sweep: _single_load_render(
            sweep,
            "Minimal-subjob-size ablation (out-of-order @ 1.5 jobs/h)",
        ),
        expectation="results stable for small minima; very large minima "
        "reduce splitting opportunities and speedup",
        verdict=_minsize_verdict,
    )
)


# -- fairness timeout -----------------------------------------------------------------


def _fairness_build(scale: Scale) -> List[RunSpec]:
    base = _base(scale, cache_bytes=100 * units.GB, arrival_rate_per_hour=1.7)
    return [
        RunSpec.make(
            base,
            "out-of-order",
            label=f"timeout-{name}",
            fairness_timeout=timeout,
        )
        for timeout, name in (
            (12 * units.HOUR, "12h"),
            (2 * units.DAY, "2d"),
            (0.0, "off"),
        )
    ]


def _fairness_render(sweep: SweepResult) -> str:
    rows = []
    for spec, result in sweep.pairs():
        promos = result.policy_stats.get("fairness_promotions", 0.0)
        arrivals = max(result.jobs_arrived, 1)
        rows.append(
            [
                spec.label,
                f"{result.measured.mean_speedup:.2f}",
                units.fmt_duration(result.measured.mean_waiting),
                units.fmt_duration(result.measured.max_waiting),
                int(promos),
                f"{1000.0 * promos / arrivals:.2f}",
            ]
        )
    return format_table(
        ["variant", "speedup", "mean wait", "max wait", "promotions",
         "per mille of jobs"],
        rows,
        title="Fairness-timeout ablation (out-of-order @ 1.7 jobs/h; paper: "
        "promotions affect <0.5 ‰ of jobs with the 2-day timeout)",
    )


def _fairness_verdict(sweep: SweepResult, scale: Scale) -> List[str]:
    # The valve only exists for the tail: mean speedup barely moves.
    speedups = _speedup(sweep)
    on, off = speedups["timeout-2d"], speedups["timeout-off"]
    return failed_claims((
        _close(on, off, rel=0.35),
        f"timeout-2d speedup within 35% of timeout-off: {on:.2f} vs {off:.2f}",
    ))


register_experiment(
    Experiment(
        exp_id="ablate-fairness",
        title="Out-of-order fairness timeout",
        paper_ref="§4.1 (2-day timeout; <0.5 ‰ of jobs affected)",
        build=_fairness_build,
        render=_fairness_render,
        expectation=(
            "the 2-day timeout caps the worst-case wait with negligible "
            "promotion frequency; shorter timeouts trade throughput for tail "
            "latency"
        ),
        verdict=_fairness_verdict,
    )
)


# -- mixed immediate/delayed (paper §7 future work) -------------------------------------


def _mixed_build(scale: Scale) -> List[RunSpec]:
    base = _base(scale, cache_bytes=100 * units.GB)
    specs: List[RunSpec] = []
    for load in (1.0, 1.8, 2.2):
        config = base.with_(arrival_rate_per_hour=load)
        specs.append(
            RunSpec.make(
                config, "delayed", label="delayed-2d",
                period=2 * units.DAY, stripe_events=5000,
            )
        )
        specs.append(
            RunSpec.make(
                config, "mixed", label="mixed-2d",
                period=2 * units.DAY, stripe_events=5000,
            )
        )
        specs.append(RunSpec.make(config, "out-of-order", label="ooo"))
    return specs


def _mixed_verdict(sweep: SweepResult, scale: Scale) -> List[str]:
    # At the low load (the first triple), mixed waits less than pure
    # delayed.
    first: Dict[str, float] = {}
    for spec, result in sweep.pairs():
        first.setdefault(spec.label, result.measured.mean_waiting)
    mixed, delayed = first["mixed-2d"], first["delayed-2d"]
    return failed_claims((
        mixed < delayed,
        f"mixed-2d waits less than delayed-2d at the low load: "
        f"{units.fmt_duration(mixed)} vs {units.fmt_duration(delayed)}",
    ))


register_experiment(
    Experiment(
        exp_id="ablate-mixed",
        title="Mixed immediate/delayed scheduling (§7 future work)",
        paper_ref="§7 (future work)",
        build=_mixed_build,
        render=lambda sweep: _single_load_render(
            sweep,
            "Mixed policy: delayed batching, but idle nodes dispatch "
            "arrivals immediately",
        ),
        expectation=(
            "mixed matches delayed's sustainability while cutting its "
            "low-load waiting-time penalty"
        ),
        verdict=_mixed_verdict,
    )
)


# -- tertiary (tape) access latency ----------------------------------------------


def _tape_latency_build(scale: Scale) -> List[RunSpec]:
    base = _base(scale, cache_bytes=100 * units.GB, arrival_rate_per_hour=1.5)
    return [
        RunSpec.make(
            base.with_(tertiary_latency_s=latency),
            "out-of-order",
            label=f"latency-{int(latency)}s",
        )
        for latency in (0.0, 30.0, 120.0)
    ]


def _tape_latency_verdict(sweep: SweepResult, scale: Scale) -> List[str]:
    # Latency hurts monotonically but moderately (chunks stream minutes of
    # data, so the per-request setup amortises).
    speedups = _speedup(sweep)
    none, short, long = (speedups[f"latency-{n}s"] for n in (0, 30, 120))
    return failed_claims(
        (none >= short * 0.95,
         f"latency-0s speedup >= 0.95x latency-30s: {none:.2f} vs {short:.2f}"),
        (short >= long * 0.95,
         f"latency-30s speedup >= 0.95x latency-120s: {short:.2f} vs {long:.2f}"),
        (long > 0.4 * none,
         f"latency-120s speedup > 0.4x latency-0s: {long:.2f} vs {none:.2f}"),
    )


register_experiment(
    Experiment(
        exp_id="ablate-tape-latency",
        title="Sensitivity to tertiary-storage access latency",
        paper_ref="§2.4 assumes Castor's disk arrays hide tape latency",
        build=_tape_latency_build,
        render=lambda sweep: _single_load_render(
            sweep,
            "Tape-latency ablation (out-of-order @ 1.5 jobs/h): per-request "
            "setup latency added to every tertiary read",
        ),
        expectation=(
            "moderate per-request latencies degrade performance smoothly "
            "(each request streams ~minutes of data, so even 30 s setup "
            "adds only a few percent); the policy ranking is unchanged"
        ),
        verdict=_tape_latency_verdict,
    )
)


# -- hot-region skew ------------------------------------------------------------------


def _hotspot_build(scale: Scale) -> List[RunSpec]:
    base = _base(scale, cache_bytes=100 * units.GB, arrival_rate_per_hour=1.5)
    specs: List[RunSpec] = []
    for weight, name in ((0.0, "uniform"), (0.5, "paper"), (0.85, "extreme")):
        config = base.with_(hot_weight=weight)
        specs.append(
            RunSpec.make(config, "out-of-order", label=f"ooo-{name}")
        )
        specs.append(
            RunSpec.make(config, "cache-splitting", label=f"cache-{name}")
        )
    return specs


def _hotspot_verdict(sweep: SweepResult, scale: Scale) -> List[str]:
    # The affinity scheduler feeds on skew: more of the hot data is served
    # from the caches it deliberately routes to.  (FIFO cache-splitting
    # can transiently *increase* tape redundancy under extreme skew —
    # concurrent jobs re-fetch the same hot stripe before it lands in a
    # cache — so the clean monotone claim is made for out-of-order.)
    by_label = _by_label(sweep)
    uniform, extreme = by_label["ooo-uniform"], by_label["ooo-extreme"]
    hits = (extreme.cache_hit_fraction(), uniform.cache_hit_fraction())
    redundancy = (extreme.tertiary_redundancy, uniform.tertiary_redundancy)
    return failed_claims(
        (hits[0] >= hits[1] * 0.95,
         f"ooo-extreme cache hit fraction >= 0.95x ooo-uniform's: "
         f"{hits[0]:.3f} vs {hits[1]:.3f}"),
        (redundancy[0] <= redundancy[1] * 1.1,
         f"ooo-extreme tape redundancy <= 1.1x ooo-uniform's: "
         f"{redundancy[0]:.2f} vs {redundancy[1]:.2f}"),
    )


register_experiment(
    Experiment(
        exp_id="ablate-hotspot",
        title="Sensitivity to start-point skew (hot regions)",
        paper_ref="§2.4 (two hot regions: 10 % of space, 50 % of starts)",
        build=_hotspot_build,
        render=lambda sweep: _single_load_render(
            sweep,
            "Hot-region ablation @ 1.5 jobs/h: 0 % / 50 % (paper) / 85 % of "
            "starts in the hot regions",
        ),
        expectation=(
            "cache-aware policies feed on skew: speedup and sustainable "
            "load grow with the hot fraction (more reuse per cached byte); "
            "with a uniform distribution the caching gain shrinks toward "
            "the cache/data-space ratio"
        ),
        verdict=_hotspot_verdict,
    )
)
