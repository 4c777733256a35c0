"""Extension experiments beyond the paper's own evaluation.

* ``fairness`` — quantifies the fairness the paper discusses only
  qualitatively: Jain index / slowdown tail / Gini / overtake fraction for
  every policy at a common moderate load.
* ``ablate-network`` — re-runs the §4.2 replication comparison with a
  *contended* network and owner disks, stress-testing the paper's
  implicit free-remote-read assumption.

Each carries its claim as a verdict beside its build and render.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..analysis.fairness import FairnessReport, fairness_report
from ..analysis.tables import format_table
from ..core import units
from ..sim.runner import RunSpec, SweepResult
from .figures import _base
from .registry import Experiment, Scale, failed_claims, register_experiment


# ---------------------------------------------------------------------------
# Fairness quantification
# ---------------------------------------------------------------------------


def _fairness_build(scale: Scale) -> List[RunSpec]:
    base = _base(scale, cache_bytes=100 * units.GB, arrival_rate_per_hour=1.4)
    specs = [
        RunSpec.make(base, "farm", label="farm"),
        RunSpec.make(base, "splitting", label="splitting"),
        RunSpec.make(base, "cache-splitting", label="cache-splitting"),
        RunSpec.make(base, "out-of-order", label="out-of-order"),
        RunSpec.make(
            base, "delayed", label="delayed-2d",
            period=2 * units.DAY, stripe_events=5000,
        ),
        RunSpec.make(base, "adaptive", label="adaptive", stripe_events=5000),
    ]
    return specs


def _fairness_reports(sweep: SweepResult) -> Dict[str, FairnessReport]:
    """Each policy's fairness over the jobs that arrived after warm-up."""
    reports: Dict[str, FairnessReport] = {}
    for spec, result in sweep.pairs():
        warmup = spec.config.warmup_time
        records = [r for r in result.records if r.arrival_time >= warmup]
        reports[spec.label] = fairness_report(records)
    return reports


def _fairness_render(sweep: SweepResult) -> str:
    headers = [
        "policy", "Jain(slowdown)", "mean slowdn", "p95 slowdn",
        "max slowdn", "Gini(wait)", "overtaken(start)", "overtaken(done)",
    ]
    rows = []
    for label, report in _fairness_reports(sweep).items():
        rows.append(
            [
                label,
                f"{report.jain_index_slowdown:.3f}",
                f"{report.mean_slowdown:.2f}",
                f"{report.p95_slowdown:.2f}",
                f"{report.max_slowdown:.2f}",
                f"{report.gini_waiting:.3f}",
                f"{report.start_overtake_fraction:.1%}",
                f"{report.overtake_fraction:.1%}",
            ]
        )
    return format_table(
        headers,
        rows,
        title="Fairness at 1.4 jobs/h — quantifying the FCFS-vs-out-of-order"
        " trade the paper discusses qualitatively (overtaken = fraction of"
        " arrival-ordered pairs finishing out of order)",
    )


def _fairness_verdict(sweep: SweepResult, scale: Scale) -> List[str]:
    reports = _fairness_reports(sweep)
    farm = reports["farm"].start_overtake_fraction
    ooo = reports["out-of-order"].start_overtake_fraction
    delayed_p95 = reports["delayed-2d"].p95_slowdown
    ooo_p95 = reports["out-of-order"].p95_slowdown
    return failed_claims(
        # The farm *starts* jobs strictly first-come-first-served; the
        # out-of-order policy reorders starts by cache affinity (start-order
        # inversions isolate scheduling from service-time variance).
        (farm < 0.01, f"farm overtakes < 1% of starts: {farm:.2%}"),
        (ooo >= farm,
         f"out-of-order overtakes at least as many starts as farm: "
         f"{ooo:.2%} vs {farm:.2%}"),
        # Delayed scheduling has the worst slowdown tail (the paper's "no
        # fairness").
        (delayed_p95 > ooo_p95,
         f"delayed-2d p95 slowdown above out-of-order's: {delayed_p95:.2f} "
         f"vs {ooo_p95:.2f}"),
    )


register_experiment(
    Experiment(
        exp_id="fairness",
        title="Fairness quantification across policies",
        paper_ref="§3 principles / §4.1 / §5 (qualitative in the paper)",
        build=_fairness_build,
        render=_fairness_render,
        expectation=(
            "FCFS policies (farm, splitting, cache-splitting) complete "
            "nearly in arrival order; out-of-order raises the overtake "
            "fraction but its fairness valve caps the slowdown tail; "
            "delayed scheduling has the worst slowdown tail (no fairness)"
        ),
        verdict=_fairness_verdict,
    )
)


# ---------------------------------------------------------------------------
# Network/disk contention stress of the §4.2 conclusion
# ---------------------------------------------------------------------------


def _network_build(scale: Scale) -> List[RunSpec]:
    base = _base(scale, cache_bytes=100 * units.GB)
    specs: List[RunSpec] = []
    for load in (1.4, 1.8):
        config = base.with_(arrival_rate_per_hour=load)
        specs.append(RunSpec.make(config, "out-of-order", label="ooo"))
        specs.append(
            RunSpec.make(config, "replication", label="repl-free-network")
        )
        specs.append(
            RunSpec.make(
                config,
                "replication",
                label="repl-contended",
                network_contention=True,
                link_capacity_streams=2,
            )
        )
    return specs


def _network_render(sweep: SweepResult) -> str:
    rows = []
    for spec, result in sweep.pairs():
        stats = result.policy_stats
        rows.append(
            [
                spec.label,
                f"{result.load_per_hour:.1f}",
                f"{result.measured.mean_speedup:.2f}",
                units.fmt_duration(result.measured.mean_waiting),
                int(stats.get("remote_chunks", 0)),
                int(stats.get("replication_events", 0)),
                "overloaded" if result.overload.overloaded else "steady",
            ]
        )
    return format_table(
        ["variant", "load", "speedup", "mean wait", "remote chunks",
         "replications", "state"],
        rows,
        title="Remote reads under a contended backbone (link capacity 2 "
        "full-rate streams, shared owner disks) vs the paper's free-"
        "network assumption",
    )


def _network_verdict(sweep: SweepResult, scale: Scale) -> List[str]:
    by_key = {
        (spec.label, round(result.load_per_hour, 1)): result
        for spec, result in sweep.pairs()
    }
    checks: List[Tuple[bool, str]] = []
    for load in (1.4, 1.8):
        free, contended, ooo = (
            by_key[(label, load)]
            for label in ("repl-free-network", "repl-contended", "ooo")
        )
        if free.overload.overloaded or contended.overload.overloaded:
            continue
        free_speedup, contended_speedup, ooo_speedup = (
            result.measured.mean_speedup for result in (free, contended, ooo)
        )
        # Contention costs something but does not flip the §4.2 story:
        # the remote-read variant stays within a band of plain
        # out-of-order either way.
        checks += [
            (contended_speedup >= 0.55 * free_speedup,
             f"repl-contended speedup >= 0.55x repl-free-network at {load} "
             f"jobs/h: {contended_speedup:.2f} vs {free_speedup:.2f}"),
            (contended_speedup >= 0.5 * ooo_speedup,
             f"repl-contended speedup >= 0.5x ooo at {load} jobs/h: "
             f"{contended_speedup:.2f} vs {ooo_speedup:.2f}"),
        ]
    return failed_claims(*checks)


register_experiment(
    Experiment(
        exp_id="ablate-network",
        title="Remote-read pricing: free vs contended network",
        paper_ref="§4.2 (stress of the implicit assumption)",
        build=_network_build,
        render=_network_render,
        expectation=(
            "the replication-vs-no-replication equivalence is robust: even "
            "with a contended backbone, remote reads remain far cheaper "
            "than tertiary reads, so the comparison barely moves"
        ),
        verdict=_network_verdict,
    )
)

