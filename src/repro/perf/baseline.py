"""Committed-baseline comparison: fail CI on throughput regressions.

The repository commits ``BENCH_kernel.json`` and ``BENCH_scale.json``
at its root.  A fresh benchmark run is compared record-by-record
(matched by name) against those files: a record **regresses** when

    baseline_throughput / current_throughput > threshold

i.e. the threshold is the tolerated slowdown factor.  Records carrying a
peak-RSS measurement (``rss_kb``, every ``scale`` record) are
additionally gated on memory: ``current_rss / baseline_rss >
rss_threshold`` regresses too.  Records present on only one side are
reported but never fail the comparison — quick CI runs deliberately
execute a subset of the committed full baseline, and
``tests/test_perf.py`` checks that every record a quick run emits has a
committed entry, so none runs ungated.

>>> from .report import BenchRecord, BenchReport
>>> base = BenchReport(kind="kernel", records=(
...     BenchRecord("a", wall_seconds=1.0, work=100, unit="ops", repeats=1),))
>>> fast = BenchReport(kind="kernel", records=(
...     BenchRecord("a", wall_seconds=0.5, work=100, unit="ops", repeats=1),))
>>> slow = BenchReport(kind="kernel", records=(
...     BenchRecord("a", wall_seconds=9.0, work=100, unit="ops", repeats=1),))
>>> compare_reports(fast, base, threshold=2.0).regressed
False
>>> compare_reports(slow, base, threshold=2.0).regressed
True
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .report import BenchReport, report_filename

#: Default tolerated slowdown factor: generous enough for machine-to-
#: machine variance (CI runners vs developer laptops), tight enough to
#: catch a hot path going accidentally quadratic.  See
#: docs/PERFORMANCE.md for the policy behind this number.
DEFAULT_THRESHOLD = 2.0

#: Default tolerated peak-RSS growth factor for records that carry
#: ``rss_kb`` (the ``scale`` report).  Memory is far less noisy than
#: wall time across machines, but allocator and interpreter-version
#: variance is real; 2.0x still catches a per-job list sneaking back
#: into the metrics path (which grows RSS by an order of magnitude at
#: 1M jobs).
DEFAULT_RSS_THRESHOLD = 2.0


@dataclass(frozen=True)
class RecordComparison:
    """One record's current vs baseline throughput."""

    name: str
    baseline_throughput: float
    current_throughput: float
    threshold: float
    #: Peak-RSS ceiling check — engaged only when *both* sides measured
    #: ``rss_kb`` (the ``scale`` report); ``None`` on either side
    #: disables it.
    baseline_rss_kb: Optional[int] = None
    current_rss_kb: Optional[int] = None
    rss_threshold: float = DEFAULT_RSS_THRESHOLD

    @property
    def slowdown(self) -> float:
        """Baseline over current (> 1 means the code got slower)."""
        if self.current_throughput <= 0:
            return float("inf")
        return self.baseline_throughput / self.current_throughput

    @property
    def rss_growth(self) -> Optional[float]:
        """Current over baseline peak RSS, or ``None`` when unmeasured."""
        if self.baseline_rss_kb is None or self.current_rss_kb is None:
            return None
        if self.baseline_rss_kb <= 0:
            return float("inf") if self.current_rss_kb > 0 else 1.0
        return self.current_rss_kb / self.baseline_rss_kb

    @property
    def rss_regressed(self) -> bool:
        growth = self.rss_growth
        return growth is not None and growth > self.rss_threshold

    @property
    def regressed(self) -> bool:
        return self.slowdown > self.threshold or self.rss_regressed

    def describe(self) -> str:
        verdict = "REGRESSED" if self.regressed else "ok"
        line = (
            f"{self.name:<28} baseline {self.baseline_throughput:>14,.0f}/s  "
            f"current {self.current_throughput:>14,.0f}/s  "
            f"slowdown {self.slowdown:5.2f}x"
        )
        growth = self.rss_growth
        if growth is not None:
            line += f"  rss {growth:5.2f}x"
        return line + f"  [{verdict}]"


@dataclass(frozen=True)
class ComparisonResult:
    """The full comparison of one report against its baseline."""

    kind: str
    threshold: float
    compared: Tuple[RecordComparison, ...]
    only_current: Tuple[str, ...]
    only_baseline: Tuple[str, ...]

    @property
    def regressed(self) -> bool:
        return any(entry.regressed for entry in self.compared)

    def describe(self) -> str:
        lines: List[str] = [
            f"comparison vs committed baseline ({self.kind}, "
            f"threshold {self.threshold:.2f}x):"
        ]
        for entry in self.compared:
            lines.append("  " + entry.describe())
        if self.only_current:
            lines.append(
                "  (not in baseline: " + ", ".join(self.only_current) + ")"
            )
        if self.only_baseline:
            lines.append(
                "  (baseline-only, skipped: "
                + ", ".join(self.only_baseline)
                + ")"
            )
        return "\n".join(lines)


def compare_reports(
    current: BenchReport,
    baseline: BenchReport,
    threshold: float = DEFAULT_THRESHOLD,
    rss_threshold: float = DEFAULT_RSS_THRESHOLD,
) -> ComparisonResult:
    """Compare two reports record-by-record (matched by record name).

    Throughput is gated by ``threshold`` on every matched record; peak
    RSS is additionally gated by ``rss_threshold`` on records where both
    sides carry ``rss_kb`` (the ``scale`` report).
    """
    baseline_names = {entry.name for entry in baseline.records}
    current_names = {entry.name for entry in current.records}
    compared = tuple(
        RecordComparison(
            name=entry.name,
            baseline_throughput=base.throughput,
            current_throughput=entry.throughput,
            threshold=threshold,
            baseline_rss_kb=base.rss_kb,
            current_rss_kb=entry.rss_kb,
            rss_threshold=rss_threshold,
        )
        for entry in current.records
        for base in (baseline.record(entry.name),)
        if base is not None
    )
    return ComparisonResult(
        kind=current.kind,
        threshold=threshold,
        compared=compared,
        only_current=tuple(sorted(current_names - baseline_names)),
        only_baseline=tuple(sorted(baseline_names - current_names)),
    )


def load_baseline(directory: str, kind: str) -> Optional[BenchReport]:
    """The committed baseline report of ``kind`` in ``directory``, or
    ``None`` when the file does not exist."""
    path = os.path.join(directory, report_filename(kind))
    if not os.path.exists(path):
        return None
    return BenchReport.read(path)
