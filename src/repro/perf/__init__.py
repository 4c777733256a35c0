"""Benchmark-regression harness (``repro bench``).

Public surface:

* :func:`run_scale_bench` — one :class:`BenchReport` of whole runs:
  every policy, the tiered grid and the 10/100/1000-node scale tier,
  each point in a fresh spawned child (see docs/SCALING.md);
* :class:`BenchReport` / :class:`BenchRecord` — the stable
  ``BENCH_scale.json`` schema (wall time, work, throughput, git SHA,
  peak RSS, per-run ``rss_kb``);
* :func:`compare_reports` / :func:`load_baseline` — committed-baseline
  regression checking with configurable slowdown and peak-RSS
  thresholds.

For profiles, use the repository benchmark: ``python bench/run.py
--trace 1`` splits a run's self time across layers.  See
docs/PERFORMANCE.md for how these pieces fit together.
"""

from .baseline import (
    DEFAULT_RSS_THRESHOLD,
    DEFAULT_THRESHOLD,
    ComparisonResult,
    RecordComparison,
    compare_reports,
    load_baseline,
)
from .scale import (
    QUICK_SCALE_SIZES,
    SCALE_SIZES,
    BenchPoint,
    bench_point,
    bench_points,
    run_scale_bench,
    scale_config,
    scale_point,
)
from .report import (
    REPORT_FILENAME,
    SCHEMA_VERSION,
    BenchRecord,
    BenchReport,
    render_report,
)

__all__ = [
    "REPORT_FILENAME",
    "SCHEMA_VERSION",
    "DEFAULT_RSS_THRESHOLD",
    "DEFAULT_THRESHOLD",
    "QUICK_SCALE_SIZES",
    "SCALE_SIZES",
    "BenchPoint",
    "BenchRecord",
    "BenchReport",
    "ComparisonResult",
    "RecordComparison",
    "bench_point",
    "bench_points",
    "compare_reports",
    "load_baseline",
    "render_report",
    "run_scale_bench",
    "scale_config",
    "scale_point",
]
