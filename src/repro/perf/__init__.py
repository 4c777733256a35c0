"""Benchmark-regression harness (``repro bench``).

Public surface:

* :func:`run_kernel_bench` / :func:`run_scale_bench` — produce
  :class:`BenchReport` s for the simulator's hot paths and for whole
  runs: every policy, the tiered grid and the 10/100/1000-node scale
  tier, each point in a fresh spawned child (see docs/SCALING.md);
* :class:`BenchReport` / :class:`BenchRecord` — the stable
  ``BENCH_*.json`` schema (wall time, work, throughput, git SHA, peak
  RSS; ``scale`` records carry per-run ``rss_kb``);
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
from .bench import (
    bench_cache_lru,
    bench_engine_cancel_churn,
    bench_engine_dispatch,
    bench_interval_ops,
    bench_intervalset_ops,
    bench_net_channel,
    run_kernel_bench,
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
    SCHEMA_VERSION,
    BenchRecord,
    BenchReport,
    render_report,
    report_filename,
)

__all__ = [
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
    "bench_cache_lru",
    "bench_engine_cancel_churn",
    "bench_engine_dispatch",
    "bench_interval_ops",
    "bench_intervalset_ops",
    "bench_net_channel",
    "bench_point",
    "bench_points",
    "compare_reports",
    "load_baseline",
    "render_report",
    "report_filename",
    "run_kernel_bench",
    "run_scale_bench",
    "scale_config",
    "scale_point",
]
