"""Analysis tools: closed-form bounds, queueing theory, histograms,
report rendering."""

from .batchmeans import BatchMeansEstimate, batch_means, speedup_ci, waiting_time_ci
from .fairness import (
    FairnessReport,
    fairness_report,
    gini,
    jain_index,
    overtake_fraction,
)
from .histogram import Histogram, HistogramBin, histogram, log_bin_edges, waiting_time_histogram
from .plots import ascii_plot
from .queueing import (
    QueueingPrediction,
    erlang_c,
    merlang_wait,
    mgc_wait_allen_cunneen,
    mmc_wait,
)
from .tables import format_histogram, format_series_table, format_table
from .theory import TheoreticalLimits, theoretical_limits

__all__ = [
    "BatchMeansEstimate",
    "batch_means",
    "waiting_time_ci",
    "speedup_ci",
    "FairnessReport",
    "fairness_report",
    "jain_index",
    "gini",
    "overtake_fraction",
    "TheoreticalLimits",
    "theoretical_limits",
    "erlang_c",
    "mmc_wait",
    "mgc_wait_allen_cunneen",
    "merlang_wait",
    "QueueingPrediction",
    "Histogram",
    "HistogramBin",
    "histogram",
    "log_bin_edges",
    "waiting_time_histogram",
    "format_table",
    "format_series_table",
    "format_histogram",
    "ascii_plot",
]
