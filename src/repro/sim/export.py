"""Export simulation results for external analysis.

Writes per-job records and backlog probes to CSV (spreadsheets, pandas,
gnuplot — the paper's plots were gnuplot) and full result summaries to
JSON.  Everything round-trips: ``load_records_csv`` reads back what
``write_records_csv`` wrote and ``load_result_json`` reads back what
``write_result_json`` wrote.  Summary JSON is stamped with
``schema_version`` so downstream tooling can detect incompatible files.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict
from pathlib import Path
from typing import List, Sequence, Union

from .metrics import BacklogSample, JobRecord
from .simulator import SimulationResult

PathLike = Union[str, Path]

#: Summary-JSON schema version.  Bump when keys are added, removed or
#: change meaning.  Version 2 added ``schema_version`` itself plus the
#: guarantee that ``policy_stats`` and ``events_by_source`` are present.
#: Version 3 added the ``faults`` object (``None`` on fault-free runs).
#: Version 4 added the ``sched`` control-plane accounting object.
#: Version 5 added the control-plane reliability counters (retransmits,
#: duplicates_dropped, timeouts, dead_letters, failovers) inside
#: ``sched``, all 0 on a perfect network.
#: Version 6 added the streaming-metrics fields: ``measured.exact``
#: (False once the run crossed the exact cap and percentiles come from
#: P² sketches), ``measured.std_waiting`` and the stretch statistics
#: (``mean_stretch``/``p95_stretch``/``max_stretch``), plus the
#: top-level ``records_dropped`` retention counter.
#: Version 7 added the ``topo`` object (``None`` on flat runs): per-tier
#: cache hit/miss/eviction counts, storage-cost integrals and
#: link-saturation counters of a hierarchical (repro.topo) run, and
#: allowed a ``tier`` key inside ``events_by_source``.
#: Sweep exports (``SweepResult.to_json``) stamp the same version.
SCHEMA_VERSION = 7

#: Keys every version-2 summary must carry.
_REQUIRED_SUMMARY_KEYS = (
    "schema_version",
    "policy",
    "policy_stats",
    "events_by_source",
    "measured",
    "config",
)

_RECORD_FIELDS = (
    "job_id",
    "arrival_time",
    "schedule_time",
    "first_start",
    "completion",
    "n_events",
    "reference_time",
)

_DERIVED_FIELDS = ("waiting_time", "processing_time", "sojourn_time", "speedup")


def write_records_csv(path: PathLike, records: Sequence[JobRecord]) -> int:
    """Write job records (raw + derived columns); returns the row count."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(_RECORD_FIELDS + _DERIVED_FIELDS)
        for record in records:
            writer.writerow(
                [getattr(record, field) for field in _RECORD_FIELDS]
                + [getattr(record, field) for field in _DERIVED_FIELDS]
            )
    return len(records)


def load_records_csv(path: PathLike) -> List[JobRecord]:
    """Read job records back (derived columns are recomputed, not read)."""
    records: List[JobRecord] = []
    with open(path, newline="", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            records.append(
                JobRecord(
                    job_id=int(row["job_id"]),
                    arrival_time=float(row["arrival_time"]),
                    schedule_time=float(row["schedule_time"]),
                    first_start=float(row["first_start"]),
                    completion=float(row["completion"]),
                    n_events=int(row["n_events"]),
                    reference_time=float(row["reference_time"]),
                )
            )
    return records


def write_backlog_csv(path: PathLike, samples: Sequence[BacklogSample]) -> int:
    """Write the backlog probe series (time, jobs in system, busy nodes)."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["time", "jobs_in_system", "busy_nodes"])
        for sample in samples:
            writer.writerow([sample.time, sample.jobs_in_system, sample.busy_nodes])
    return len(samples)


def result_summary_dict(result: SimulationResult) -> dict:
    """A JSON-serialisable summary of one simulation result."""
    return {
        "schema_version": SCHEMA_VERSION,
        "policy": result.policy_name,
        "policy_params": {
            key: value for key, value in result.policy_params.items()
        },
        "policy_stats": dict(result.policy_stats),
        "config": result.config.to_dict(),
        "load_per_hour": result.load_per_hour,
        "jobs_arrived": result.jobs_arrived,
        "jobs_completed": result.jobs_completed,
        "measured": {
            "n_jobs": result.measured.n_jobs,
            "mean_speedup": result.measured.mean_speedup,
            "median_speedup": result.measured.median_speedup,
            "mean_waiting": result.measured.mean_waiting,
            "median_waiting": result.measured.median_waiting,
            "p95_waiting": result.measured.p95_waiting,
            "max_waiting": result.measured.max_waiting,
            "std_waiting": result.measured.std_waiting,
            "mean_waiting_excl_delay": result.measured.mean_waiting_excl_delay,
            "mean_processing": result.measured.mean_processing,
            "mean_sojourn": result.measured.mean_sojourn,
            "mean_stretch": result.measured.mean_stretch,
            "p95_stretch": result.measured.p95_stretch,
            "max_stretch": result.measured.max_stretch,
            "throughput_per_hour": result.measured.throughput_per_hour,
            "exact": result.measured.exact,
        },
        "overloaded": result.overload.overloaded,
        "backlog_slope_per_hour": result.overload.backlog_slope_per_hour,
        "node_utilization": result.node_utilization,
        "cache_hit_fraction": result.cache_hit_fraction(),
        "tertiary_events_read": result.tertiary_events_read,
        "tertiary_redundancy": result.tertiary_redundancy,
        "events_by_source": dict(result.events_by_source),
        "engine_events": result.engine_events,
        "records_dropped": result.records_dropped,
        "wall_seconds": result.wall_seconds,
        "faults": asdict(result.faults) if result.faults is not None else None,
        "sched": result.sched.as_dict() if result.sched is not None else None,
        "topo": asdict(result.topo) if result.topo is not None else None,
    }


def write_result_json(path: PathLike, result: SimulationResult) -> None:
    """Write the summary JSON (records go to CSV, not here)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result_summary_dict(result), handle, indent=2, default=float)


def load_result_json(path: PathLike) -> dict:
    """Read a summary JSON back, validating the schema.

    Raises :class:`ValueError` on files from a newer schema or with
    required keys missing; files written before versioning (no
    ``schema_version`` key) are upgraded in place with empty
    ``policy_stats``/``events_by_source`` defaults so old sweeps stay
    readable.
    """
    with open(path, encoding="utf-8") as handle:
        summary = json.load(handle)
    if not isinstance(summary, dict):
        raise ValueError(f"{path}: expected a JSON object")
    version = summary.setdefault("schema_version", 1)
    if not isinstance(version, int) or isinstance(version, bool):
        raise ValueError(
            f"{path}: schema_version must be an integer, got {version!r}"
        )
    if version > SCHEMA_VERSION:
        raise ValueError(
            f"{path}: schema_version {version} is newer than the supported "
            f"{SCHEMA_VERSION}"
        )
    summary.setdefault("policy_stats", {})
    summary.setdefault("events_by_source", {})
    summary.setdefault("faults", None)  # pre-v3 files: no fault injection
    summary.setdefault("sched", None)  # pre-v4 files: no control accounting
    # Pre-v5 files: the ``sched`` object lacks the reliability counters;
    # SchedulerStats.from_dict defaults them to 0 (perfect network).
    # Pre-v6 files: no streaming-metrics keys — every retained statistic
    # in those files was exact, so readers may treat ``measured.exact``
    # as True and ``records_dropped`` as 0 when absent.
    summary.setdefault("records_dropped", 0)
    # Pre-v7 files predate hierarchical topologies: every run was flat.
    summary.setdefault("topo", None)
    missing = [key for key in _REQUIRED_SUMMARY_KEYS if key not in summary]
    if missing:
        raise ValueError(f"{path}: summary is missing keys {missing}")
    return summary
