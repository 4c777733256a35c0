"""The correctness gate: a run's simulated statistics, compared exactly.

A snapshot is read from ``SimulationResult`` attributes, not from the
summary-JSON schema, so a schema change does not break the committed
expectations.  It leaves out the host-side numbers (``wall_seconds``,
``engine_events``): a simulator-only optimisation may change those, while
every simulated statistic must stay exactly as it is.  The work unit of
the benchmark's throughput, ``sched.subjobs_started`` (node dispatches),
is one of those statistics.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path
from typing import Any, Dict, List, Optional

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

#: ``PerformanceSummary`` fields that are per-job sample arrays, not
#: statistics (their moments are already in the snapshot).
_SAMPLE_ARRAYS = ("waiting_times", "waiting_times_excl_delay", "speedups")


def _flatten(prefix: str, value: Any, out: Dict[str, Any]) -> None:
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten(f"{prefix}.{key}", value[key], out)
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            _flatten(f"{prefix}.{index}", item, out)
    else:
        out[prefix] = value


def snapshot(result: Any) -> Dict[str, Any]:
    """The simulated statistics of one ``SimulationResult``, flattened to
    ``dotted.name -> number`` (``None`` where a subsystem was off)."""
    measured = {
        field.name: getattr(result.measured, field.name)
        for field in dataclasses.fields(result.measured)
        if field.name not in _SAMPLE_ARRAYS
    }
    parts = {
        "jobs_arrived": result.jobs_arrived,
        "jobs_completed": result.jobs_completed,
        "events_by_source": dict(result.events_by_source),
        "tertiary_events_read": result.tertiary_events_read,
        "tertiary_distinct_events": result.tertiary_distinct_events,
        "tertiary_redundancy": result.tertiary_redundancy,
        "node_utilization": result.node_utilization,
        "measured": measured,
        "overload": dataclasses.asdict(result.overload),
        "sched": dataclasses.asdict(result.sched) if result.sched else None,
        "faults": dataclasses.asdict(result.faults) if result.faults else None,
        "topo": dataclasses.asdict(result.topo) if result.topo else None,
    }
    out: Dict[str, Any] = {}
    for key, value in parts.items():
        _flatten(key, value, out)
    # Through JSON and back, so a fresh snapshot and one read from an
    # expected file hold the same types (numpy scalars become floats).
    return json.loads(json.dumps(out, default=float))


def _same(a: Any, b: Any) -> bool:
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a):
        return math.isnan(b)
    return type(a) is type(b) and a == b


def diff(expected: Dict[str, Any], actual: Dict[str, Any]) -> List[str]:
    """One line per differing field; empty when the two agree exactly."""
    problems = []
    for key in sorted(set(expected) | set(actual)):
        if key not in actual or key not in expected:
            problems.append(f"{key} present in only one of the two")
        elif not _same(expected[key], actual[key]):
            problems.append(f"{key} = {actual[key]!r}, expected {expected[key]!r}")
    return problems


def invariants(stats: Dict[str, Any]) -> List[str]:
    """Checks that hold for any seed, for seeds without an expected file."""
    if "error" in stats:
        return [stats["error"]]
    problems = []
    if not 0 < stats["jobs_completed"] <= stats["jobs_arrived"]:
        problems.append(
            f"completed {stats['jobs_completed']} of {stats['jobs_arrived']} jobs"
        )
    if not 0.0 < stats["node_utilization"] <= 1.0:
        problems.append(f"node_utilization {stats['node_utilization']} outside (0, 1]")
    if stats["tertiary_distinct_events"] > stats["tertiary_events_read"]:
        problems.append("more distinct tertiary events than tertiary reads")
    if stats["sched.subjobs_started"] < stats["measured.n_jobs"]:
        problems.append("fewer subjobs started than measured jobs")
    return problems


def expected_path(seed: int) -> Path:
    return EXPECTED_DIR / f"seed{seed}.json"


def load_expected(seed: int) -> Optional[Dict[str, List[List[Dict[str, Any]]]]]:
    """Committed snapshots for ``seed``, if there are any: per workload, a
    list over its input draws of the snapshots of each draw's results."""
    path = expected_path(seed)
    if not path.is_file():
        return None
    return json.loads(path.read_text())["workloads"]


def store_expected(seed: int, workload: str, stats: List[List[Dict[str, Any]]]) -> None:
    """Record ``stats`` (per draw, per result) as the expected snapshots
    of ``workload``."""
    path = expected_path(seed)
    payload = {"seed": seed, "workloads": {}}
    if path.is_file():
        payload = json.loads(path.read_text())
    payload["workloads"][workload] = stats
    payload["workloads"] = dict(sorted(payload["workloads"].items()))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1) + "\n")
