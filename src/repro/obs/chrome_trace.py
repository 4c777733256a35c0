"""Chrome/Perfetto ``trace_event`` export of a recorded simulation.

Produces the JSON object format understood by ``ui.perfetto.dev`` and
``chrome://tracing``:

* **pid 0 — "cluster"**: one thread (track) per node, carrying a complete
  ("X") slice per subjob residency, plus instant markers for steals,
  fairness promotions and cache evictions;
* **pid 1 — "tertiary storage"**: one track per node-facing tape stream,
  carrying a slice per chunk actually streamed from tertiary storage;
* counter ("C") tracks for cache hit ratio, jobs in system and busy nodes.

Simulated seconds map to trace microseconds 1:1 (Perfetto's native unit),
so a simulated week is ~6e11 µs — comfortably within double precision.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from ..core.errors import ObsError
from .hooks import kinds
from .recorder import TraceRecorder

#: Keys required of every entry by the trace_event format.
REQUIRED_KEYS = ("name", "ph", "ts", "pid", "tid")

_CLUSTER_PID = 0
_TAPE_PID = 1

#: Microseconds per simulated second.
_US = 1e6


def _meta(name: str, pid: int, tid: int, value: str) -> Dict[str, Any]:
    return {
        "name": name,
        "ph": "M",
        "ts": 0,
        "pid": pid,
        "tid": tid,
        "args": {"name": value},
    }


def chrome_trace_events(recorder: TraceRecorder) -> List[Dict[str, Any]]:
    """The ``traceEvents`` list for one recorded run."""
    recorder.close()
    nodes = recorder.node_ids()
    out: List[Dict[str, Any]] = []

    # -- track naming metadata -----------------------------------------------
    out.append(_meta("process_name", _CLUSTER_PID, 0, "cluster"))
    out.append(_meta("process_name", _TAPE_PID, 0, "tertiary storage"))
    for node in nodes:
        out.append(_meta("thread_name", _CLUSTER_PID, node, f"node {node}"))
        out.append(_meta("thread_name", _TAPE_PID, node, f"tape stream → node {node}"))

    # -- subjob slices, one track per node -------------------------------------
    for span in recorder.spans:
        out.append(
            {
                "name": f"subjob {span.sid}" if span.sid else "subjob",
                "cat": "subjob",
                "ph": "X",
                "ts": span.start * _US,
                "dur": max(0.0, span.end - span.start) * _US,
                "pid": _CLUSTER_PID,
                "tid": span.node,
                "args": {"job": span.job, "sid": span.sid},
            }
        )

    # -- tape-drive tracks -------------------------------------------------------
    for chunk in recorder.chunk_slices:
        if chunk.source != "tertiary":
            continue
        out.append(
            {
                "name": f"tape read ({chunk.events} ev)",
                "cat": "tape",
                "ph": "X",
                "ts": chunk.start * _US,
                "dur": max(0.0, chunk.end - chunk.start) * _US,
                "pid": _TAPE_PID,
                "tid": chunk.node,
                "args": {"events": chunk.events},
            }
        )

    # -- instant markers -----------------------------------------------------------
    _INSTANTS = {
        kinds.SUBJOB_STEAL: "steal",
        kinds.JOB_PROMOTE: "fairness promotion",
        kinds.CACHE_EVICT: "cache evict",
        kinds.SUBJOB_PREEMPT: "preempt for cached",
        kinds.NODE_FAIL: "node fail",
        kinds.NODE_RECOVER: "node recover",
        kinds.SUBJOB_ABORT: "subjob abort",
        kinds.FAULT_RETRY: "fault retry",
        kinds.FAULT_GIVEUP: "fault giveup",
        kinds.STALL_START: "tertiary stall start",
        kinds.STALL_END: "tertiary stall end",
        kinds.TASK_GRANT: "task grant",
        # Recorded only while the bus's per-dispatch gate is on.
        kinds.ENGINE_DISPATCH: "engine dispatch",
    }
    for event in recorder.events:
        label = _INSTANTS.get(event.kind)
        if label is None:
            continue
        out.append(
            {
                "name": label,
                "cat": "sched",
                "ph": "i",
                "s": "t" if event.node >= 0 else "p",
                "ts": event.time * _US,
                "pid": _CLUSTER_PID,
                "tid": event.node if event.node >= 0 else 0,
                "args": dict(event.data),
            }
        )

    # -- counter tracks ---------------------------------------------------------------
    for sample in recorder.samples:
        ts = sample.time * _US
        ratio = 0.0 if sample.hit_ratio != sample.hit_ratio else sample.hit_ratio
        out.append(
            {
                "name": "cache hit ratio",
                "ph": "C",
                "ts": ts,
                "pid": _CLUSTER_PID,
                "tid": 0,
                "args": {"ratio": round(ratio, 4)},
            }
        )
        out.append(
            {
                "name": "jobs in system",
                "ph": "C",
                "ts": ts,
                "pid": _CLUSTER_PID,
                "tid": 0,
                "args": {"jobs": sample.jobs_in_system},
            }
        )
        out.append(
            {
                "name": "busy nodes",
                "ph": "C",
                "ts": ts,
                "pid": _CLUSTER_PID,
                "tid": 0,
                "args": {"nodes": sample.busy_nodes},
            }
        )
    return out


def to_chrome_trace(recorder: TraceRecorder) -> Dict[str, Any]:
    """The full JSON-object-format trace (``traceEvents`` + metadata)."""
    if recorder.total_emitted == 0:
        raise ObsError("nothing recorded: run the simulation with this sink attached")
    return {
        "traceEvents": chrome_trace_events(recorder),
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.obs.chrome_trace",
            "events_emitted": recorder.total_emitted,
            "events_dropped": recorder.dropped_events,
        },
    }


def write_chrome_trace(path, recorder: TraceRecorder) -> int:
    """Write the trace JSON; returns the number of trace entries."""
    trace = to_chrome_trace(recorder)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace, handle, separators=(",", ":"))
    return len(trace["traceEvents"])


def validate_trace_events(entries: List[Dict[str, Any]]) -> None:
    """Raise :class:`ObsError` unless every entry has the required
    trace_event keys (and ``dur`` for complete events)."""
    for index, entry in enumerate(entries):
        for key in REQUIRED_KEYS:
            if key not in entry:
                raise ObsError(f"trace entry {index} missing {key!r}: {entry}")
        if entry["ph"] == "X" and "dur" not in entry:
            raise ObsError(f"complete event {index} missing 'dur': {entry}")
