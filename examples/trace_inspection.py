#!/usr/bin/env python
"""Inspecting a traced simulation run with ``repro.obs``.

Walks the full observability pipeline from Python:

1. run one out-of-order simulation with a :class:`TraceRecorder` sink,
2. print the aggregate counters the recorder derived from the stream,
3. drill into the raw events (who stole work from whom, and when),
4. render the per-node ASCII timeline, and
5. export a Chrome/Perfetto trace plus the counter time-series.

The same pipeline is available from the command line as
``repro simulate --policy out-of-order --days 7 --trace run``.

Usage::

    python examples/trace_inspection.py
"""

from repro import units
from repro.analysis.tables import format_table
from repro.obs import TraceRecorder, render_timeline, write_chrome_trace
from repro.obs.hooks import kinds
from repro.sim.config import quick_config
from repro.sim.simulator import run_simulation


def main() -> None:
    # 1. A traced run: pass any TraceSink as ``sink``.  With no sink the
    #    instrumentation short-circuits (one branch per site).
    recorder = TraceRecorder(sample_interval=units.HOUR)
    config = quick_config(
        arrival_rate_per_hour=2.0,
        duration=7 * units.DAY,
        seed=42,
    )
    result = run_simulation(config, "out-of-order", sink=recorder)
    recorder.close()
    print(result.brief())

    # 2. Aggregate counters — derived purely from the event stream, and
    #    guaranteed (tests/test_obs.py) to match SimulationResult.
    rows = [[name, value] for name, value in recorder.summary().items()]
    print(format_table(["counter", "value"], rows, title="Recorder counters"))

    # 3. Raw events: every TraceEvent carries (time, kind, source, node,
    #    job, sid) plus kind-specific data.  Example: the first few work
    #    steals the out-of-order policy performed.
    steals = recorder.events_of_kind(kinds.SUBJOB_STEAL)
    print(f"\n{len(steals)} work steals recorded; first three:")
    for event in steals[:3]:
        print(
            f"  t={units.fmt_duration(event.time):>8s}  subjob {event.sid} "
            f"({event.data['events']} events) stolen from node {event.node}"
        )

    # 4. The dependency-free ASCII Gantt — '#' cache, 'T' tertiary,
    #    'R' remote, '=' busy, '.' idle.
    print()
    print(render_timeline(recorder, width=90))

    # 5. Exports.  Load the .trace.json at https://ui.perfetto.dev —
    #    pid 0 is the cluster, pid 1 the tape streams; the counters CSV
    #    plots directly in gnuplot or pandas.
    entries = write_chrome_trace("trace_inspection.trace.json", recorder)
    samples = recorder.write_counters_csv("trace_inspection.counters.csv")
    print(f"\nwrote trace_inspection.trace.json ({entries} entries)")
    print(f"wrote trace_inspection.counters.csv ({samples} samples)")


if __name__ == "__main__":
    main()
