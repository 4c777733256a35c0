"""One sample of the benchmark: set up a workload, run it, report.

``run.py`` starts this script once per sample, one process at a time, so
every sample pays the interpreter start, ``import repro`` and set-up a user
pays, and ``ru_maxrss`` is that sample's own peak.  Modes:

* ``setup``  -- stop after set-up (extra ``setup_s`` samples);
* ``timed``  -- run the workload with nothing attached; the sweep then
  repeats its specs warm from the result cache it just filled;
* ``traced`` -- run it once under cProfile (the sweep with one worker, as
  cProfile cannot follow pool workers) and split the time by layer.

Times are CPU seconds (of this process and of the pool workers it reaped),
each with the ``time.monotonic()`` interval it was spent in, so that
``run.py`` can scale them by the host's speed over that interval.  The
report is one JSON line on standard output.

Usage: python bench/child.py WORKLOAD SEED DRAW MODE SPAWNED_AT
(``DRAW`` picks the input of a one-run workload, see ``workloads.draw_seed``;
``SPAWNED_AT`` is the parent's ``time.monotonic()`` just before the spawn.)
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

from gate import snapshot

BENCH_DIR = Path(__file__).resolve().parent
SOURCE_PACKAGE = BENCH_DIR.parent / "src" / "repro"
OUT_DIR = BENCH_DIR / "out"


def _cpu_s() -> float:
    """CPU seconds of this process and of every pool worker it has reaped."""
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + workers.ru_utime + workers.ru_stime


def _peak_rss_mb() -> float:
    """Peak RSS of this process or any pool worker it waited for (MiB)."""
    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kib / 1024.0


def _outcomes(results) -> list:
    """Snapshots of the results; a sweep point that failed is its error."""
    from repro import SpecError

    return [
        {"error": f"{r.kind}: {r.message}"} if isinstance(r, SpecError) else snapshot(r)
        for r in results
    ]


def main(argv) -> int:
    workload, seed, draw, mode = argv[1], int(argv[2]), int(argv[3]), argv[4]
    spawned_at = float(argv[5])
    import repro

    if Path(repro.__file__).resolve().parent != SOURCE_PACKAGE:
        print(f"imported repro from {repro.__file__}, not {SOURCE_PACKAGE}", file=sys.stderr)
        return 2
    from repro import Executor, make_cache
    from workloads import SWEEP_JOBS, execute, prepare

    prepared = prepare(workload, seed, draw=draw)
    # CPU time since the process started: interpreter, imports, set-up.
    report = {"setup": {"cpu_s": _cpu_s(), "from": spawned_at, "to": time.monotonic()}}
    if mode == "setup":
        print(json.dumps(report))
        return 0

    traced = mode == "traced"
    profiler = cProfile.Profile() if traced else None
    OUT_DIR.mkdir(exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix="sweep-cache-", dir=OUT_DIR)
    try:
        started, cpu = time.monotonic(), _cpu_s()
        if profiler is not None:
            profiler.enable()
        results = execute(prepared, cache_dir, jobs=1 if traced else SWEEP_JOBS)
        if profiler is not None:
            profiler.disable()
        report["run"] = {"cpu_s": _cpu_s() - cpu, "from": started, "to": time.monotonic()}
        report["cache_hits"], report["warm_cpu_s"], warm = 0, 0.0, None
        if workload == "sweep" and not traced:
            cpu = _cpu_s()
            outcome = Executor(jobs=SWEEP_JOBS, cache=make_cache(cache_dir)).run(prepared)
            report["warm_cpu_s"] = _cpu_s() - cpu
            report["cache_hits"] = outcome.stats.cache_hits
            warm = _outcomes(outcome.results)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    report["peak_rss_mb"] = _peak_rss_mb()
    report["engine_events"] = sum(getattr(r, "engine_events", 0) for r in results)
    report["stats"] = _outcomes(results)
    report["warm_stats"] = warm
    if profiler is not None:
        from layers import Attribution

        stats = pstats.Stats(profiler).stats  # type: ignore[attr-defined]
        package_dir = os.path.dirname(os.path.abspath(repro.__file__))
        report["profile"] = Attribution(stats, package_dir).table()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
