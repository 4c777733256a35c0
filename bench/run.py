"""The repository benchmark: end-to-end and per-layer metrics of the simulator.

Run from the root of the repository::

    python3 bench/run.py                               # every workload, seed 7
    python3 bench/run.py --workload paper-ooo --seed 8
    python3 bench/run.py --workload sweep --trace 1    # per-layer split

Untraced (``--trace 0``), a workload is measured as a closed loop: one
freshly spawned ``child.py`` at a time, each started only after the
previous one exits.  Each round spawns ``SETUP_PER_ROUND`` set-up-only
children and then one timed child, and rounds go on until the run's
share of ``run_seconds`` (from ``BENCHMARK.json``) is used up.  The whole
invocation measures for ``run_seconds``, split evenly across the
workloads it runs.  ``--seconds`` is accepted because the benchmark
protocol passes it, and must equal ``run_seconds``: both sides of a
comparison run for the same length.  The timed children of a one-run
workload take draws 0, 1, 2, ... of the seed's inputs in turn.  Each
end-to-end metric is the median over the samples.

Every child runs on one CPU, time-shared with a reference loop that this
process runs while it waits (``Calibrant``).  Times are the child's CPU
seconds, scaled by the loop's speed over the same interval to a reference
host: a busy neighbour slows the loop and the child alike.
Traced (``--trace 1``), one untraced child and one child under cProfile
give the per-layer metrics and ``out/trace-<workload>.json``.

Every child's simulated statistics pass the correctness gate
(``gate.py``): they must equal ``expected/seed<N>.json`` where that file
exists, and be identical across all children of the invocation that ran
the same draw in any case.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
metric catalogue is ``BENCHMARK.json`` at the repository root.
"""

from __future__ import annotations

import argparse
import bisect
import heapq
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import gate
from layers import LAYERS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

#: Set-up-only children before each timed child.
SETUP_PER_ROUND = 1
#: Inputs a one-run workload cycles through (``workloads.draw_seed``); the
#: expected files hold every one of them for their seed.
DRAWS = 8
#: A child still running after this long is killed and counted as failed.
CHILD_TIMEOUT_S = 150.0
#: Iterations of one step of the reference loop, and steps per CPU second
#: on the reference host.  Only their ratio to the measured rate matters.
STEP_ITERATIONS = 250
REFERENCE_STEPS_PER_S = 4800.0
#: Nice value of the reference loop: it gets about a tenth of the CPU
#: while a child at nice 0 runs.
CALIBRANT_NICE = 10

Report = Dict[str, Any]


def load_catalogue() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def draws(workload: str) -> int:
    """Distinct inputs of a workload; the sweep's 30 points are one input."""
    return 1 if workload == "sweep" else DRAWS


class Calibrant(threading.Thread):
    """A fixed loop of heap pushes and pops and dict updates, timed in CPU
    seconds step by step, on the CPU a child runs on while it runs.

    On a shared host the speed of a CPU changes by up to a factor of two
    from one second to the next, as other tenants' load on the same core
    comes and goes.  A loop that time-shares the child's CPU is slowed
    with it, moment by moment, while a loop timed before and after the
    child, or on another CPU, is not (README.md gives the measurements).
    The loop runs in a thread of this process at ``CALIBRANT_NICE``, so
    the child keeps most of the CPU; this process never imports ``repro``,
    so no change to the simulator can move the loop.
    """

    def __init__(self) -> None:
        super().__init__(daemon=True)
        self._heap = [(float(i * 7919 % 1000), i) for i in range(2000)]
        heapq.heapify(self._heap)
        self._counts: Dict[int, int] = {}
        self._started = threading.Event()
        self._stopping = threading.Event()
        self.times: List[float] = []
        self.cpu: List[float] = []

    def __enter__(self) -> "Calibrant":
        self.start()
        self._started.wait()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stopping.set()
        self.join()

    def run(self) -> None:
        if hasattr(os, "setpriority"):
            # On Linux a thread's nice value is its own.
            os.setpriority(os.PRIO_PROCESS, threading.get_native_id(), CALIBRANT_NICE)
        self._mark()
        self._started.set()
        while not self._stopping.is_set():
            self._step()
        self._step()

    def _mark(self) -> None:
        self.times.append(time.monotonic())
        self.cpu.append(time.thread_time())

    def _step(self) -> None:
        heap, counts = self._heap, self._counts
        for _ in range(STEP_ITERATIONS):
            when, key = heapq.heappop(heap)
            counts[key] = counts.get(key, 0) + 1
            heapq.heappush(heap, (when + (key * 31 % 97) / 10.0, (key * 13 + 1) % 2000))
        self._mark()

    def speed(self, start: float, end: float) -> float:
        """Host speed over ``[start, end]`` (monotonic seconds), relative to
        the reference host, from the steps that cover the interval."""
        first = max(bisect.bisect_right(self.times, start) - 1, 0)
        last = min(bisect.bisect_left(self.times, end), len(self.times) - 1)
        if last <= first:
            raise ValueError("no calibration step covers the interval")
        rate = (last - first) / (self.cpu[last] - self.cpu[first])
        return rate / REFERENCE_STEPS_PER_S


def pin_to_one_cpu() -> None:
    """Run this process and every child it spawns on one CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _stop(child: subprocess.Popen) -> None:
    """Kill a child and its pool workers, and wait until they are gone."""
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    child.wait()
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            os.killpg(child.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def spawn(workload: str, seed: int, mode: str, draw: int = 0) -> Optional[Report]:
    """Run one child to completion beside the reference loop: its report,
    with its times scaled to the reference host, or ``None`` if it failed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # The same string hashes, and so the same dict and set layouts, in
    # every sample.
    env["PYTHONHASHSEED"] = "0"
    command = [sys.executable, str(BENCH_DIR / "child.py"), workload, str(seed), str(draw), mode]
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryFile("w+", dir=OUT_DIR) as out, tempfile.TemporaryFile("w+", dir=OUT_DIR) as err:
        spawned_at = time.monotonic()
        # The child leads a process group of its own, so that a timeout can
        # kill its pool workers too, but stays in this session: the kernel
        # shares CPU between sessions before it weighs nice values, and the
        # loop must be able to yield the child most of the CPU.  No other
        # thread runs yet, which is what makes ``preexec_fn`` safe.
        child = subprocess.Popen(
            command + [repr(spawned_at)], env=env, stdout=out, stderr=err, preexec_fn=os.setpgrp
        )
        try:
            with Calibrant() as calibrant:
                child.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"{workload} {mode} child timed out", file=sys.stderr)
            return None
        finally:
            if child.returncode is None:
                _stop(child)
        out.seek(0)
        err.seek(0)
        if child.returncode != 0:
            print(f"{workload} {mode} child exited {child.returncode}:\n{err.read()}", file=sys.stderr)
            return None
        report = json.loads(out.read().strip().splitlines()[-1])
    report["spawned_at"], report["ended_at"] = spawned_at, time.monotonic()
    for part in ("setup", "run"):
        if part in report:
            span = report[part]
            span["speed"] = calibrant.speed(span["from"], span["to"])
            span["ref_s"] = span["cpu_s"] * span["speed"]
    return report


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and sample count."""
    if len(values) == 1:
        return {"value": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"value": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


class Checks:
    """The correctness gate over every child of one invocation.

    Each result (one per run; 30 for the sweep) counts as attempted, and
    as failed if its child crashed or any of its statistics differ.
    """

    def __init__(self, workload: str, seed: int, use_expected: bool = True) -> None:
        self.workload = workload
        expected = gate.load_expected(seed) if use_expected else None
        #: Snapshots per draw that later children must reproduce.
        self.reference: Dict[int, List[Dict[str, Any]]] = (
            dict(enumerate(expected[workload])) if expected and workload in expected else {}
        )
        self.attempted = 0
        self.failed = 0

    def check(self, report: Optional[Report], draw: int = 0) -> None:
        if report is None:
            self.attempted += 1
            self.failed += 1
            return
        stats = report["stats"]
        # With no committed expectation for this draw, the first child
        # that ran it is the reference every later one must reproduce.
        reference = self.reference.setdefault(draw, stats)
        warm = report["warm_stats"] or [None] * len(stats)
        for index in range(max(len(stats), len(reference))):
            if index >= len(stats) or index >= len(reference):
                problems = [f"{len(stats)} results, expected {len(reference)}"]
            else:
                problems = gate.invariants(stats[index])
                problems += gate.diff(reference[index], stats[index])
                if warm[index] is not None:
                    problems += [f"warm {p}" for p in gate.diff(stats[index], warm[index])]
            self.attempted += 1
            if problems:
                self.failed += 1
                print(
                    f"{self.workload} draw {draw} result {index}: " + "; ".join(problems[:5]),
                    file=sys.stderr,
                )


def dispatches(report: Report) -> int:
    """Node dispatches (subjob starts and resumes) the model simulated.

    This is the work unit of ``dispatches_per_s``.  The gate holds it
    exactly, so a change that removes engine events without changing the
    model does the same work in less time and reads as faster.
    """
    return sum(s.get("sched.subjobs_started") or 0 for s in report["stats"])


def measure(workload: str, seed: int, budget: float, checks: Checks) -> Dict[str, Any]:
    """End-to-end metrics from a closed loop of untraced children, in
    rounds of set-up-only children and one timed child, for ``budget``
    seconds (at least one round).  One set-up child before the loop is a
    warm-up: it compiles the bytecode a fresh checkout lacks, and counts
    for nothing."""
    spawn(workload, seed, "setup")
    started = time.monotonic()
    speeds: List[float] = []
    setup: List[float] = []
    rates: List[float] = []
    rss: List[float] = []
    rounds, last_round = 0, 0.0
    while rounds == 0 or time.monotonic() - started + last_round <= budget:
        round_started = time.monotonic()
        reports = [spawn(workload, seed, "setup") for _ in range(SETUP_PER_ROUND)]
        draw = rounds % draws(workload)
        timed = spawn(workload, seed, "timed", draw)
        checks.check(timed, draw)
        if timed is not None:
            reports.append(timed)
            rates.append(dispatches(timed) / timed["run"]["ref_s"])
            rss.append(timed["peak_rss_mb"])
            speeds.append(timed["run"]["speed"])
        setup += [r["setup"]["ref_s"] for r in reports if r is not None]
        rounds += 1
        last_round = time.monotonic() - round_started
    if not rates:
        raise SystemExit(f"{workload}: every timed child failed")
    return {
        "dispatches_per_s": summarize(rates),
        "setup_s": summarize(setup),
        "peak_rss_mb": summarize(rss),
        "host_speed": summarize(speeds),
    }


def model_counters(stats: List[Dict[str, Any]]) -> Dict[str, float]:
    """Counters of the modelled system, summed (or averaged) over results."""
    ok = [s for s in stats if "error" not in s]

    def total(key: str) -> float:
        return sum(s.get(key) or 0 for s in ok)

    def mean(key: str, missing: float = 0.0) -> float:
        values = [missing if s.get(key) is None else s[key] for s in ok]
        return sum(values) / len(values)

    events = sum(
        value for s in ok for key, value in s.items() if key.startswith("events_by_source.")
    )
    hits = sum(total(f"events_by_source.{source}") for source in ("cache", "remote", "tier"))
    tier = total("topo.tier_hit_events") + total("topo.tier_miss_events")
    return {
        "sim.data_events": events,
        "cache.hit_frac": hits / events,
        "tertiary.events_read": total("tertiary_events_read"),
        "tertiary.redundancy": total("tertiary_events_read") / total("tertiary_distinct_events"),
        "node.utilization": mean("node_utilization"),
        "sched.msgs_per_subjob": total("sched.messages") / total("sched.subjobs_started"),
        "faults.retransmits": total("sched.retransmits"),
        "faults.goodput": mean("faults.goodput", missing=1.0),
        "topo.tier_hit_frac": total("topo.tier_hit_events") / tier if tier else 0.0,
        "topo.link_saturated_plans": total("topo.link_saturated_plans"),
        "sim.mean_wait_s": mean("measured.mean_waiting"),
        "sim.mean_speedup": mean("measured.mean_speedup"),
    }


def layer_metrics(plain: Report, traced: Report) -> Dict[str, float]:
    """Per-layer metrics from an untraced child and a traced one."""
    rows = traced["profile"]["layers"]
    values = {f"{layer}.self_share": rows[layer]["self_share"] for layer in LAYERS}
    values.update({f"{layer}.calls_in": rows[layer]["calls_in"] for layer in LAYERS[:-1]})
    values.update(traced["profile"]["calls"])
    values["engine.events"] = plain["engine_events"]
    values.update(model_counters(plain["stats"]))
    values["exec.cache_hits"] = plain["cache_hits"]
    values["exec.warm_frac"] = plain["warm_cpu_s"] / plain["run"]["cpu_s"]
    values["trace.overhead"] = traced["run"]["ref_s"] / plain["run"]["ref_s"]
    return values


def write_trace(workload: str, seed: int, traced: Report, verified_at: float) -> None:
    """``out/trace-<workload>.json``: the benchmark's own spans (seconds
    from the traced child's spawn), the layer table and the edge matrix."""
    start = traced["spawned_at"]
    setup_end, run = traced["setup"]["to"] - start, traced["run"]
    spans = [
        {"id": 0, "parent": None, "name": "traced-run", "start_s": 0.0, "end_s": verified_at - start},
        {"id": 1, "parent": 0, "name": "setup", "start_s": 0.0, "end_s": setup_end},
        {"id": 2, "parent": 0, "name": "run", "start_s": run["from"] - start, "end_s": run["to"] - start},
        {"id": 3, "parent": 0, "name": "verify", "start_s": traced["ended_at"] - start, "end_s": verified_at - start},
    ]
    OUT_DIR.mkdir(exist_ok=True)
    payload = {"workload": workload, "seed": seed, "spans": spans, **traced["profile"]}
    (OUT_DIR / f"trace-{workload}.json").write_text(json.dumps(payload, indent=1) + "\n")


def trace(workload: str, seed: int, checks: Checks) -> Dict[str, Any]:
    """The traced run: one untraced child, then one under cProfile."""
    plain = spawn(workload, seed, "timed")
    checks.check(plain)
    traced = spawn(workload, seed, "traced")
    checks.check(traced)
    if plain is None or traced is None:
        raise SystemExit(f"{workload}: the traced run failed")
    write_trace(workload, seed, traced, verified_at=time.monotonic())
    return {name: {"value": value} for name, value in layer_metrics(plain, traced).items()}


def record_expected(workload: str, seed: int) -> bool:
    """Store every draw's statistics as ``expected/seed<N>.json``; whether
    each draw ran and passed the invariants."""
    recorded = []
    for draw in range(draws(workload)):
        report = spawn(workload, seed, "timed", draw)
        if report is None or any(gate.invariants(s) for s in report["stats"]):
            print(f"{workload} draw {draw}: not recorded", file=sys.stderr)
            return False
        recorded.append(report["stats"])
    gate.store_expected(seed, workload, recorded)
    print(f"{workload}: {len(recorded)} draws recorded in {gate.expected_path(seed)}")
    return True


def run_workload(
    catalogue: Dict[str, Any], workload: str, seed: int, budget: float, traced: bool
) -> Dict[str, Any]:
    checks = Checks(workload, seed)
    if traced:
        measured = trace(workload, seed, checks)
        wanted = catalogue["per_layer"]
    else:
        measured = measure(workload, seed, budget, checks)
        wanted = catalogue["end_to_end"]
    metrics = {m["name"]: dict(measured[m["name"]], unit=m["unit"]) for m in wanted}
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }
    if not traced:
        result["host_speed"] = measured["host_speed"]
    return result


def print_table(workload: str, result: Dict[str, Any]) -> None:
    print(f"{workload}: {result['attempted'] - result['failed']}/{result['attempted']} results correct")
    rows = dict(result["metrics"])
    if "host_speed" in result:
        rows["host_speed"] = dict(result["host_speed"], unit="x ref")
    for name, metric in rows.items():
        spread = ""
        if "n" in metric:
            spread = f"  q1 {metric['q1']:.6g}  q3 {metric['q3']:.6g}  n {metric['n']}"
        print(f"  {name:32s} {metric['value']:>14.6g} {metric['unit']:<12s}{spread}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    catalogue = load_catalogue()
    names = [w["name"] for w in catalogue["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float,
                        help=f"run length; must equal run_seconds ({catalogue['run_seconds']})")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
                        help="1: report the per-layer metrics of a traced run")
    parser.add_argument("--out", type=Path, help="append each workload's result as a JSON line")
    parser.add_argument("--update-expected", action="store_true",
                        help=f"record the statistics of all {DRAWS} draws as expected/seed<N>.json")
    args = parser.parse_args(argv)
    if args.seconds is not None and args.seconds != catalogue["run_seconds"]:
        print(f"--seconds {args.seconds:g}: the run length is fixed at run_seconds "
              f"({catalogue['run_seconds']}) in BENCHMARK.json", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no simulator source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    pin_to_one_cpu()
    selected = args.workload or names
    if args.update_expected:
        recorded = [record_expected(workload, args.seed) for workload in selected]
        return 0 if all(recorded) else 1
    budget = catalogue["run_seconds"] / len(selected)
    results = {}
    for workload in selected:
        result = run_workload(catalogue, workload, args.seed, budget, bool(args.trace))
        print_table(workload, result)
        results[workload] = result
        if args.out is not None:
            with open(args.out, "a") as handle:
                handle.write(json.dumps({"workload": workload, "seed": args.seed, "trace": args.trace, **result}) + "\n")

    # One workload: its own metric names.  Several: prefixed by workload.
    prefix = len(results) > 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{workload}.{name}" if prefix else name: {"value": m["value"], "unit": m["unit"]}
            for workload, r in results.items()
            for name, m in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
