"""Compare two sets of benchmark runs, metric by metric.

Usage::

    python3 bench/compare.py A.jsonl B.jsonl

``A`` is the parent, ``B`` the change; each file holds the lines that
``run.py --out FILE`` appends, one per workload and run.  Runs are paired
by seed: each side must run each seed at most once per workload (a
repeated seed is an error), and only seeds both sides ran are compared.
For every pairing of workload and end-to-end metric it prints both
medians and spreads (quartile distance as a share of the median) and a
verdict, with the bounds of ``BENCHMARK.json``:

* ``unresolved`` -- fewer than ``MIN_PAIRS`` seeds are paired, or either
  side's spread is wider than the bound, unless every run of B reads
  better than every run of A;
* ``worse``      -- B's median is worse than A's by more than the bound;
* ``better``     -- B beats A in at least nine tenths of the runs paired by
  seed (ties count for neither), and the medians differ by more than A's
  quartile distance;
* ``unchanged``  -- anything else.

It then prints how each layer's share of self time moved between the
traced runs of A and B.  The exit code is 1 if any verdict is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from run import load_catalogue, summarize

Runs = Dict[Tuple[str, str], Dict[int, float]]

#: Pairs of runs a verdict needs; with fewer it is ``unresolved``.
MIN_PAIRS = 10


def load(path: Path, trace: int) -> Runs:
    """``(workload, metric) -> {seed: value}`` from a ``--out`` file."""
    runs: Runs = {}
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if record["trace"] != trace:
            continue
        for name, metric in record["metrics"].items():
            by_seed = runs.setdefault((record["workload"], name), {})
            if record["seed"] in by_seed:
                raise SystemExit(
                    f"{path}: {record['workload']} ran seed {record['seed']} twice; "
                    "runs are paired by seed, so run each seed once per side"
                )
            by_seed[record["seed"]] = metric["value"]
    return runs


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    summary = summarize(values)
    return summary["q1"], summary["value"], summary["q3"]


def paired(a: Dict[int, float], b: Dict[int, float]) -> Tuple[List[float], List[float]]:
    """The values of both sides at the seeds both ran, in seed order."""
    seeds = sorted(set(a) & set(b))
    return [a[s] for s in seeds], [b[s] for s in seeds]


def verdict(a: Dict[int, float], b: Dict[int, float], bound: float, higher_is_better: bool) -> str:
    """Verdict on B against A, each ``{seed: value}``."""
    xs, ys = paired(a, b)
    if len(xs) < MIN_PAIRS:
        return "unresolved"
    sign = 1.0 if higher_is_better else -1.0  # sign * (new - old) > 0: better
    a_q1, a_med, a_q3 = quartiles(xs)
    b_q1, b_med, b_q3 = quartiles(ys)
    spread = max((a_q3 - a_q1) / abs(a_med), (b_q3 - b_q1) / abs(b_med))
    b_dominates = all(sign * (y - x) > 0 for x in xs for y in ys)
    if spread > bound and not b_dominates:
        return "unresolved"
    if sign * (b_med - a_med) < -bound * abs(a_med):
        return "worse"
    wins = sum(1 for x, y in zip(xs, ys) if sign * (y - x) > 0)
    if wins >= 0.9 * len(xs) and sign * (b_med - a_med) > a_q3 - a_q1:
        return "better"
    return "unchanged"


def compare(a_path: Path, b_path: Path, catalogue: Optional[dict] = None) -> Tuple[List[str], bool]:
    """The report lines, and whether any metric got worse."""
    if catalogue is None:
        catalogue = load_catalogue()
    a_runs, b_runs = load(a_path, 0), load(b_path, 0)
    lines = [
        f"{'workload':12s} {'metric':16s} {'A median':>12s} {'A spread':>9s} "
        f"{'B median':>12s} {'B spread':>9s} {'change':>8s}  verdict"
    ]
    any_worse = False
    for workload in (w["name"] for w in catalogue["workloads"]):
        for metric in catalogue["end_to_end"]:
            key = (workload, metric["name"])
            if key not in a_runs or key not in b_runs:
                continue
            a, b = a_runs[key], b_runs[key]
            xs, ys = paired(a, b)
            if not xs:
                continue
            result = verdict(a, b, metric["bound"], metric["better"] == "higher")
            any_worse |= result == "worse"
            a_q1, a_med, a_q3 = quartiles(xs)
            b_q1, b_med, b_q3 = quartiles(ys)
            lines.append(
                f"{workload:12s} {metric['name']:16s} {a_med:12.6g} {(a_q3 - a_q1) / a_med:9.1%} "
                f"{b_med:12.6g} {(b_q3 - b_q1) / b_med:9.1%} {(b_med - a_med) / a_med:+8.1%}  "
                f"{result} ({len(xs)} pairs, bound {metric['bound']:.0%})"
            )
    a_trace, b_trace = load(a_path, 1), load(b_path, 1)
    shares = sorted(k for k in a_trace if k in b_trace and k[1].endswith(".self_share"))
    if shares:
        lines.append("")
        lines.append("self_share, traced runs: A median -> B median (points)")
        for workload, name in shares:
            a_share = statistics.median(a_trace[(workload, name)].values())
            b_share = statistics.median(b_trace[(workload, name)].values())
            if a_share or b_share:
                lines.append(
                    f"{workload:12s} {name:22s} {a_share:7.1%} -> {b_share:7.1%} "
                    f"({100 * (b_share - a_share):+.1f})"
                )
    return lines, any_worse


def main(argv: Sequence[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    lines, any_worse = compare(Path(argv[1]), Path(argv[2]))
    print("\n".join(lines))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
