"""Tests of the benchmark itself: ``python -m pytest bench/tests -q``."""

from __future__ import annotations

import cProfile
import copy
import itertools
import json
import os
import pstats
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import compare  # noqa: E402
import gate  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

CATALOGUE = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Horizon share that keeps each workload near a second; below it the
#: delayed policy completes no job in the sweep.
SHORT = 0.5


@pytest.fixture(scope="module")
def short_runs(tmp_path_factory):
    """Every workload at a shortened horizon, seed 7: name -> snapshots."""
    cache_dir = str(tmp_path_factory.mktemp("cache"))
    out = {}
    for name in (w["name"] for w in CATALOGUE["workloads"]):
        prepared = workloads.prepare(name, seed=7, scale=SHORT)
        results = workloads.execute(prepared, cache_dir, jobs=1)
        out[name] = [gate.snapshot(result) for result in results]
    return out


def test_catalogue_names_the_workloads_that_exist():
    names = [w["name"] for w in CATALOGUE["workloads"]]
    assert sorted(names) == sorted([*workloads.SIMULATIONS, "sweep"])
    assert CATALOGUE["paths"] == ["bench"]


def test_each_workload_runs_clean_at_a_short_horizon(short_runs):
    assert len(short_runs["sweep"]) == len(workloads.SWEEP_POLICIES) * len(workloads.SWEEP_LOADS)
    for name, snapshots in short_runs.items():
        for stats in snapshots:
            assert gate.invariants(stats) == [], name
    grid = short_runs["grid-lossy"][0]
    assert grid["topo.depth"] == 3
    assert grid["sched.retransmits"] > 0
    assert short_runs["farm-1000"][0]["faults"] is None


def test_workloads_are_deterministic_per_seed(short_runs, tmp_path):
    again = workloads.execute(workloads.prepare("grid-lossy", seed=7, scale=SHORT), str(tmp_path))
    assert gate.diff(short_runs["grid-lossy"][0], gate.snapshot(again[0])) == []
    other = workloads.execute(workloads.prepare("grid-lossy", seed=8, scale=SHORT), str(tmp_path))
    assert gate.diff(short_runs["grid-lossy"][0], gate.snapshot(other[0])) != []


def test_gate_names_a_perturbed_expected_value(short_runs):
    actual = short_runs["paper-ooo"][0]
    expected = dict(actual, **{"measured.mean_waiting": actual["measured.mean_waiting"] + 1e-9})
    problems = gate.diff(expected, actual)
    assert len(problems) == 1 and problems[0].startswith("measured.mean_waiting = ")
    assert gate.diff(actual, copy.deepcopy(actual)) == []


def test_gate_treats_nan_as_equal_and_int_as_not_float():
    assert gate.diff({"a": float("nan")}, {"a": float("nan")}) == []
    assert gate.diff({"a": 1}, {"a": 1.0}) != []


def test_expected_files_hold_every_draw():
    for seed in (7, 8):
        expected = gate.load_expected(seed)
        assert expected is not None and set(expected) == {w["name"] for w in CATALOGUE["workloads"]}
        for name, by_draw in expected.items():
            assert len(by_draw) == run.draws(name), (seed, name)
        paper = expected["paper-ooo"]
        assert gate.diff(paper[0][0], paper[1][0]) != []  # draws are distinct inputs


def test_draw_zero_is_the_seed_itself():
    assert workloads.draw_seed(7, 0) == 7
    assert len({workloads.draw_seed(seed, draw) for seed in range(1, 11) for draw in range(run.DRAWS)}) == 10 * run.DRAWS


def test_checks_count_failures_against_the_committed_expectation():
    stats = gate.load_expected(7)["sweep"][0]
    checks = run.Checks("sweep", 7)
    checks.check({"stats": stats, "warm_stats": None})
    assert (checks.attempted, checks.failed) == (len(stats), 0)
    perturbed = copy.deepcopy(stats)
    perturbed[4]["jobs_completed"] += 1
    checks.check({"stats": perturbed, "warm_stats": stats})
    assert (checks.attempted, checks.failed) == (2 * len(stats), 1)
    checks.check(None)
    assert (checks.attempted, checks.failed) == (2 * len(stats) + 1, 2)


def test_checks_without_expectation_compare_children_with_each_other(short_runs):
    stats = short_runs["paper-ooo"]
    checks = run.Checks("paper-ooo", seed=123456)
    checks.check({"stats": stats, "warm_stats": None})
    changed = [dict(stats[0], jobs_arrived=stats[0]["jobs_arrived"] + 1)]
    checks.check({"stats": changed, "warm_stats": None})
    assert (checks.attempted, checks.failed) == (2, 1)
    checks.check({"stats": changed, "warm_stats": None}, draw=1)  # another input
    assert (checks.attempted, checks.failed) == (3, 1)


PKG = os.path.abspath(os.sep + os.path.join("x", "src", "repro"))
SCHED = (os.path.join(PKG, "sched", "farm.py"), 10, "on_job_arrival")
NODE = (os.path.join(PKG, "cluster", "node.py"), 20, "start")
LEN = ("~", 0, "<built-in method builtins.len>")
HEAPQ = (os.path.join(os.sep, "usr", "lib", "heapq.py"), 5, "merge")
SORT = ("~", 0, "<method 'sort' of 'list' objects>")


def synthetic_stats():
    """sched calls node, len, and a stdlib function that calls a builtin."""
    return {
        SCHED: (1, 1, 1.0, 11.0, {}),
        NODE: (1, 1, 2.0, 3.0, {SCHED: (1, 1, 2.0, 3.0)}),
        LEN: (3, 3, 3.0, 3.0, {SCHED: (2, 2, 2.0, 2.0), NODE: (1, 1, 1.0, 1.0)}),
        HEAPQ: (1, 1, 4.0, 5.0, {SCHED: (1, 1, 4.0, 5.0)}),
        SORT: (1, 1, 1.0, 1.0, {HEAPQ: (1, 1, 1.0, 1.0)}),
    }


def test_builtins_and_stdlib_are_charged_to_their_repro_caller():
    table = layers.Attribution(synthetic_stats(), PKG).table()
    shares = {name: row["self_share"] for name, row in table["layers"].items()}
    assert shares["sched"] == pytest.approx(8.0 / 11.0)  # 1 own + 2 len + 4 heapq + 1 sort
    assert shares["node"] == pytest.approx(3.0 / 11.0)  # 2 own + 1 len
    assert sum(shares.values()) == pytest.approx(1.0)
    assert table["layers"]["node"]["calls_in"] == 1
    assert table["edges"] == {"sched->node": {"calls": 1, "seconds": 3.0}}


def test_recursion_outside_repro_terminates():
    stats = synthetic_stats()
    cc, nc, tt, ct, callers = stats[HEAPQ]
    stats[HEAPQ] = (cc, nc + 1, tt, ct, {**callers, SORT: (0, 1, 0.5, 0.5)})
    stats[SORT] = (1, 1, 1.0, 1.0, {HEAPQ: (1, 1, 1.0, 1.0)})
    shares = layers.Attribution(stats, PKG).table()["layers"]
    assert sum(row["self_share"] for row in shares.values()) == pytest.approx(1.0)


def test_profiled_run_splits_into_layers_summing_to_one():
    from repro import Simulation, create_policy, quick_config

    sim = Simulation(quick_config(n_nodes=8, duration=86400.0, seed=3), create_policy("farm"))
    profiler = cProfile.Profile()
    profiler.enable()
    sim.run()
    profiler.disable()
    import repro

    package_dir = os.path.dirname(os.path.abspath(repro.__file__))
    attribution = layers.Attribution(pstats.Stats(profiler).stats, package_dir)
    idle_nodes = [key for key in attribution.stats if key[2] == "idle_nodes"]
    assert idle_nodes and {attribution.own_layer(key) for key in idle_nodes} == {"cluster"}
    table = attribution.table()
    assert sum(row["self_share"] for row in table["layers"].values()) == pytest.approx(1.0)
    assert table["calls"]["cluster.idle_nodes.calls"] > 0
    assert table["layers"]["cluster"]["self_share"] > 0
    assert table["layers"]["topo"]["self_share"] == 0


def test_per_layer_metrics_match_the_catalogue(short_runs):
    plain = {"engine_events": 10, "stats": short_runs["grid-lossy"], "cache_hits": 0,
             "warm_cpu_s": 0.0, "run": {"cpu_s": 4.0, "ref_s": 2.0}}
    traced = {"run": {"cpu_s": 9.0, "ref_s": 6.0},
              "profile": layers.Attribution(synthetic_stats(), PKG).table()}
    values = run.layer_metrics(plain, traced)
    assert list(values) == [m["name"] for m in CATALOGUE["per_layer"]]
    assert values["trace.overhead"] == 3.0


def test_catalogue_obeys_its_limits():
    assert set(CATALOGUE) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [m["name"] for m in CATALOGUE["end_to_end"] + CATALOGUE["per_layer"]]
    assert len(names) == len(set(names))
    assert "setup_s" in names
    setup = next(m for m in CATALOGUE["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in CATALOGUE["end_to_end"]) <= 0.25


def test_run_length_is_fixed_by_the_catalogue(capsys):
    assert run.main(["--seconds", str(CATALOGUE["run_seconds"] + 1)]) == 2
    assert "run_seconds" in capsys.readouterr().err


def test_throughput_counts_the_dispatches_the_model_fixed():
    stats = gate.load_expected(7)["sweep"][0]
    report = {"stats": stats + [{"error": "timeout: stuck"}]}
    assert run.dispatches(report) == sum(s["sched.subjobs_started"] for s in stats) > 0


def test_measure_takes_the_next_draw_each_round(monkeypatch):
    by_draw = gate.load_expected(7)["paper-ooo"]
    drawn = []

    def spawn(workload, seed, mode, draw=0):
        setup = {"cpu_s": 0.6, "speed": 0.5, "ref_s": 0.3}
        if mode == "setup":
            return {"setup": setup}
        drawn.append(draw)
        return {"setup": setup, "run": {"cpu_s": 4.0, "speed": 0.5, "ref_s": 2.0},
                "stats": by_draw[draw], "warm_stats": None, "peak_rss_mb": 40.0}

    monkeypatch.setattr(run, "spawn", spawn)
    checks = run.Checks("paper-ooo", 7)
    measured = run.measure("paper-ooo", 7, budget=0.0, checks=checks)
    assert drawn == [0] and (checks.attempted, checks.failed) == (1, 0)
    assert measured["host_speed"]["value"] == 0.5
    assert measured["setup_s"]["value"] == 0.3
    assert measured["setup_s"]["n"] == run.SETUP_PER_ROUND + 1
    assert measured["dispatches_per_s"]["value"] == by_draw[0][0]["sched.subjobs_started"] / 2.0
    assert measured["peak_rss_mb"]["value"] == 40.0

    clock = itertools.count()
    monkeypatch.setattr(run.time, "monotonic", lambda: float(next(clock)))
    run.measure("paper-ooo", 7, budget=200.0, checks=checks)
    assert drawn[1:] == [d % run.DRAWS for d in range(len(drawn) - 1)] and len(drawn) > run.DRAWS
    assert checks.failed == 0


def test_speed_comes_from_the_steps_that_cover_the_interval():
    calibrant = run.Calibrant()
    # Steps end at t = 0, 1, ..., 10; the loop ran at the reference rate
    # up to t = 5 and at half of it after.
    calibrant.times = [float(t) for t in range(11)]
    step = 1.0 / run.REFERENCE_STEPS_PER_S
    calibrant.cpu = [step * t if t <= 5 else step * (5 + 2 * (t - 5)) for t in range(11)]
    assert calibrant.speed(0.5, 4.5) == pytest.approx(1.0)
    assert calibrant.speed(6.0, 9.0) == pytest.approx(0.5)
    assert calibrant.speed(4.0, 7.0) == pytest.approx(3 / 5)


def test_a_child_is_timed_beside_the_reference_loop():
    report = run.spawn("paper-ooo", 7, "setup")
    setup = report["setup"]
    assert setup["from"] < setup["to"] <= report["ended_at"]
    assert 0.05 < setup["speed"] < 20
    assert setup["ref_s"] == pytest.approx(setup["cpu_s"] * setup["speed"])


METRIC = {"name": "dispatches_per_s", "better": "higher", "bound": 0.10}


def sample_file(path, values_by_seed, workload="farm-1000"):
    with open(path, "w") as handle:
        for seed, value in values_by_seed:
            line = {"workload": workload, "seed": seed, "trace": 0,
                    "metrics": {METRIC["name"]: {"value": value, "unit": "dispatches/s"}}}
            handle.write(json.dumps(line) + "\n")
    return path


def compare_samples(tmp_path, a, b):
    catalogue = {"workloads": [{"name": "farm-1000"}], "end_to_end": [METRIC]}
    return compare.compare(
        sample_file(tmp_path / "a.jsonl", a), sample_file(tmp_path / "b.jsonl", b), catalogue
    )


@pytest.mark.parametrize(
    "b_scale, b_jitter, a_jitter, expected",
    [
        (1.00, 0.01, 0.01, "unchanged"),
        (0.97, 0.01, 0.01, "unchanged"),  # worse, but within the 10 % bound
        (0.80, 0.01, 0.01, "worse"),
        (1.10, 0.01, 0.01, "better"),
        (1.00, 0.01, 0.30, "unresolved"),
        (2.00, 0.01, 0.30, "better"),  # spread is wide, but B beats every A
    ],
)
def test_compare_verdicts_on_synthetic_samples(tmp_path, b_scale, b_jitter, a_jitter, expected):
    seeds = range(1, 11)
    wiggle = [((i * 7) % 10 - 4.5) / 4.5 for i in seeds]  # deterministic, in [-1, 1]
    a = [(s, 1000.0 * (1 + a_jitter * w)) for s, w in zip(seeds, wiggle)]
    b = [(s, 1000.0 * b_scale * (1 + b_jitter * w)) for s, w in zip(seeds, wiggle[::-1])]
    lines, worse = compare_samples(tmp_path, a, b)
    assert lines[1].split()[-5] == expected
    assert worse == (expected == "worse")


def test_compare_needs_ten_runs_paired_by_seed(tmp_path):
    a = [(s, 1000.0 + s) for s in range(1, 11)]
    b = [(s, 2000.0 + s) for s in range(2, 12)]  # 9 seeds in common
    lines, worse = compare_samples(tmp_path, a, b)
    assert lines[1].split()[-5:-3] == ["unresolved", "(9"] and not worse


def test_compare_refuses_a_seed_run_twice(tmp_path):
    a = [(7, 1000.0)] * 10
    b = [(s, 1000.0) for s in range(1, 11)]
    with pytest.raises(SystemExit, match="seed 7 twice"):
        compare_samples(tmp_path, a, b)


def test_compare_verdict_direction_follows_better():
    a = {s: 1.0 + 0.001 * s for s in range(10)}
    b = {s: 0.5 + 0.001 * s for s in range(10)}
    assert compare.verdict(a, b, 0.1, higher_is_better=False) == "better"
    assert compare.verdict(a, b, 0.1, higher_is_better=True) == "worse"
    assert compare.verdict(a, dict(list(b.items())[:9]), 0.1, higher_is_better=False) == "unresolved"
