"""Tests for the command-line interface."""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cli import main
from repro.experiments import available_experiments
from repro.sched import available_policies


class TestListingCommands:
    def test_policies(self, capsys):
        assert main(["policies"]) == 0
        out = capsys.readouterr().out
        assert "out-of-order" in out
        assert "delayed" in out
        assert "decentral" in out
        assert "grant_batch=4" in out  # tunable parameters are listed

    def test_unknown_policy_suggests(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--policy", "decentrall", "--days", "1"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "did you mean" in err and "decentral" in err

    def test_underscore_policy_names_accepted(self, capsys):
        assert main(["simulate", "--policy", "out_of_order", "--days", "1"]) == 0

    def test_experiments(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        assert "fig2" in out and "Figure 2" in out

    def test_limits(self, capsys):
        assert main(["limits"]) == 0
        out = capsys.readouterr().out
        assert "32000" in out or "32,000" in out
        assert "3.46" in out


class TestSimulate:
    def test_simulate_farm(self, capsys):
        code = main(
            [
                "simulate",
                "--policy",
                "farm",
                "--load",
                "0.5",
                "--days",
                "3",
                "--seed",
                "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mean speedup" in out
        assert "farm" in out

    def test_simulate_delayed_with_params(self, capsys):
        code = main(
            [
                "simulate",
                "--policy",
                "delayed",
                "--load",
                "0.5",
                "--days",
                "3",
                "--period",
                "21600",
                "--stripe",
                "500",
            ]
        )
        assert code == 0
        assert "delayed" in capsys.readouterr().out

    def test_delayed_run_ending_at_its_first_boundary_says_so(self, capsys, tmp_path):
        # The default period is two days: a two-day run measures no job.
        dump = tmp_path / "summary.json"
        code = main(
            ["simulate", "--policy", "delayed", "--days", "2", "--dump-json", str(dump)]
        )
        assert code == 0
        out = capsys.readouterr().out
        brief = out.splitlines()[0]
        assert "no job completed in the measured window" in brief
        assert "no period boundary fell inside the 2day horizon" in brief
        assert "OVERLOADED" not in out and "nan" not in brief
        # Only the text changes: the summary keeps its verdict.
        assert json.loads(dump.read_text())["overloaded"] is True

    def test_empty_window_of_other_policies_names_no_period(self, capsys):
        code = main(["simulate", "--policy", "farm", "--load", "0.01", "--days", "0.1"])
        assert code == 0
        brief = capsys.readouterr().out.splitlines()[0]
        assert "no job completed in the measured window" in brief
        assert "period" not in brief

    def test_unknown_policy_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--policy", "bogus"])


class TestRun:
    def test_run_farmq_smoke(self, capsys, tmp_path):
        out_file = tmp_path / "report.md"
        code = main(
            [
                "run",
                "farmq",
                "--scale",
                "smoke",
                "--processes",
                "1",
                "--cache-dir",
                str(tmp_path / "cache"),
                "--output",
                str(out_file),
            ]
        )
        assert code == 0
        assert out_file.exists()
        assert "farmq" in out_file.read_text()

    def test_passing_verdict_prints_holds(self, capsys):
        argv = ["run", "farmq", "--scale", "smoke", "--jobs", "1", "--no-cache"]
        assert main(argv) == 0
        assert "farmq verdict: holds" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["run", "run-all"])
    def test_failed_claim_exits_1_and_names_it(self, capsys, monkeypatch, command):
        import dataclasses

        from repro.experiments import registry

        stub = dataclasses.replace(
            registry.get_experiment("farmq"),
            verdict=lambda sweep, scale: [
                f"stub claim over {len(sweep.results)} points at {scale.value}"
            ],
        )
        monkeypatch.setitem(registry._EXPERIMENTS, "farmq", stub)
        target = ["farmq"] if command == "run" else ["--only", "farmq"]
        argv = [command, *target, "--scale", "smoke", "--jobs", "1", "--no-cache"]
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "farmq verdict: FAILED: stub claim over 2 points at smoke" in out
        assert "verdict: holds" not in out

    def test_run_unknown_experiment(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "fig99", "--scale", "smoke"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro run: unknown experiment 'fig99'; available: ")

    def test_run_all_subset(self, capsys, tmp_path):
        out_file = tmp_path / "all.md"
        code = main(
            [
                "run-all",
                "--scale",
                "smoke",
                "--only",
                "farmq",
                "--jobs",
                "1",
                "--no-cache",
                "--output",
                str(out_file),
            ]
        )
        assert code == 0
        assert "farmq" in out_file.read_text()


class TestParser:
    def test_no_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_bad_scale_exits(self):
        with pytest.raises(SystemExit):
            main(["run", "fig2", "--scale", "enormous"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "farmq", "--scale", "smoke", "--jobs", "0"],
            ["replicate", "--policy", "farm", "-j", "-3"],
        ],
    )
    def test_jobs_below_one_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        message = f"--jobs must be >= 1, got {argv[-1]}"
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "variable, value",
        [("REPRO_JOBS", "nope"), ("REPRO_SPEC_TIMEOUT", "soon")],
    )
    def test_bad_environment_value_exits_2(self, capsys, monkeypatch, variable, value):
        monkeypatch.setenv(variable, value)
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "farmq", "--scale", "smoke", "--no-cache"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"${variable}" in err and repr(value) in err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1


class TestBenchArguments:
    """``repro bench`` rejects bad gate arguments before timing anything."""

    def test_threshold_without_baseline_dir_exits_2(self, capsys, tmp_path):
        code = main(["bench", "--threshold", "1.5", "--out-dir", str(tmp_path)])
        assert code == 2
        assert "--threshold requires --baseline-dir" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_zero_threshold_exits_2(self, capsys, tmp_path):
        code = main(
            [
                "bench",
                "--baseline-dir",
                str(tmp_path),
                "--threshold",
                "0",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert code == 2
        assert "--threshold must be > 0" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_baseline_in_another_unit_exits_2(self, capsys, tmp_path, monkeypatch):
        import repro.perf
        from repro.perf import BenchRecord, BenchReport

        def report(unit):
            record = BenchRecord(
                name="sim.scale.n10", wall_seconds=1.0, work=100, unit=unit, repeats=1
            )
            return BenchReport(kind="scale", records=(record,))

        baseline_dir = tmp_path / "baseline"
        report("events").write(str(baseline_dir / "BENCH_scale.json"))
        monkeypatch.setattr(
            repro.perf, "run_scale_bench", lambda quick: report("dispatches")
        )
        code = main(
            [
                "bench",
                "--quick",
                "--baseline-dir",
                str(baseline_dir),
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert code == 2
        assert "regenerate the baseline" in capsys.readouterr().err

    def test_policies_kind_rejected(self, capsys):
        # There is one report, so ``--kind`` is not an option at all.
        for kind in ("policies", "kernel", "scale"):
            with pytest.raises(SystemExit) as excinfo:
                main(["bench", "--kind", kind])
            assert excinfo.value.code == 2
            assert "unrecognized arguments: --kind" in capsys.readouterr().err

    def test_profile_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--profile"])
        assert excinfo.value.code == 2


class TestReplicate:
    def test_replicate_farm(self, capsys):
        code = main(
            [
                "replicate",
                "--policy",
                "farm",
                "--load",
                "0.5",
                "--days",
                "2",
                "-n",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "replications" in out
        assert "mean_speedup" in out


class TestExport:
    def test_export_farmq(self, capsys, tmp_path):
        code = main(
            [
                "export",
                "farmq",
                "--scale",
                "smoke",
                "--processes",
                "1",
                "--no-cache",
                "-o",
                str(tmp_path / "fig"),
            ]
        )
        assert code == 0
        assert (tmp_path / "fig" / "plot.gp").exists()
        assert list((tmp_path / "fig").glob("*.dat"))


class TestSweep:
    def _sweep(self, tmp_path, name):
        out = tmp_path / name
        code = main(
            [
                "sweep",
                "farmq",
                "--scale",
                "smoke",
                "--jobs",
                "1",
                "--cache-dir",
                str(tmp_path / "cache"),
                "-o",
                str(out),
            ]
        )
        return code, out

    def test_sweep_writes_versioned_json(self, capsys, tmp_path):
        import json

        from repro.sim.export import SCHEMA_VERSION

        code, out = self._sweep(tmp_path, "sweep.json")
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == SCHEMA_VERSION
        assert all("seed" in point for point in payload["results"])
        assert "exec: total=" in capsys.readouterr().out

    def test_second_sweep_is_all_cache_hits_and_bit_identical(
        self, capsys, tmp_path
    ):
        _, first = self._sweep(tmp_path, "first.json")
        capsys.readouterr()
        code, second = self._sweep(tmp_path, "second.json")
        assert code == 0
        out = capsys.readouterr().out
        assert "executed=0" in out
        assert "cache_hits=" in out and "cache_hits=0" not in out
        assert first.read_bytes() == second.read_bytes()

    def test_interrupted_sweep_reruns_only_the_missing_point(
        self, capsys, tmp_path
    ):
        _, first = self._sweep(tmp_path, "first.json")
        pickles = sorted((tmp_path / "cache").rglob("*.pkl"))
        assert len(pickles) == 2
        pickles[0].unlink()  # the one point an interrupted run never wrote
        capsys.readouterr()
        code, second = self._sweep(tmp_path, "second.json")
        assert code == 0
        assert "executed=1 cache_hits=1 " in capsys.readouterr().out
        assert first.read_bytes() == second.read_bytes()


def _exit_code(argv, capsys):
    """``main(argv)``'s exit status and stderr; any other exception
    escapes and fails the test with its traceback."""
    try:
        code = main(argv)
    except SystemExit as exit_info:
        code = exit_info.code
    return code, capsys.readouterr().err


def _assert_rejected(argv, capsys):
    code, err = _exit_code(argv, capsys)
    assert code == 2, (argv, code, err)
    assert "Traceback" not in err
    assert err.strip(), argv


class TestBadInput:
    """Bad input exits 2 with a message, before any simulation runs."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "nope"], "repro run: unknown experiment 'nope'"),
            (["sweep", "nope"], "repro sweep: unknown experiment 'nope'"),
            (["run-all", "--only", "nope"], "repro run-all: unknown experiment"),
            (["run", "complexity"], "repro run: unknown experiment 'complexity'"),
            (["simulate", "--policy", "farm", "--days", "0"], "duration must be > 0"),
            (["simulate", "--policy", "farm", "--nodes", "0"], "n_nodes must be >= 1"),
            (["simulate", "--policy", "farm", "--load=-2"], "arrival_rate_per_hour"),
            (["simulate", "--policy", "farm", "--cache-gb=-5"], "cache_bytes"),
            (["simulate", "--policy", "farm", "--net-loss", "1.5"], "loss"),
            (
                ["simulate", "--trace", "no-such-dir/t", "--policy", "farm", "--days=-2"],
                "repro simulate: duration",
            ),
            (
                ["replicate", "--policy", "farm", "--replications", "0"],
                "--replications must be >= 1, got 0",
            ),
            (
                ["simulate", "--policy", "farm", "--faults", "--mtbf", "xyz"],
                "argument --mtbf: not a duration such as 30mn, 6h, 1d or 1w: 'xyz'",
            ),
            (
                ["simulate", "--policy", "farm", "--wipe-cache"],
                "repro simulate: --wipe-cache/--stall-interval require --faults",
            ),
        ],
    )
    def test_probe_exits_2_with_one_message(self, capsys, argv, message):
        code, err = _exit_code(argv, capsys)
        assert code == 2
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["simulate", "--policy", "delayed", "--period=-5"], "period must be >= 0"),
            (["simulate", "--policy", "farm", "--period", "3600"], "no parameter(s) period"),
            (
                ["simulate", "--policy", "decentral", "--grant-batch", "0", "--days", "2",
                 "--nodes", "4"],
                "grant_batch must be >= 1, got 0",
            ),
            (
                ["simulate", "--policy", "farm", "--trace", "t", "--sample-seconds=-1"],
                "--sample-seconds must be >= 0",
            ),
            (["simulate", "--policy", "farm", "--width", "60"], "require --trace"),
            (["replicate", "--policy", "mixed", "--stripe", "0"], "stripe_events must be >= 1"),
            (["calibrate", "--stripe", "0"], "stripe_events must be >= 1, got 0"),
        ],
    )
    def test_out_of_range_policy_or_trace_value_exits_2_with_one_line(
        self, capsys, argv, message
    ):
        code, err = _exit_code(argv, capsys)
        assert code == 2
        assert err.startswith(f"repro {argv[0]}: ") and message in err
        assert len(err.strip().splitlines()) == 1

    def test_unknown_experiment_lists_the_registry(self, capsys):
        _, err = _exit_code(["run", "complexity"], capsys)
        assert len(err.strip().splitlines()) == 1
        listed = err.split("available: ", 1)[1].strip().split(", ")
        assert listed == available_experiments()
        assert len(listed) == 23

    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_fuzzed_bad_input_exits_2(self, capsys, data):
        command = data.draw(st.sampled_from(sorted(_BAD_INPUT)))
        base, flags = _BAD_INPUT[command]
        chosen = data.draw(
            st.lists(st.sampled_from(sorted(flags)), min_size=1, max_size=3, unique=True)
        )
        argv = [command, *data.draw(base)]
        for flag in chosen:
            argv += data.draw(flags[flag])
        _assert_rejected(argv, capsys)


# Malformed values only: every draw below fails before a simulation or a
# worker starts.
_NAME = st.from_regex(r"[a-z][a-z0-9_-]{0,11}", fullmatch=True)
_UNKNOWN_POLICY = _NAME.filter(
    lambda name: name.replace("_", "-") not in available_policies()
)
_UNKNOWN_EXPERIMENT = _NAME.filter(lambda name: name not in available_experiments())
_UNKNOWN_PRESET = _NAME.filter(lambda name: name not in ("flat", "depth2", "depth3"))
_MISSING_PATH = _NAME.map(lambda name: f"no-such-dir/{name}.json")


def _opt(flag, values):
    return values.map(lambda value: [f"{flag}={value}"])


_NON_POSITIVE = st.floats(max_value=0.0, allow_nan=False, allow_infinity=False)
_NEGATIVE = st.floats(max_value=-1e-3, allow_nan=False, allow_infinity=False)
_NON_POSITIVE_INT = st.integers(max_value=0)
_NOT_A_PROBABILITY = (
    st.floats(min_value=1.0, allow_nan=False, allow_infinity=False)
    | st.floats(max_value=-1e-9, allow_nan=False, allow_infinity=False)
)
_NOT_A_DURATION = (
    st.sampled_from(["xyz", "6hours!", "1d2h", "nan", "inf", "-", "h", ""]) | _NAME
)
_NEGATIVE_DURATION = st.sampled_from(["-1h", "-30mn", "-1d", "-1w", "-5"])
_BAD_SCALE = _NAME.filter(lambda name: name not in ("smoke", "quick", "full"))

def _param(flag, takers, out_of_range, in_range):
    """A policy-parameter flag: out of range for a policy that takes it, or
    in range on the base argv's farm, which takes none."""
    refused = st.tuples(st.sampled_from(takers), out_of_range).map(
        lambda pair: ["--policy", pair[0], f"{flag}={pair[1]}"]
    )
    return refused | _opt(flag, in_range)


def _traced(flag, bad, good):
    """A tracing flag: a bad value with ``--trace``, or any without it."""
    with_trace = bad.map(lambda value: ["--trace", "no-such-dir/t", f"{flag}={value}"])
    return with_trace | _opt(flag, good)


_DECENTRAL = ["decentral", "decentral-nolocal"]

#: The flags that describe a run, shared by ``simulate`` and ``replicate``
#: (``--faults`` is in their base argv, so the fault durations are read).
_RUN_FLAGS = {
    "--policy": _opt("--policy", _UNKNOWN_POLICY),
    "--days": _opt("--days", _NON_POSITIVE),
    "--nodes": _opt("--nodes", _NON_POSITIVE_INT),
    "--load": _opt("--load", _NON_POSITIVE),
    "--cache-gb": _opt("--cache-gb", _NEGATIVE.map(lambda gb: gb - 1.0)),
    "--period": _param("--period", ["delayed", "mixed"], _NEGATIVE, st.integers(0, 10**6)),
    "--stripe": _param(
        "--stripe", ["delayed", "mixed", "adaptive"], _NON_POSITIVE_INT, st.integers(1, 10**6)
    ),
    "--grant-batch": _param(
        "--grant-batch", _DECENTRAL, _NON_POSITIVE_INT, st.integers(1, 64)
    ),
    "--task-events": _param(
        "--task-events", _DECENTRAL, _NON_POSITIVE_INT, st.integers(1, 10**6)
    ),
    "--mtbf": _opt("--mtbf", _NOT_A_DURATION | _NEGATIVE_DURATION),
    "--mttr": _opt("--mttr", _NOT_A_DURATION | _NEGATIVE_DURATION | st.just("0")),
    "--stall-interval": _opt("--stall-interval", _NOT_A_DURATION | _NEGATIVE_DURATION),
    "--net-loss": _opt("--net-loss", _NOT_A_PROBABILITY),
    "--net-dup": _opt("--net-dup", _NOT_A_PROBABILITY),
    "--net-reorder": _opt("--net-reorder", _NOT_A_PROBABILITY),
    "--net-delay": _opt("--net-delay", _NEGATIVE),
    "--topology": _opt("--topology", _UNKNOWN_PRESET | _MISSING_PATH),
}
_TRACE_FLAGS = {
    "--limit-events": _traced("--limit-events", _NON_POSITIVE_INT, st.integers(1, 10**6)),
    "--sample-seconds": _traced(
        "--sample-seconds", _NEGATIVE, st.floats(0.0, 1e6, allow_nan=False)
    ),
    "--width": _traced("--width", st.integers(max_value=7), st.integers(8, 200)),
    "--no-ascii": st.just(["--no-ascii"]),
}
_SWEEP_FLAGS = {
    "--jobs": _opt("--jobs", _NON_POSITIVE_INT),
    "--scale": _opt("--scale", _BAD_SCALE),
}

_UNKNOWN_ID = _UNKNOWN_EXPERIMENT.map(lambda name: [name])

#: command -> (its argv before the flags, {flag: malformed argv piece}).
_BAD_INPUT = {
    "simulate": (st.just(["--policy", "farm", "--faults"]), {**_RUN_FLAGS, **_TRACE_FLAGS}),
    "replicate": (
        st.just(["--policy", "farm", "--faults"]),
        {
            **_RUN_FLAGS,
            "--replications": _opt("--replications", _NON_POSITIVE_INT),
            "--jobs": _opt("--jobs", _NON_POSITIVE_INT),
        },
    ),
    "run": (_UNKNOWN_ID, _SWEEP_FLAGS),
    "sweep": (_UNKNOWN_ID, _SWEEP_FLAGS),
    "export": (_UNKNOWN_ID.map(lambda argv: [*argv, "-o", "no-such-dir/e"]), _SWEEP_FLAGS),
    "run-all": (
        st.lists(_UNKNOWN_EXPERIMENT, min_size=1, max_size=3).map(
            lambda names: ["--only", *names]
        ),
        _SWEEP_FLAGS,
    ),
    "calibrate": (
        st.just([]),
        {
            "--days": _opt("--days", _NON_POSITIVE),
            "--jobs": _opt("--jobs", _NON_POSITIVE_INT),
        },
    ),
    "topo": (
        st.just(["show"]),
        {"spec": (_UNKNOWN_PRESET | _MISSING_PATH).map(lambda spec: [spec])},
    ),
    "lint": (st.just([]), {"path": _MISSING_PATH.map(lambda path: [path])}),
    "bench": (
        st.just(["--baseline-dir", "no-such-dir"]),
        {"--threshold": _opt("--threshold", _NON_POSITIVE)},
    ),
}
