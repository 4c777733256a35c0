"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


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

    def test_run_unknown_experiment(self):
        from repro.core.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            main(["run", "fig99", "--scale", "smoke"])

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
