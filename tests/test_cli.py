"""Tests for the command-line interface."""

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

    def test_policies_kind_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--kind", "policies"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

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
    def _sweep(self, tmp_path, name, extra=()):
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
                *extra,
            ]
        )
        return code, out

    def test_sweep_writes_versioned_json(self, capsys, tmp_path):
        import json

        from repro.sim.runner import SWEEP_SCHEMA_VERSION

        code, out = self._sweep(tmp_path, "sweep.json")
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == SWEEP_SCHEMA_VERSION
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

    def test_resume_reruns_nothing_and_matches(self, capsys, tmp_path):
        _, first = self._sweep(tmp_path, "first.json")
        capsys.readouterr()
        code, resumed = self._sweep(tmp_path, "resumed.json", extra=["--resume"])
        assert code == 0
        assert "resumed=" in capsys.readouterr().out
        assert first.read_bytes() == resumed.read_bytes()

    def test_resume_without_cache_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "sweep",
                    "farmq",
                    "--scale",
                    "smoke",
                    "--no-cache",
                    "--resume",
                ]
            )
