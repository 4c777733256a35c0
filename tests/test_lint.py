"""Tests for simlint: rule detection, suppressions, reports, CLI, and the
meta-test that the shipped tree is clean."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import (
    JSON_SCHEMA_VERSION,
    RULES,
    Finding,
    LintConfig,
    LintReport,
    LintUsageError,
    iter_python_files,
    lint_paths,
    lint_sources,
    make_config,
    parse_suppression_directives,
    render_json,
    render_text,
)

FIXTURES = Path(__file__).parent / "lint_fixtures"
REPO_ROOT = Path(__file__).parent.parent
SRC = REPO_ROOT / "src" / "repro"


def lint_source(
    source: str, path: str, config: LintConfig | None = None
) -> list[Finding]:
    """Per-file findings of one module, through the one lint pipeline."""
    return lint_sources({path: source}, config).findings


def lint_fixture(name: str, config: LintConfig | None = None) -> list[Finding]:
    path = FIXTURES / name
    return lint_source(path.read_text(), str(path), config)


def codes_and_lines(findings: list[Finding]) -> list[tuple[str, int]]:
    return [(f.code, f.line) for f in findings]


class TestRuleDetection:
    def test_sim001_wallclock(self):
        findings = lint_fixture("bad_wallclock.py")
        assert codes_and_lines(findings) == [
            ("SIM001", 8),
            ("SIM001", 9),
            ("SIM001", 10),
            ("SIM001", 11),
            ("SIM001", 12),
        ]
        # The tz-aware call on line 13 is deliberate and must not appear.
        assert all(f.line != 13 for f in findings)

    def test_sim002_randomness(self):
        findings = lint_fixture("bad_random.py")
        assert codes_and_lines(findings) == [
            ("SIM002", 3),
            ("SIM002", 8),
            ("SIM002", 9),
            ("SIM002", 10),
            ("SIM002", 11),
        ]
        assert "default_rng" in findings[-1].message

    def test_sim003_float_equality(self):
        findings = lint_fixture("bad_float_eq.py")
        assert codes_and_lines(findings) == [
            ("SIM003", 5),
            ("SIM003", 7),
            ("SIM003", 9),
        ]
        assert "times_equal" in findings[0].message

    def test_sim004_unguarded_emit(self):
        findings = lint_fixture("bad_unguarded_emit.py")
        assert codes_and_lines(findings) == [("SIM004", 9)]

    def test_sim005_config_mutation(self):
        findings = lint_fixture("bad_config_mutation.py")
        assert codes_and_lines(findings) == [
            ("SIM005", 5),
            ("SIM005", 6),
            ("SIM005", 7),
            ("SIM005", 8),
            ("SIM005", 9),
        ]

    def test_sim006_io(self):
        findings = lint_fixture("bad_io.py")
        assert codes_and_lines(findings) == [
            ("SIM006", 7),
            ("SIM006", 8),
            ("SIM006", 10),
        ]

    def test_columns_are_one_based(self):
        findings = lint_fixture("bad_io.py")
        assert all(f.col >= 1 for f in findings)

    def test_good_fixture_is_clean(self):
        assert lint_fixture("good_clean.py") == []

    def test_suppressions_silence_real_violations(self):
        assert lint_fixture("good_suppressed.py") == []

    def test_suppression_is_targeted_not_blanket(self):
        # A disable for one code must not swallow a different rule.
        source = "import time\nx = time.time()  # simlint: disable=SIM006\n"
        findings = lint_source(source, "snippet.py")
        assert [f.code for f in findings] == ["SIM001"]

    def test_disable_next_line_only_covers_next_line(self):
        source = (
            "import time\n"
            "# simlint: disable-next-line=SIM001\n"
            "a = time.time()\n"
            "b = time.time()\n"
        )
        findings = lint_source(source, "snippet.py")
        assert codes_and_lines(findings) == [("SIM001", 4)]

    def test_multi_code_suppression_silences_both(self):
        source = (
            "import time\n"
            "print(time.time())  # simlint: disable=SIM001,SIM006\n"
        )
        assert lint_source(source, "src/repro/sched/x.py") == []

    def test_multi_code_suppression_parses_each_code(self):
        source = "x = 1  # simlint: disable=SIM003, SIM004\n"
        directives = parse_suppression_directives(source)
        assert directives == [(1, 1, ("SIM003", "SIM004"))]

    def test_disable_next_line_at_eof_targets_past_the_end(self):
        # A trailing directive can never match; it parses cleanly and
        # points one line past EOF (the flow lint's SIM104 flags it).
        source = "x = 1\n# simlint: disable-next-line=SIM001"
        directives = parse_suppression_directives(source)
        assert directives == [(2, 3, ("SIM001",))]
        assert lint_source(source, "snippet.py") == []

    def test_crlf_file_suppression_still_applies(self):
        source = (
            "import time\r\n"
            "# simlint: disable-next-line=SIM001\r\n"
            "a = time.time()\r\n"
            "b = time.time()\r\n"
        )
        findings = lint_source(source, "snippet.py")
        assert codes_and_lines(findings) == [("SIM001", 4)]


class TestAllowlists:
    def test_clock_module_may_read_the_clock(self):
        source = "import time\nnow = time.monotonic()\n"
        assert lint_source(source, "src/repro/core/clock.py") == []
        assert len(lint_source(source, "src/repro/sim/simulator.py")) == 1

    def test_rng_module_may_seed_generators(self):
        source = "import numpy as np\nrng = np.random.default_rng()\n"
        assert lint_source(source, "src/repro/core/rng.py") == []

    def test_io_allowed_in_cli_and_driver_scripts(self):
        source = "print('hello')\n"
        assert lint_source(source, "src/repro/cli.py") == []
        assert lint_source(source, "benchmarks/bench_x.py") == []
        assert lint_source(source, "examples/quickstart.py") == []
        assert len(lint_source(source, "src/repro/sched/farm.py")) == 1

    def test_select_restricts_rules(self):
        config = make_config(["SIM006"])
        findings = lint_fixture("bad_wallclock.py", config)
        assert findings == []

    def test_unknown_select_code_rejected(self):
        with pytest.raises(LintUsageError, match="SIM999"):
            make_config(["SIM999"])

    def test_unknown_select_code_gets_did_you_mean(self):
        with pytest.raises(LintUsageError, match="did you mean"):
            make_config(["SIM01"])

    def test_flow_codes_accepted_by_select(self):
        config = make_config(["SIM101", "SIM003"])
        assert config.enabled("SIM101") and config.enabled("SIM003")
        assert not config.enabled("SIM001")


class TestReports:
    def test_json_schema(self):
        payload = json.loads(render_json(lint_paths([str(FIXTURES / "bad_io.py")])))
        assert payload["schema_version"] == JSON_SCHEMA_VERSION == 2
        assert payload["tool"] == "simlint"
        assert payload["files_checked"] == 1
        assert payload["count"] == len(payload["findings"]) == 3
        assert payload["graph"]["modules"] == 1
        for entry in payload["findings"]:
            assert set(entry) == {"code", "path", "line", "col", "message"}
            assert entry["code"] in RULES

    def test_text_report_lists_location_and_code(self):
        text = render_text(lint_paths([str(FIXTURES / "bad_io.py")]))
        assert "bad_io.py:7:5: SIM006" in text
        assert "3 finding(s) in 1 file" in text

    def test_text_report_clean(self):
        assert "clean" in render_text(LintReport([], 4, {}))

    def test_iter_python_files_rejects_missing_path(self):
        with pytest.raises(LintUsageError, match="no such file"):
            iter_python_files(["does/not/exist"])

    def test_rule_catalogue_covers_all_codes(self):
        assert sorted(RULES) == [f"SIM00{i}" for i in range(1, 7)]

    def test_sim000_carries_column_and_source_line(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n    pass\n")
        report = lint_paths([str(bad)])
        findings = report.findings
        assert report.files_checked == 1
        assert [f.code for f in findings] == ["SIM000"]
        finding = findings[0]
        assert finding.line == 1
        # SyntaxError.offset is 1-based; the column points into the line.
        assert finding.col == 7
        assert "def f(:" in finding.message
        # Same shape as every other rule: the JSON payload validates.
        payload = json.loads(render_json(report))
        assert set(payload["findings"][0]) == {
            "code",
            "path",
            "line",
            "col",
            "message",
        }


class TestCli:
    def test_lint_clean_path_exits_zero(self, capsys):
        assert main(["lint", str(FIXTURES / "good_clean.py")]) == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_bad_fixture_exits_one_with_codes(self, capsys):
        assert main(["lint", str(FIXTURES / "bad_wallclock.py")]) == 1
        out = capsys.readouterr().out
        assert "SIM001" in out
        assert "bad_wallclock.py:8" in out

    def test_lint_json_output(self, capsys):
        assert main(["lint", "--format", "json", str(FIXTURES / "bad_io.py")]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 3

    def test_lint_unknown_code_exits_two(self, capsys):
        assert main(["lint", "--select", "SIM999", str(FIXTURES)]) == 2
        assert "unknown rule code" in capsys.readouterr().err

    def test_lint_rules_catalogue(self, capsys):
        assert main(["lint", "--rules"]) == 0
        out = capsys.readouterr().out
        for code in RULES:
            assert code in out


class TestTreeIsClean:
    def test_simlint_clean_on_shipped_tree(self):
        report = lint_paths([str(SRC)])
        assert report.files_checked > 50
        assert report.findings == [], render_text(report)

    def test_simlint_clean_on_driver_scripts(self):
        report = lint_paths(
            [str(REPO_ROOT / "benchmarks"), str(REPO_ROOT / "examples")]
        )
        assert report.findings == [], render_text(report)
