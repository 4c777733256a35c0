"""Tests for the whole-program flow lint (repro.lint.flow): the graph
builder, SIM101-SIM105 rule passes, the flow run as a superset of the
plain run, the CLI, and the meta-test that the shipped project is
flow-clean with no waiver but in-source suppressions."""

from __future__ import annotations

import json
from pathlib import Path

from repro.cli import main
from repro.lint import (
    FLOW_RULES,
    lint_paths,
    lint_sources,
    make_config,
    render_json,
    render_text,
    suggest_rule_codes,
)
from repro.lint.flow import component_of

REPO_ROOT = Path(__file__).parent.parent
SRC = REPO_ROOT / "src" / "repro"
FIXTURES = Path(__file__).parent / "lint_fixtures"
#: What CI lints with ``--flow``: the whole project.
PROJECT = [str(SRC), str(REPO_ROOT / "benchmarks"), str(REPO_ROOT / "examples")]

#: A minimal kinds taxonomy used by the hook-contract fixtures.
HOOKS_MODULE = '''\
"""fixture taxonomy"""


class kinds:
    USED = "demo.used"
    DEAD = "demo.dead"
    UNCONSUMED = "demo.unconsumed"
    ALIASED = "demo.aliased"
'''


def flow(sources: dict) -> list:
    return lint_sources(sources, flow=True).findings


def codes(findings: list) -> list:
    return [f.code for f in findings]


class TestComponentOf:
    def test_package_below_repro(self):
        assert component_of("src/repro/sched/decentral/policy.py") == "sched"
        assert component_of("src/repro/obs/hooks.py") == "obs"

    def test_top_level_module(self):
        assert component_of("src/repro/cli.py") == "cli"

    def test_no_repro_segment_falls_back_to_parent(self):
        assert component_of("somewhere/fixtures/mod.py") == "fixtures"


class TestStreamAliasing:
    def test_duplicate_stream_across_components_flagged_both_sides(self):
        findings = flow(
            {
                "src/repro/sched/a.py": (
                    'def f(streams):\n    return streams.get("shared.name")\n'
                ),
                "src/repro/perf/b.py": (
                    'def g(streams):\n    return streams.get("shared.name")\n'
                ),
            }
        )
        assert codes(findings) == ["SIM101", "SIM101"]
        assert "shared.name" in findings[0].message
        assert "perf" in findings[0].message and "sched" in findings[0].message

    def test_same_component_may_reuse_its_stream(self):
        findings = flow(
            {
                "src/repro/sched/a.py": (
                    'def f(streams):\n    return streams.get("sched.x")\n'
                ),
                "src/repro/sched/b.py": (
                    'def g(streams):\n    return streams.get("sched.x")\n'
                ),
            }
        )
        assert findings == []

    def test_fully_dynamic_name_flagged(self):
        findings = flow(
            {
                "src/repro/faults/a.py": (
                    "def f(streams, name):\n    return streams.get(name)\n"
                ),
            }
        )
        assert codes(findings) == ["SIM101"]
        assert "dynamically-computed" in findings[0].message

    def test_fstring_family_with_prefix_is_fine(self):
        findings = flow(
            {
                "src/repro/faults/a.py": (
                    "def f(streams, i):\n"
                    '    return streams.get(f"faults.node{i}")\n'
                ),
            }
        )
        assert findings == []

    def test_family_overlapping_foreign_literal_flagged(self):
        findings = flow(
            {
                "src/repro/faults/a.py": (
                    "def f(streams, i):\n"
                    '    return streams.get(f"faults.node{i}")\n'
                ),
                "src/repro/sched/b.py": (
                    "def g(streams):\n"
                    '    return streams.get("faults.node7")\n'
                ),
            }
        )
        assert "SIM101" in codes(findings)

    def test_rng_module_internals_exempt(self):
        findings = flow(
            {
                "src/repro/core/rng.py": (
                    "def get(self, name):\n"
                    "    return self._streams.get(name)\n"
                ),
            }
        )
        assert findings == []

    def test_spawn_counts_as_registration(self):
        findings = flow(
            {
                "src/repro/workload/a.py": (
                    'def f(streams):\n    return streams.spawn("rep.child")\n'
                ),
                "src/repro/sim/b.py": (
                    'def g(streams):\n    return streams.spawn("rep.child")\n'
                ),
            }
        )
        assert codes(findings) == ["SIM101", "SIM101"]


class TestEventOrdering:
    def test_engine_private_attr_outside_kernel(self):
        findings = flow(
            {
                "src/repro/sched/a.py": (
                    "def f(engine):\n    return len(engine._heap)\n"
                ),
            }
        )
        assert codes(findings) == ["SIM102"]
        assert "_heap" in findings[0].message

    def test_engine_module_itself_exempt(self):
        findings = flow(
            {
                "src/repro/core/engine.py": (
                    "class Engine:\n"
                    "    def peek(self):\n"
                    "        return len(self._heap)\n"
                ),
            }
        )
        assert findings == []

    def test_clock_store_flagged(self):
        findings = flow(
            {
                "src/repro/sched/a.py": (
                    "def f(engine):\n    engine.now = 12.0\n"
                ),
            }
        )
        assert codes(findings) == ["SIM102"]
        assert ".now" in findings[0].message

    def test_sink_observer_scheduling_flagged(self):
        findings = flow(
            {
                "src/repro/obs/sink.py": (
                    "from .hooks import TraceSink\n"
                    "\n"
                    "\n"
                    "class FeedbackSink(TraceSink):\n"
                    "    def on_event(self, event):\n"
                    "        self.engine.call_after(1.0, self.poke)\n"
                ),
            }
        )
        assert codes(findings) == ["SIM102"]
        assert "FeedbackSink" in findings[0].message

    def test_sink_observer_mutating_event_flagged(self):
        findings = flow(
            {
                "src/repro/obs/sink.py": (
                    "from .hooks import TraceSink\n"
                    "\n"
                    "\n"
                    "class Rewriter(TraceSink):\n"
                    "    def on_event(self, event):\n"
                    "        event.data['seen'] = True\n"
                ),
            }
        )
        assert codes(findings) == ["SIM102"]

    def test_non_sink_on_event_ignored(self):
        findings = flow(
            {
                "src/repro/sched/a.py": (
                    "class Reactor:\n"
                    "    def on_event(self, event):\n"
                    "        self.engine.call_after(1.0, self.poke)\n"
                ),
            }
        )
        assert findings == []


class TestSchemaDrift:
    def test_hardcoded_schema_version_literal(self):
        findings = flow(
            {
                "src/repro/perf/a.py": (
                    "def f(spec, fingerprint):\n"
                    "    return fingerprint(spec, schema_version=3)\n"
                ),
            }
        )
        assert codes(findings) == ["SIM103"]
        assert "schema_version=3" in findings[0].message

    def test_reader_key_never_written_is_drift(self):
        findings = flow(
            {
                "src/repro/sim/export.py": (
                    "def result_summary_dict(result):\n"
                    "    return {\n"
                    '        "schema_version": 1,\n'
                    '        "makespan": result.makespan,\n'
                    "    }\n"
                    "\n"
                    "\n"
                    "def load_result_json(payload):\n"
                    '    payload.setdefault("makespan", 0.0)\n'
                    '    payload.setdefault("hit_ratio", 0.0)\n'
                    "    return payload\n"
                ),
            }
        )
        assert codes(findings) == ["SIM103"]
        assert "hit_ratio" in findings[0].message

    def test_writer_without_schema_version_stamp(self):
        findings = flow(
            {
                "src/repro/sim/export.py": (
                    "def result_summary_dict(result):\n"
                    '    return {"makespan": result.makespan}\n'
                    "\n"
                    "\n"
                    "def load_result_json(payload):\n"
                    '    return payload["makespan"]\n'
                ),
            }
        )
        assert codes(findings) == ["SIM103"]
        assert "schema_version" in findings[0].message

    def test_key_manifest_constants_count_as_reads(self):
        findings = flow(
            {
                "src/repro/sim/export.py": (
                    '_REQUIRED = ("makespan", "ghost_key")\n'
                    "\n"
                    "\n"
                    "def result_summary_dict(result):\n"
                    "    return {\n"
                    '        "schema_version": 1,\n'
                    '        "makespan": result.makespan,\n'
                    "    }\n"
                    "\n"
                    "\n"
                    "def load_result_json(payload):\n"
                    "    for key in _REQUIRED:\n"
                    "        payload[key]\n"
                    "    return payload\n"
                ),
            }
        )
        assert "SIM103" in codes(findings)
        assert any("ghost_key" in f.message for f in findings)

    def test_matching_contract_is_clean(self):
        findings = flow(
            {
                "src/repro/sim/export.py": (
                    "def result_summary_dict(result):\n"
                    "    return {\n"
                    '        "schema_version": 1,\n'
                    '        "makespan": result.makespan,\n'
                    "    }\n"
                    "\n"
                    "\n"
                    "def load_result_json(payload):\n"
                    '    return payload["makespan"]\n'
                ),
            }
        )
        assert findings == []


class TestStaleSuppressions:
    def test_stale_code_reported_at_comment_line(self):
        findings = flow(
            {
                "src/repro/sched/a.py": (
                    "def f():\n"
                    "    return 1  # simlint: disable=SIM006\n"
                ),
            }
        )
        assert codes(findings) == ["SIM104"]
        assert findings[0].line == 2
        assert "SIM006" in findings[0].message

    def test_live_suppression_not_stale(self):
        findings = flow(
            {
                "src/repro/sched/a.py": (
                    "def f():\n"
                    "    print('x')  # simlint: disable=SIM006\n"
                ),
            }
        )
        assert findings == []

    def test_bare_disable_matching_nothing_is_stale(self):
        findings = flow(
            {
                "src/repro/sched/a.py": (
                    "def f():\n"
                    "    return 1  # simlint: disable\n"
                ),
            }
        )
        assert codes(findings) == ["SIM104"]
        assert "bare" in findings[0].message

    def test_live_flow_suppression_not_stale_under_select(self):
        sources = {
            "src/repro/sched/a.py": (
                "def f(engine):\n"
                "    return len(engine._heap)  # simlint: disable=SIM102\n"
            ),
        }
        config = make_config(["SIM104"])
        assert lint_sources(sources, config, flow=True).findings == []

    def test_suppression_of_live_flow_finding_not_stale(self):
        findings = flow(
            {
                "src/repro/sched/a.py": (
                    "def f(engine):\n"
                    "    return len(engine._heap)  # simlint: disable=SIM102\n"
                ),
            }
        )
        # The SIM102 is waived by the comment, and the comment is not
        # stale because it matched a real flow finding.
        assert findings == []


class TestHookContract:
    def test_dead_and_unconsumed_kinds(self):
        findings = flow(
            {
                "src/repro/obs/hooks.py": HOOKS_MODULE,
                "src/repro/cluster/a.py": (
                    "from repro.obs.hooks import kinds\n"
                    "\n"
                    "\n"
                    "def go(bus, now):\n"
                    "    if bus.enabled:\n"
                    "        bus.emit(now, kinds.USED, 'node')\n"
                    "        bus.emit(now, kinds.UNCONSUMED, 'node')\n"
                    "        kind = kinds.ALIASED\n"
                    "        bus.emit(now, kind, 'node')\n"
                ),
                "src/repro/obs/recorder.py": (
                    "from .hooks import kinds\n"
                    "\n"
                    "\n"
                    "def count(event):\n"
                    "    return event.kind == kinds.USED\n"
                ),
            }
        )
        by_message = {f.message.split(" ")[2] for f in findings}
        assert codes(findings) == ["SIM105", "SIM105", "SIM105"]
        assert by_message == {"DEAD", "UNCONSUMED", "ALIASED"}
        dead = next(f for f in findings if "DEAD" in f.message)
        assert "never emitted" in dead.message

    def test_alias_emission_via_local_variable_counts(self):
        # The cluster/node.py pattern: kind = kinds.A if ... else kinds.B
        findings = flow(
            {
                "src/repro/obs/hooks.py": (
                    'class kinds:\n    A = "x.a"\n    B = "x.b"\n'
                ),
                "src/repro/cluster/a.py": (
                    "from repro.obs.hooks import kinds\n"
                    "\n"
                    "\n"
                    "def go(bus, now, resumed):\n"
                    "    if bus.enabled:\n"
                    "        kind = kinds.A if resumed else kinds.B\n"
                    "        bus.emit(now, kind, 'node')\n"
                ),
                "src/repro/obs/recorder.py": (
                    "from .hooks import kinds\n"
                    "\n"
                    "\n"
                    "def count(event):\n"
                    "    return event.kind in (kinds.A, kinds.B)\n"
                ),
            }
        )
        assert findings == []

    def test_raw_string_emit_typo_gets_did_you_mean(self):
        findings = flow(
            {
                "src/repro/obs/hooks.py": 'class kinds:\n    USED = "demo.used"\n',
                "src/repro/cluster/a.py": (
                    "def go(bus, now):\n"
                    "    if bus.enabled:\n"
                    "        bus.emit(now, 'demo.usde', 'node')\n"
                ),
                "src/repro/obs/recorder.py": (
                    "from .hooks import kinds\n"
                    "\n"
                    "\n"
                    "def count(event):\n"
                    "    return event.kind == kinds.USED\n"
                ),
            }
        )
        assert "SIM105" in codes(findings)
        typo = next(f for f in findings if "demo.usde" in f.message)
        assert "did you mean 'demo.used'" in typo.message


class TestRendering:
    def test_flow_json_schema(self):
        payload = json.loads(render_json(lint_paths([str(SRC)], flow=True)))
        assert payload["schema_version"] == 2
        assert payload["tool"] == "simlint"
        assert payload["count"] == len(payload["findings"])
        assert payload["graph"]["modules"] > 50
        for entry in payload["findings"]:
            assert set(entry) == {"code", "path", "line", "col", "message"}

    def test_flow_text_uses_the_one_renderer(self):
        sources = {"src/repro/sched/a.py": "def f(engine):\n    engine.now = 1.0\n"}
        plain = lint_sources(sources)
        flowed = lint_sources(sources, flow=True)
        assert render_text(plain) == "simlint: clean (1 file checked)"
        assert render_text(flowed).endswith("simlint: 1 finding(s) in 1 file")
        assert "SIM102" in render_text(flowed)


#: One line with a per-file finding (SIM001) and a flow finding (SIM102).
CLOCK_STORE = (
    "import time\n"
    "\n"
    "\n"
    "def f(engine):\n"
    "    engine.now = time.time()\n"
)


class TestFlowIsASuperset:
    def test_flow_run_keeps_per_file_findings(self):
        sources = {"src/repro/sched/a.py": CLOCK_STORE}
        assert codes(lint_sources(sources).findings) == ["SIM001"]
        assert codes(flow(sources)) == ["SIM102", "SIM001"]
        # --select filters both kinds alike.
        config = make_config(["SIM102"])
        assert codes(lint_sources(sources, config, flow=True).findings) == [
            "SIM102"
        ]
        assert lint_sources(sources, config).findings == []

    def test_one_suppression_waives_both_kinds(self):
        sources = {
            "src/repro/sched/a.py": CLOCK_STORE.replace(
                "time.time()\n", "time.time()  # simlint: disable\n"
            )
        }
        assert flow(sources) == []
        assert lint_sources(sources).findings == []


class TestDidYouMean:
    def test_suggest_rule_codes(self):
        assert "SIM101" in suggest_rule_codes("SIM11")
        assert suggest_rule_codes("ZZZZZZ") == []

    def test_flow_codes_selectable(self, capsys):
        assert main(["lint", "--flow", "--select", "SIM101", str(SRC)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_catalogue_lists_flow_rules(self, capsys):
        assert main(["lint", "--rules"]) == 0
        out = capsys.readouterr().out
        for code in FLOW_RULES:
            assert code in out


class TestCli:
    def test_flow_clean_on_shipped_project(self, capsys):
        assert main(["lint", "--flow", *PROJECT]) == 0
        assert "clean" in capsys.readouterr().out

    def test_flow_reports_every_per_file_finding(self, capsys):
        assert main(["lint", "--format", "json", str(FIXTURES)]) == 1
        plain = json.loads(capsys.readouterr().out)
        assert main(["lint", "--flow", "--format", "json", str(FIXTURES)]) == 1
        flowed = json.loads(capsys.readouterr().out)
        assert plain["count"] > 0
        assert all(entry in flowed["findings"] for entry in plain["findings"])
        assert flowed["files_checked"] == plain["files_checked"]


class TestTreeIsFlowClean:
    def test_flow_lint_clean_on_shipped_tree(self):
        report = lint_paths(PROJECT, flow=True)
        assert report.files_checked > 50
        assert report.findings == [], render_text(report)
