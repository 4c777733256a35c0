"""Tests for the execution layer (repro.exec).

Covers content-addressed fingerprints and caching (the checkpoint an
interrupted sweep reruns from), crash isolation with each spec run
exactly once and no failure cached, worker-count resolution, the spec
timeout, and bit-identical sweep output regardless of the worker count.
"""

import json

import pytest

from repro.core import units
from repro.core.errors import ConfigurationError, ExecError
from repro.exec import (
    Executor,
    ResultCache,
    SpecError,
    make_cache,
    resolve_jobs,
    spec_fingerprint,
)
from repro.sim.config import quick_config
from repro.sim.runner import RunSpec, load_sweep, run_sweep


def _specs(n=3, policy="farm", **kwargs):
    loads = [0.5 + 0.5 * i for i in range(n)]
    return load_sweep(
        quick_config(duration=units.DAY, **kwargs), policy, loads
    )


def _bad_spec(label="boom"):
    return RunSpec.make(quick_config(duration=units.DAY), "no-such-policy",
                        label=label)


class TestFingerprint:
    def test_stable_for_equal_specs(self):
        a = RunSpec.make(quick_config(), "farm", label="x")
        b = RunSpec.make(quick_config(), "farm", label="x")
        assert spec_fingerprint(a, 3) == spec_fingerprint(b, 3)

    def test_label_is_presentation_only(self):
        a = RunSpec.make(quick_config(), "farm", label="one")
        b = RunSpec.make(quick_config(), "farm", label="two")
        assert spec_fingerprint(a, 3) == spec_fingerprint(b, 3)

    @pytest.mark.parametrize(
        "other",
        [
            RunSpec.make(quick_config(seed=99), "farm"),
            RunSpec.make(quick_config(), "out-of-order"),
            RunSpec.make(quick_config(), "delayed", period=100.0),
        ],
    )
    def test_sensitive_to_config_policy_params(self, other):
        base = RunSpec.make(quick_config(), "farm")
        assert spec_fingerprint(base, 3) != spec_fingerprint(other, 3)

    def test_sensitive_to_schema_version(self):
        spec = RunSpec.make(quick_config(), "farm")
        assert spec_fingerprint(spec, 3) != spec_fingerprint(spec, 4)


class TestRunSpecParameters:
    def test_unknown_policy_parameter_rejected(self):
        with pytest.raises(ConfigurationError) as info:
            RunSpec.make(quick_config(), "farm", processes=1)
        assert "processes" in str(info.value)

    def test_message_names_the_accepted_parameters(self):
        with pytest.raises(ConfigurationError) as info:
            RunSpec.make(quick_config(), "delayed", perod=100.0)
        message = str(info.value)
        assert "perod" in message
        assert "period" in message and "stripe_events" in message

    @pytest.mark.parametrize(
        "policy, params, message",
        [
            ("delayed", {"period": -5.0}, "period must be >= 0"),
            ("adaptive", {"stripe_events": 0}, "stripe_events must be >= 1"),
            ("decentral", {"grant_batch": 0}, "grant_batch must be >= 1"),
            ("decentral-nolocal", {"bid_window": 0}, "bid_window must be >= 1"),
            ("decentral", {"task_events": 0}, "task_events must be >= 1"),
        ],
    )
    def test_out_of_range_value_rejected(self, policy, params, message):
        with pytest.raises(ConfigurationError, match=message):
            RunSpec.make(quick_config(), policy, **params)

    def test_known_parameters_accepted(self):
        spec = RunSpec.make(quick_config(), "delayed", period=100.0)
        assert spec.policy_params == (("period", 100.0),)


class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path / "store", schema_version=3)
        fp = "ab" + "0" * 62
        assert cache.get(fp) is None
        cache.put(fp, {"answer": 42})
        assert fp in cache
        assert cache.get(fp) == {"answer": 42}

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "store", schema_version=3)
        fp = "cd" + "0" * 62
        cache.put(fp, [1, 2, 3])
        cache.path_for(fp).write_bytes(b"not a pickle")
        assert cache.get(fp) is None

    def test_schema_version_namespaces(self, tmp_path):
        v3 = ResultCache(tmp_path / "store", schema_version=3)
        v4 = ResultCache(tmp_path / "store", schema_version=4)
        fp = "ef" + "0" * 62
        v3.put(fp, "three")
        assert v4.get(fp) is None

    def test_make_cache_uses_results_schema(self, tmp_path):
        from repro.sim.export import SCHEMA_VERSION

        assert make_cache(tmp_path).schema_version == SCHEMA_VERSION


class TestResolveJobs:
    def test_explicit_wins_and_is_clamped(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(3, 10) == 3
        assert resolve_jobs(100, 4) == 4
        assert resolve_jobs(0, 4) == 1

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "2")
        assert resolve_jobs(None, 10) == 2
        monkeypatch.setenv("REPRO_JOBS", "nope")
        with pytest.raises(ValueError):
            resolve_jobs(None, 10)

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_env_below_one_is_refused(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_JOBS", value)
        with pytest.raises(ValueError, match="REPRO_JOBS must be an integer"):
            resolve_jobs(None, 10)

    def test_tiny_batches_stay_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None, 1) == 1
        assert resolve_jobs(None, 2) == 1


class TestCrashIsolation:
    def test_bad_spec_lands_in_slot_others_complete(self):
        specs = _specs(2) + [_bad_spec()]
        sweep = run_sweep(specs, executor=Executor(jobs=1), on_error="capture")
        assert sweep.n_failed == 1
        error = sweep.results[2]
        assert isinstance(error, SpecError)
        assert error.kind == "ConfigurationError"
        assert error.label == "boom"
        assert len(list(sweep.pairs())) == 2
        # Failed slot is an error object in the JSON too.
        payload = json.loads(sweep.to_json())
        assert payload["results"][2]["error"]["kind"] == "ConfigurationError"

    def test_pool_mode_survives_crash(self):
        specs = _specs(3) + [_bad_spec()]
        sweep = run_sweep(specs, executor=Executor(jobs=2), on_error="capture")
        assert sweep.n_failed == 1
        assert len(list(sweep.pairs())) == 3

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failure_runs_exactly_once(self, jobs, monkeypatch, tmp_path):
        # A seeded spec that fails fails the same way on a rerun, so
        # neither backend runs it a second time.  Runs are logged to a
        # file: pool workers are forked and inherit the patch.  One spec
        # at jobs=2 would resolve to the serial backend, so the pool
        # case runs a good spec beside the bad one.
        import repro.exec.executor as executor_module

        real = executor_module._execute_spec
        log = tmp_path / "runs.log"

        def logged(spec):
            with open(log, "a") as handle:
                handle.write(spec.label + "\n")
            return real(spec)

        monkeypatch.setattr(executor_module, "_execute_spec", logged)
        specs = _specs(jobs - 1) + [_bad_spec()]
        events = []
        outcome = Executor(jobs=jobs).run(specs, progress=events.append)
        assert log.read_text().splitlines().count("boom") == 1
        assert isinstance(outcome.results[-1], SpecError)
        assert (outcome.stats.executed, outcome.stats.failed) == (jobs, 1)
        errors = [event.error for event in events if event.error is not None]
        assert errors == [outcome.results[-1]]

    def test_failed_slot_is_not_cached(self, tmp_path):
        specs = _specs(1) + [_bad_spec()]
        first = Executor(jobs=1, cache=make_cache(tmp_path)).run(specs)
        assert first.stats.failed == 1
        rerun = Executor(jobs=1, cache=make_cache(tmp_path)).run(specs)
        assert rerun.stats.cache_hits == 1
        assert (rerun.stats.executed, rerun.stats.failed) == (1, 1)
        assert isinstance(rerun.results[1], SpecError)

    def test_raise_mode_raises_exec_error(self):
        with pytest.raises(ExecError, match="no-such-policy"):
            run_sweep([_bad_spec()], executor=Executor(jobs=1))


class TestDeterminism:
    def test_to_json_bit_identical_across_jobs(self):
        specs = _specs(4, policy="out-of-order")
        serial = run_sweep(specs, executor=Executor(jobs=1))
        pooled = run_sweep(specs, executor=Executor(jobs=3))
        assert serial.to_json() == pooled.to_json()

    def test_cache_hits_reproduce_bytes(self, tmp_path):
        specs = _specs(3)
        cold = run_sweep(
            specs, executor=Executor(jobs=1, cache=make_cache(tmp_path))
        )
        warm = run_sweep(
            specs, executor=Executor(jobs=2, cache=make_cache(tmp_path))
        )
        assert warm.stats.cache_hits == 3
        assert warm.stats.executed == 0
        assert cold.to_json() == warm.to_json()


class TestProgressStreaming:
    def test_progress_fires_per_completion_in_pool_mode(self):
        events = []
        executor = Executor(jobs=2)
        executor.run(_specs(4), progress=events.append)
        assert [e.done for e in events] == [1, 2, 3, 4]
        assert all(e.total == 4 for e in events)
        assert not any(e.cached for e in events)

    def test_progress_marks_cache_hits(self, tmp_path):
        executor = Executor(jobs=1, cache=make_cache(tmp_path))
        executor.run(_specs(2))
        events = []
        Executor(jobs=1, cache=make_cache(tmp_path)).run(
            _specs(2), progress=events.append
        )
        assert all(e.cached for e in events)
        assert all(e.brief.startswith("cached ") for e in events)


class TestStats:
    def test_brief_is_greppable(self):
        sweep = run_sweep(_specs(1), executor=Executor(jobs=1))
        brief = sweep.stats.brief()
        assert brief.startswith("exec: total=1 ")
        assert "cache_hits=0" in brief
        assert "timeouts=0" in brief


class TestSpecTimeout:
    def test_resolve_explicit_env_and_validation(self, monkeypatch):
        from repro.exec import SPEC_TIMEOUT_ENV, resolve_spec_timeout

        monkeypatch.delenv(SPEC_TIMEOUT_ENV, raising=False)
        assert resolve_spec_timeout(None) is None
        assert resolve_spec_timeout(5.0) == 5.0
        monkeypatch.setenv(SPEC_TIMEOUT_ENV, "2.5")
        assert resolve_spec_timeout(None) == 2.5
        assert resolve_spec_timeout(9.0) == 9.0  # explicit beats env
        monkeypatch.setenv(SPEC_TIMEOUT_ENV, "soon")
        with pytest.raises(ValueError):
            resolve_spec_timeout(None)
        with pytest.raises(ValueError):
            resolve_spec_timeout(0.0)

    def test_stuck_worker_becomes_timeout_spec_error(self, monkeypatch):
        import time

        import repro.exec.executor as executor_module

        real = executor_module._execute_spec

        def maybe_hang(spec):
            if spec.label == "hang":
                time.sleep(300)  # never finishes within the timeout
            return real(spec)

        # Pool workers are forked, so they inherit the patched function.
        monkeypatch.setattr(executor_module, "_execute_spec", maybe_hang)
        specs = _specs(1) + [
            RunSpec.make(quick_config(duration=units.DAY), "farm",
                         label="hang")
        ]
        outcome = Executor(jobs=2, spec_timeout=3.0).run(specs)

        assert not isinstance(outcome.results[0], SpecError)
        error = outcome.results[1]
        assert isinstance(error, SpecError)
        assert error.kind == "timeout"
        assert "3" in error.message and "timeout" in error.message
        assert outcome.stats.timeouts == 1
        assert outcome.stats.failed == 1
        assert "timeouts=1" in outcome.stats.brief()

    def test_timeout_forces_pool_even_serial(self, monkeypatch):
        # jobs=1 with a timeout must still run in a killable worker
        # process, not in-process: only a separate process can be
        # terminated once stuck.  Witness via worker PIDs.
        import os

        import repro.exec.executor as executor_module

        monkeypatch.setattr(
            executor_module, "_execute_spec", lambda spec: os.getpid()
        )
        inline = Executor(jobs=1).run(_specs(2))
        assert [pid == os.getpid() for pid in inline.results] == [True, True]
        pooled = Executor(jobs=1, spec_timeout=60.0).run(_specs(2))
        assert pooled.stats.failed == 0
        assert all(pid != os.getpid() for pid in pooled.results)
