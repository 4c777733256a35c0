"""End-to-end simulator invariants: conservation, determinism, results."""

import pytest

from repro.core import units
from repro.exec import Executor
from repro.sim.config import quick_config
from repro.sim.runner import RunSpec, load_sweep, run_sweep
from repro.sim.simulator import Simulation, run_simulation
from repro.sched.base import create_policy

from .policy_helpers import build_sim, micro_config, trace


POLICIES = [
    ("farm", {}),
    ("splitting", {}),
    ("cache-splitting", {}),
    ("out-of-order", {}),
    ("replication", {}),
    ("delayed", {"period": 4 * units.HOUR, "stripe_events": 400}),
    ("adaptive", {"stripe_events": 400}),
    ("mixed", {"period": 4 * units.HOUR, "stripe_events": 400}),
]


@pytest.mark.parametrize("policy,params", POLICIES)
class TestEveryPolicy:
    """Invariants every policy must satisfy on a mixed workload."""

    ENTRIES = [
        (i * 700.0, (i * 17_389) % 60_000, 200 + 91 * (i % 13)) for i in range(45)
    ]

    def _run(self, policy, params):
        return build_sim(
            policy,
            trace(*self.ENTRIES),
            micro_config(duration=10 * units.DAY),
            **params,
        )

    def test_all_jobs_complete(self, policy, params):
        sim = self._run(policy, params)
        result = sim.run()
        assert result.jobs_arrived == 45
        assert result.jobs_completed == 45

    def test_job_invariants_hold(self, policy, params):
        sim = self._run(policy, params)
        sim.run()
        for job in sim.jobs.values():
            job.check_invariants()
            assert job.events_done == job.n_events
            assert job.first_start is not None
            assert job.completion is not None
            assert job.completion >= job.first_start >= job.arrival_time

    def test_event_conservation(self, policy, params):
        sim = self._run(policy, params)
        result = sim.run()
        total_events = sum(n for _, _, n in self.ENTRIES)
        processed = sum(result.events_by_source.values())
        assert processed == total_events

    def test_caches_within_capacity(self, policy, params):
        sim = self._run(policy, params)
        sim.run()
        for node in sim.cluster:
            node.cache.validate()

    def test_deterministic(self, policy, params):
        first = self._run(policy, params).run()
        second = self._run(policy, params).run()
        assert [r.completion for r in first.records] == [
            r.completion for r in second.records
        ]
        assert first.tertiary_events_read == second.tertiary_events_read


class TestSeedSensitivity:
    def test_different_seeds_different_workloads(self):
        a = run_simulation(quick_config(seed=1, duration=3 * units.DAY), "farm")
        b = run_simulation(quick_config(seed=2, duration=3 * units.DAY), "farm")
        assert a.jobs_arrived != b.jobs_arrived or (
            [r.completion for r in a.records]
            != [r.completion for r in b.records]
        )

    def test_same_seed_identical(self):
        a = run_simulation(quick_config(seed=3, duration=3 * units.DAY), "out-of-order")
        b = run_simulation(quick_config(seed=3, duration=3 * units.DAY), "out-of-order")
        assert a.jobs_arrived == b.jobs_arrived
        assert a.measured.mean_speedup == b.measured.mean_speedup


class TestResultFields:
    @pytest.fixture(scope="class")
    def result(self):
        return run_simulation(
            quick_config(seed=4, duration=4 * units.DAY, arrival_rate_per_hour=4.0),
            "out-of-order",
        )

    def test_brief_mentions_policy(self, result):
        assert "out-of-order" in result.brief()

    def test_cache_hit_fraction_bounded(self, result):
        assert 0.0 <= result.cache_hit_fraction() <= 1.0

    def test_utilization_bounded(self, result):
        assert 0.0 <= result.node_utilization <= 1.0

    def test_redundancy_at_least_one(self, result):
        assert result.tertiary_redundancy >= 1.0

    def test_policy_params_present(self, result):
        assert result.policy_params["policy"] == "out-of-order"

    def test_engine_events_positive(self, result):
        assert result.engine_events > 0


class TestRunner:
    def test_sweep_serial(self):
        specs = load_sweep(
            quick_config(duration=2 * units.DAY), "farm", [1.0, 2.0]
        )
        sweep = run_sweep(specs, executor=Executor(jobs=1))
        assert len(sweep.results) == 2
        series = sweep.series("speedup")
        assert len(series["farm"]) == 2

    def test_sweep_parallel(self):
        specs = load_sweep(
            quick_config(duration=2 * units.DAY), "farm", [1.0, 2.0, 3.0]
        )
        sweep = run_sweep(specs, executor=Executor(jobs=2))
        assert len(sweep.results) == 3

    def test_parallel_matches_serial(self):
        specs = load_sweep(
            quick_config(duration=2 * units.DAY), "out-of-order", [1.0, 2.0]
        )
        serial = run_sweep(specs, executor=Executor(jobs=1))
        parallel = run_sweep(specs, executor=Executor(jobs=2))
        for a, b in zip(serial.results, parallel.results):
            assert a.measured.mean_speedup == b.measured.mean_speedup

    def test_series_unknown_metric(self):
        specs = load_sweep(quick_config(duration=units.DAY), "farm", [1.0])
        sweep = run_sweep(specs)
        with pytest.raises(KeyError):
            sweep.series("nope")

    def test_to_json(self):
        import json

        specs = load_sweep(quick_config(duration=units.DAY), "farm", [1.0])
        from repro.sim.export import SCHEMA_VERSION

        sweep = run_sweep(specs)
        payload = json.loads(sweep.to_json())
        assert payload["schema_version"] == SCHEMA_VERSION
        point = payload["results"][0]
        assert point["policy"] == "farm"
        assert point["seed"] == specs[0].config.seed
        assert "faults" in point  # None without injection, summary with
        assert point["sched"]["mode"] == "central"

    def test_max_sustained_load(self):
        specs = load_sweep(
            quick_config(duration=2 * units.DAY), "farm", [1.0, 2.0]
        )
        sweep = run_sweep(specs)
        assert sweep.max_sustained_load()["farm"] >= 1.0


class TestPrime:
    def test_double_prime_is_idempotent(self):
        sim = build_sim("farm", trace((0.0, 0, 100)))
        sim.prime()
        sim.prime()
        result = sim.run()
        assert result.jobs_arrived == 1

    def test_trace_clipped_to_duration(self):
        sim = build_sim(
            "farm",
            trace((0.0, 0, 100), (100 * units.DAY, 0, 100)),
            micro_config(duration=units.DAY),
        )
        result = sim.run()
        assert result.jobs_arrived == 1
