"""The sweep's cache-aware placements, pinned across commits.

``goldens/sweep_policies.json`` holds the simulated statistics of the
four policies whose placement scans ask the caches about every candidate
(``decentral``, ``decentral-nolocal``, ``cache-splitting`` and
``delayed``), each at the sweep's three loads on the quick 5-day config.
It was written by the scans that built an ``Interval`` per lookup and a
``Bid`` per (node, task) pair, so a lookup that reads one different
bound, or a score or grant that differs in one bit, cannot pass it.

Besides the simulated statistics, each point records the engine's
``scheduled``/``dispatched``/``cancelled`` counters and the policy's own
counters (a decentral run's rounds, bids, grants, messages and control
bytes among them).
"""

import dataclasses
import json
import os

import pytest

from repro.core import units
from repro.sched.base import create_policy
from repro.sim.config import quick_config
from repro.sim.simulator import Simulation

GOLDENS = os.path.join(os.path.dirname(__file__), "goldens", "sweep_policies.json")

_POLICIES = ("decentral", "decentral-nolocal", "cache-splitting", "delayed")
_LOADS = (0.5, 1.0, 1.5)

#: ``PerformanceSummary`` fields that are per-job sample arrays, not
#: statistics (their moments are already in the snapshot).
_SAMPLE_ARRAYS = ("waiting_times", "waiting_times_excl_delay", "speedups")


def _point(policy: str, load: float) -> str:
    return f"{policy}@{load}"


def _snapshot(policy: str, load: float) -> dict:
    config = quick_config(arrival_rate_per_hour=load, duration=5 * units.DAY, seed=7)
    sim = Simulation(config, create_policy(policy))
    result = sim.run()
    measured = {
        field.name: getattr(result.measured, field.name)
        for field in dataclasses.fields(result.measured)
        if field.name not in _SAMPLE_ARRAYS
    }
    snapshot = {
        "jobs_arrived": result.jobs_arrived,
        "jobs_completed": result.jobs_completed,
        "events_by_source": dict(result.events_by_source),
        "tertiary_events_read": result.tertiary_events_read,
        "tertiary_distinct_events": result.tertiary_distinct_events,
        "tertiary_redundancy": result.tertiary_redundancy,
        "node_utilization": result.node_utilization,
        "measured": measured,
        "overload": dataclasses.asdict(result.overload),
        "sched": dataclasses.asdict(result.sched) if result.sched else None,
        "policy_stats": result.policy_stats,
        "engine": {
            "scheduled": sim.engine.stats.scheduled,
            "dispatched": sim.engine.stats.dispatched,
            "cancelled": sim.engine.stats.cancelled,
        },
    }
    # Through JSON and back, so a fresh snapshot and the committed file
    # hold the same types (numpy scalars become floats).
    return json.loads(json.dumps(snapshot, default=float))


def write_sweep_policies_golden(path: str = GOLDENS) -> None:
    """Regenerate ``goldens/sweep_policies.json`` (only on a deliberate
    change of a placement or a bid score)."""
    payload = {
        _point(policy, load): _snapshot(policy, load)
        for policy in _POLICIES
        for load in _LOADS
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


def _golden() -> dict:
    with open(GOLDENS, "r", encoding="utf-8") as handle:
        return json.load(handle)


class TestCrossCommitGolden:
    @pytest.mark.parametrize("load", _LOADS)
    @pytest.mark.parametrize("policy", _POLICIES)
    def test_run_matches_committed_golden(self, policy, load):
        assert _snapshot(policy, load) == _golden()[_point(policy, load)]

    def test_golden_covers_every_point(self):
        golden = _golden()
        assert sorted(golden) == sorted(
            _point(policy, load) for policy in _POLICIES for load in _LOADS
        )

    def test_golden_exercises_the_scans(self):
        golden = _golden()
        for load in _LOADS:
            for policy in ("decentral", "decentral-nolocal"):
                stats = golden[_point(policy, load)]["policy_stats"]
                assert stats["rounds"] > 0 and stats["grants"] > 0
            assert golden[_point("cache-splitting", load)]["events_by_source"]["cache"] > 0
        # Locality scoring is what separates the two decentral variants.
        assert (
            golden[_point("decentral", 1.5)]["events_by_source"]
            != golden[_point("decentral-nolocal", 1.5)]["events_by_source"]
        )
