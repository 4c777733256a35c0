"""Property-based fuzzing of the scheduling policies.

Hypothesis generates small random workloads; every policy must satisfy
the global invariants on each of them: every job completes, every event
is processed exactly once, subjobs always tile their jobs, caches stay
within capacity, timestamps are ordered.  Shrinking then produces
minimal counterexamples when a scheduling bug slips in.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import units
from repro.workload.jobs import SubjobState

from .policy_helpers import build_sim, micro_config, trace


@st.composite
def workloads(draw):
    """A short trace of up to 8 jobs in a 100k-event space."""
    n_jobs = draw(st.integers(1, 8))
    entries = []
    clock = 0.0
    for _ in range(n_jobs):
        clock += draw(st.floats(0.0, 3000.0))
        start = draw(st.integers(0, 90_000))
        length = draw(st.integers(1, 8_000))
        entries.append((clock, start, min(length, 100_000 - start)))
    return entries


POLICIES = [
    ("farm", {}),
    ("splitting", {}),
    ("cache-splitting", {}),
    ("out-of-order", {}),
    ("replication", {}),
    ("delayed", {"period": 2 * units.HOUR, "stripe_events": 300}),
    ("adaptive", {"stripe_events": 300}),
    ("mixed", {"period": 2 * units.HOUR, "stripe_events": 300}),
    ("decentral", {"task_events": 400}),
    ("decentral-nolocal", {"task_events": 400, "grant_batch": 2}),
]

FUZZ_SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.mark.parametrize("policy,params", POLICIES)
class TestPolicyInvariantsUnderFuzz:
    @FUZZ_SETTINGS
    @given(entries=workloads())
    def test_invariants(self, policy, params, entries):
        sim = build_sim(
            policy,
            trace(*entries),
            micro_config(duration=6 * units.DAY),
            **params,
        )
        result = sim.run()

        # 1. Everything completes (the horizon dwarfs the work).
        assert result.jobs_completed == len(entries)

        # 2. Exact event conservation.
        total = sum(n for _, _, n in entries)
        assert sum(result.events_by_source.values()) == total

        for job in sim.jobs.values():
            # 3. Subjobs tile the job; progress sums up.
            job.check_invariants()
            assert job.events_done == job.n_events
            assert all(s.state is SubjobState.DONE for s in job.subjobs)
            # 4. Timestamps ordered.
            assert job.arrival_time <= job.schedule_time
            assert job.schedule_time <= job.first_start
            assert job.first_start <= job.completion

        for node in sim.cluster:
            # 5. Caches consistent and within capacity.
            node.cache.validate()
            # 6. Nodes idle at the end (no phantom work).
            assert node.idle
