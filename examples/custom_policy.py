#!/usr/bin/env python
"""Writing a custom scheduling policy with the plugin API.

The paper's scheduler "implements a plugin model, enabling new scheduling
policies to be easily added".  This example adds one: **smallest job
first** — a farm-style scheduler that dequeues the smallest waiting job
instead of the oldest, a classic mean-waiting-time optimisation (SJF) that
the paper's FCFS fairness principle deliberately forgoes.  We then measure
what that fairness costs.

Usage::

    python examples/custom_policy.py
"""

from collections import deque

from repro import paper_config, units
from repro.analysis.tables import format_table
from repro.cluster.access import DataAccessPlanner, NoCachePlanner
from repro.sched.base import SchedulerPolicy, register_policy
from repro.sim.simulator import run_simulation
from repro.workload.generator import WorkloadGenerator
from repro.core.rng import RandomStreams


@register_policy
class SmallestJobFirstPolicy(SchedulerPolicy):
    """Farm scheduling, but the queue is served smallest-job-first."""

    name = "sjf-farm"

    def __init__(self) -> None:
        super().__init__()
        self.queue = []  # kept sorted by n_events

    def make_planner(self, tertiary) -> DataAccessPlanner:
        return NoCachePlanner(tertiary)

    def on_job_arrival(self, job) -> None:
        node = self.cluster.first_idle()
        if node is not None:
            self.start_on(node, job.make_root_subjob())
        else:
            self.queue.append(job)
            self.queue.sort(key=lambda j: j.n_events)

    def on_subjob_end(self, node, subjob) -> None:
        raise AssertionError("sjf-farm jobs have a single subjob")

    def on_job_end(self, node, job, subjob) -> None:
        if self.queue and node.idle:
            self.start_on(node, self.queue.pop(0).make_root_subjob())

    def extra_stats(self):
        return {"queued_jobs_at_end": float(len(self.queue))}


def main() -> None:
    config = paper_config(
        arrival_rate_per_hour=1.0, duration=24 * units.DAY, seed=5
    )
    generator = WorkloadGenerator(
        dataspace=config.dataspace(),
        arrival_rate_per_hour=config.arrival_rate_per_hour,
        job_size=config.job_size_distribution(),
        start_distribution=config.start_distribution(),
        streams=RandomStreams(config.seed),
    )
    trace = generator.generate_list(config.duration)

    rows = []
    for policy in ("farm", "sjf-farm"):
        result = run_simulation(config, policy, trace=trace)
        summary = result.measured
        waits = summary.waiting_times
        rows.append(
            [
                policy,
                units.fmt_duration(summary.mean_waiting),
                units.fmt_duration(summary.median_waiting),
                units.fmt_duration(summary.p95_waiting),
                units.fmt_duration(summary.max_waiting),
            ]
        )
        print(f"  done: {result.brief()}")

    print()
    print(
        format_table(
            ["policy", "mean wait", "median wait", "p95 wait", "max wait"],
            rows,
            title="FCFS farm vs smallest-job-first farm (same trace)",
        )
    )
    print(
        "\nSJF cuts the mean wait but stretches the tail — the paper's FCFS\n"
        "principle ('fair treatment of user requests') is exactly the\n"
        "refusal of this trade; its policies attack waiting time through\n"
        "parallelism and caching instead of reordering by size."
    )


if __name__ == "__main__":
    main()
