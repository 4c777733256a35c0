"""Processing-farm scheduling (§3.1) — the baseline in use at CERN.

"Jobs are queued in front of the cluster and are transmitted to the first
available node.  This node remains dedicated to that job until its end.
No disk caching is performed."  The cluster behaves as an M/Er/m queue
(validated against the Allen–Cunneen approximation in
``repro.analysis.queueing``).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict

from ..cluster.access import DataAccessPlanner, NoCachePlanner
from ..cluster.node import Node
from ..data.tertiary import TertiaryStorage
from ..workload.jobs import Job, Subjob
from .base import SchedulerPolicy, register_policy


@register_policy
class ProcessingFarmPolicy(SchedulerPolicy):
    """FCFS, one whole job per node, no caching, no splitting."""

    name = "farm"

    def __init__(self) -> None:
        super().__init__()
        self.queue: Deque[Job] = deque()

    def make_planner(self, tertiary: TertiaryStorage) -> DataAccessPlanner:
        return NoCachePlanner(tertiary)

    # -- notifications -------------------------------------------------------

    def on_job_arrival(self, job: Job) -> None:
        node = self.cluster.first_idle()
        if node is not None:
            self._run_whole_job(node, job)
        else:
            self.queue.append(job)

    def on_subjob_end(self, node: Node, subjob: Subjob) -> None:
        # A farm job has exactly one subjob, so a subjob end is always a
        # job end; reaching here means an invariant broke.
        raise AssertionError("farm jobs have a single subjob")

    def on_job_end(self, node: Node, job: Job, subjob: Subjob) -> None:
        if self.queue and node.idle:
            self._run_whole_job(node, self.queue.popleft())

    def on_node_recovered(self, node: Node) -> None:
        # The farm only dispatches on arrivals and completions; a node
        # coming back up is a third dispatch opportunity.
        if self.queue and node.idle:
            self._run_whole_job(node, self.queue.popleft())

    # -- internals ----------------------------------------------------------------

    def _run_whole_job(self, node: Node, job: Job) -> None:
        subjob = job.make_root_subjob()
        self.start_on(node, subjob)

    def describe(self) -> Dict[str, object]:
        return {"policy": self.name}

    def extra_stats(self) -> Dict[str, float]:
        return {"queued_jobs_at_end": float(len(self.queue))}
