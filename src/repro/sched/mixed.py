"""Mixed immediate/delayed scheduling — the paper's §7 future work.

"We also intend to study mixed scheduling strategies combining period
delays and immediate processing of job requests."

This policy accumulates jobs into periods like the delayed scheduler, but
a job arriving while some node is idle is scheduled immediately (with the
same stripe-splitting machinery): the cluster never idles while work
waits for a boundary, removing delayed scheduling's worst low-load
pathology while keeping its batching benefit under saturation pressure.
"""

from __future__ import annotations

from typing import Dict

from ..core import units
from ..workload.jobs import Job
from .base import register_policy
from .delayed import DelayedPolicy


@register_policy
class MixedDelayPolicy(DelayedPolicy):
    """Delayed scheduling with immediate dispatch onto idle capacity."""

    name = "mixed"

    def __init__(
        self, period: float = 2 * units.DAY, stripe_events: int = 5_000
    ) -> None:
        super().__init__(period=period, stripe_events=stripe_events)
        self.stats_immediate_jobs = 0

    def on_job_arrival(self, job: Job) -> None:
        if self.period > 0 and self.cluster.first_idle() is None:
            self.pending_jobs.append(job)
            return
        self.stats_immediate_jobs += 1
        job.schedule_time = self.engine.now
        self._schedule_batch([job])

    def describe(self) -> Dict[str, object]:
        info = super().describe()
        info["policy"] = self.name
        return info

    def extra_stats(self) -> Dict[str, float]:
        stats = super().extra_stats()
        stats["immediate_jobs"] = float(self.stats_immediate_jobs)
        return stats
