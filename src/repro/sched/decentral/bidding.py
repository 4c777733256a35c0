"""Per-node bid scoring: "how good is each task *for me*, right now?"

Each node answers against purely local state — its own
:class:`~repro.data.cache.LRUSegmentCache` contents, the shared cost
model, and its queue depth — which is the whole point of the
decentralized design: the expensive "where is this data cached?" scan
the central policies run on every arrival is replaced by N independent
constant-state lookups.

Scores combine three terms:

* **locality / cost estimate** — the speed gain of running the task here
  versus streaming it from tertiary storage, from the cached fraction
  and the cost model's per-event times (0 when nothing is cached, ~2.1
  when fully cached under the paper's 0.26/0.8 s anchors);
* **aging** — ``(now - arrival) / aging_tau``, the anti-starvation term:
  a cold-data job's tasks eventually outscore everyone's cached work;
* **load** — a penalty per already-queued task, so a node that still
  holds granted work does not hoard more.

A round scores in two steps.  :func:`window_rows` turns the candidate
tasks into ``(start, end, length, aging)`` rows once per round — the
terms every bidder shares — and :func:`score_window` then scores the
whole window for one node with one cache lookup per task.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ...data.cache import LRUSegmentCache
from ...workload.jobs import Subjob

#: Score penalty per task already queued on the bidding node.
LOAD_PENALTY = 0.1

#: One candidate's shared terms: remaining ``start``, ``end``, their
#: ``length`` and the aging term.
WindowRow = Tuple[int, int, int, float]


def window_rows(
    tasks: Sequence[Subjob], now: float, aging_tau: float
) -> List[WindowRow]:
    """The round's ``(start, end, length, aging)`` row of each task: its
    remaining (unprocessed) bounds and ``(now - arrival) / aging_tau``."""
    rows: List[WindowRow] = []
    for task in tasks:
        segment = task.segment
        start = segment.start + task.processed
        end = segment.end
        age_seconds = now - task.job.arrival_time
        aging = age_seconds / aging_tau if aging_tau > 0 else 0.0
        rows.append((start, end, end - start, aging))
    return rows


def score_window(
    cache: LRUSegmentCache,
    window: Sequence[WindowRow],
    cached_event_time: float,
    uncached_event_time: float,
    *,
    locality_weight: float,
    queue_depth: int = 0,
) -> List[float]:
    """Bid score of every window task for the node owning ``cache``
    (higher wins), in window order.

    With ``locality_weight == 0`` the locality term is ``0.0 * gain``,
    a zero that leaves ``aging`` unchanged (``gain`` is finite for
    positive per-event times), so the cache is not asked at all.
    """
    penalty = LOAD_PENALTY * queue_depth
    if locality_weight == 0:
        return [aging - penalty for _, _, _, aging in window]
    cached_events = cache.cached_events
    scores: List[float] = []
    for start, end, length, aging in window:
        fraction = cached_events(start, end) / length
        per_event = (
            fraction * cached_event_time + (1.0 - fraction) * uncached_event_time
        )
        # Speed gain over a fully uncached run: 0 (cold) .. ~2.1 (cached).
        gain = uncached_event_time / per_event - 1.0
        scores.append(locality_weight * gain + aging - penalty)
    return scores
