"""Bid arbitration: highest score wins, seeded deterministic tie-breaks.

The arbiter's job is deliberately tiny — it never inspects caches or
cost models, it only resolves integer (node, task, score) triples, given
as three parallel lists.  It is a pure function:
:meth:`~repro.sched.decentral.policy.DecentralPolicy._run_round` calls it
once per arbitration round, and the property tests drive it without a
simulation.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np


def arbitrate(
    node_ids: Sequence[int],
    task_indices: Sequence[int],
    scores: Sequence[float],
    grant_batch: int,
    rng: np.random.Generator,
) -> Dict[int, List[int]]:
    """Progressive highest-score-first matching of tasks to nodes.

    Bid ``i`` is node ``node_ids[i]``'s score ``scores[i]`` for window
    task ``task_indices[i]``.  Matching runs in ``grant_batch`` passes
    with a per-node cap of one additional task per pass: every bidder
    gets its best available task before any bidder gets a second.  With
    few pending tasks this spreads work across the cluster (maximum
    parallelism); with a backlog every node still fills to
    ``grant_batch`` (maximum message amortisation) — the passes only
    change *which* tasks land where.

    Each task is granted at most once.  Equal scores are ordered by a
    draw from the dedicated ``sched.arbiter`` stream — deterministic for
    a given seed and bid sequence, unbiased across nodes (node ids carry
    no meaning).

    Returns ``{node_id: [task_index, ...]}`` in the order of each node's
    first grant.
    """
    count = len(scores)
    if not count:
        return {}
    # One draw per bid, in the caller's deterministic bid order.
    ties = rng.random(count).tolist()
    # Highest score first, then the tie draw, then bid order.
    order = [
        index
        for _, _, index in sorted(
            zip([-score for score in scores], ties, range(count))
        )
    ]
    tasks_left = len(set(task_indices))
    bidders = len(set(node_ids))
    grants: Dict[int, List[int]] = {}
    taken: set = set()
    for cap in range(1, grant_batch + 1):
        capped = 0  # bidders holding ``cap`` tasks: the pass is over
        for index in order:
            task = task_indices[index]
            if task in taken:
                continue
            node_id = node_ids[index]
            node_grants = grants.get(node_id)
            if node_grants is None:
                node_grants = grants[node_id] = []
            elif len(node_grants) >= cap:
                continue
            node_grants.append(task)
            taken.add(task)
            if len(taken) == tasks_left:
                return grants
            if len(node_grants) == cap:
                capped += 1
                if capped == bidders:
                    break
        order = [index for index in order if task_indices[index] not in taken]
    return grants
