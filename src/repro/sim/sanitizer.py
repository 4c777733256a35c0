"""Runtime sim-sanitizer: invariant checks behind ``--check-invariants``.

The static layer (``repro lint``) proves properties of the *source*; this
module checks properties of a *running* simulation:

* the engine never dispatches events backwards in time and its calendar
  heap stays well-formed (:meth:`repro.core.engine.Engine.validate_heap`);
* per-node caches conserve event accounting and keep a valid LRU
  structure (:meth:`repro.data.cache.LRUSegmentCache.validate`);
* the cluster's idle-node index lists exactly the nodes a full scan
  finds free (no subjob, not failed, not reserved), in id order, and
  every node's ``idle`` flag agrees with that scan;
* event accounting balances across the chunk loop: each node's
  ``events_processed`` equals the sum of its ``events_by_source``, and
  the tertiary store's total reads equal the sum of its per-node reads
  and its distinct count equals the measure of its distinct-event set
  (:meth:`repro.data.tertiary.TertiaryStorage.validate`);
* the policy's own bookkeeping agrees with a full recount
  (:meth:`repro.sched.base.SchedulerPolicy.check_invariants`; e.g. each
  out-of-order node queue's running ``events`` total);
* subjobs follow the documented state machine
  (``PENDING → RUNNING ⇄ SUSPENDED → DONE``) and are never assigned to
  two nodes at once — the paper's "single subjob per processor" rule from
  the scheduler's side.

Checks are designed to be *compiled out by default*: with the mode off,
the engine pays one attribute test per dispatch and the nodes pay one
``is None`` test per transition; nothing else changes, so a checked run
must produce **identical metrics** to an unchecked one (asserted by
``tests/test_sanitizer.py``).

Cheap transition checks run inline; the O(state) deep checks piggyback on
the simulator's existing metric probe events so the event calendar — and
therefore the simulated timeline — is byte-identical either way.

Every failure raises :class:`~repro.core.errors.InvariantViolation` with
a message naming the component, the simulated time and the broken law.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Set

from ..core.errors import InvariantViolation, SchedulingError
from ..workload.jobs import Job, Subjob, SubjobState

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.cluster import Cluster
    from ..cluster.node import Node
    from ..core.engine import Engine
    from ..data.tertiary import TertiaryStorage


class InvariantChecker:
    """Tracks subjob↔node assignments and runs the deep periodic checks.

    One instance per checked simulation; nodes call the ``on_subjob_*``
    transition hooks (installed by :class:`~repro.sim.simulator.Simulation`
    when ``check_invariants=True``), the simulator calls
    :meth:`deep_check` from its probe callback.
    """

    def __init__(self) -> None:
        #: sid -> node_id for every subjob currently RUNNING somewhere.
        self._running: Dict[str, int] = {}
        #: node_ids currently failed (repro.faults crash injection).
        self._down: Set[int] = set()
        #: Lifetime counter, reported in logs/tests.
        self.checks_run = 0

    # -- node transition hooks (cheap, inline) -------------------------------

    def on_subjob_start(self, node: "Node", subjob: Subjob) -> None:
        """Called by a node just before a subjob enters RUNNING."""
        self.checks_run += 1
        sid = subjob.sid
        holder = self._running.get(sid)
        if holder is not None:
            raise InvariantViolation(
                f"subjob {sid} double-assigned: starting on node "
                f"{node.node_id} while already running on node {holder}"
            )
        if subjob.state not in (SubjobState.PENDING, SubjobState.SUSPENDED):
            raise InvariantViolation(
                f"illegal transition {subjob.state.value} → running for "
                f"subjob {sid} on node {node.node_id}"
            )
        if subjob.node is not None:
            raise InvariantViolation(
                f"subjob {sid} starting on node {node.node_id} but still "
                f"bound to node {subjob.node.node_id}"
            )
        if node.current is not None:
            raise InvariantViolation(
                f"node {node.node_id} starting subjob {sid} while busy "
                f"with {node.current.sid}"
            )
        if node.node_id in self._down:
            raise InvariantViolation(
                f"node {node.node_id} starting subjob {sid} while failed"
            )
        self._running[sid] = node.node_id

    def on_subjob_suspend(self, node: "Node", subjob: Subjob) -> None:
        """Called by a node when a preemption suspends its subjob."""
        self.checks_run += 1
        self._expect_running_here(node, subjob, "suspend")
        del self._running[subjob.sid]

    def on_subjob_finish(self, node: "Node", subjob: Subjob) -> None:
        """Called by a node when a subjob's last event completes."""
        self.checks_run += 1
        self._expect_running_here(node, subjob, "finish")
        del self._running[subjob.sid]
        if subjob.processed != subjob.segment.length:
            raise InvariantViolation(
                f"subjob {subjob.sid} finished with {subjob.processed}/"
                f"{subjob.segment.length} events processed"
            )

    def on_subjob_abort(self, node: "Node", subjob: Subjob) -> None:
        """Called by a node when a crash aborts its running subjob."""
        self.checks_run += 1
        self._expect_running_here(node, subjob, "abort")
        del self._running[subjob.sid]

    def on_node_failed(self, node: "Node") -> None:
        """Called by a node entering the failed state."""
        self.checks_run += 1
        node_id = node.node_id
        if node_id in self._down:
            raise InvariantViolation(f"node {node_id} failed twice")
        if node.current is not None:
            raise InvariantViolation(
                f"node {node_id} declared failed while still running "
                f"{node.current.sid}"
            )
        for sid, holder in self._running.items():
            if holder == node_id:
                raise InvariantViolation(
                    f"node {node_id} declared failed but subjob {sid} is "
                    "still registered as running there"
                )
        self._down.add(node_id)

    def on_node_recovered(self, node: "Node") -> None:
        """Called by a node leaving the failed state."""
        self.checks_run += 1
        if node.node_id not in self._down:
            raise InvariantViolation(
                f"node {node.node_id} recovered without being failed"
            )
        self._down.discard(node.node_id)

    def _expect_running_here(
        self, node: "Node", subjob: Subjob, action: str
    ) -> None:
        holder = self._running.get(subjob.sid)
        if holder is None:
            raise InvariantViolation(
                f"{action} of subjob {subjob.sid} on node {node.node_id} "
                "but it was never registered as running"
            )
        if holder != node.node_id:
            raise InvariantViolation(
                f"{action} of subjob {subjob.sid} on node {node.node_id} "
                f"but it is registered as running on node {holder}"
            )

    # -- deep periodic checks (O(state), off the hot path) --------------------

    def deep_check(
        self,
        engine: "Engine",
        cluster: "Cluster",
        jobs: Iterable[Job],
        tertiary: "TertiaryStorage",
    ) -> None:
        """Validate the calendar heap, every node cache, the idle-node
        index, the node and tertiary event balances and job/subjob
        bookkeeping; piggybacked on the simulator's metric probe."""
        self.checks_run += 1
        engine.validate_heap()
        tertiary.validate()
        scanned_idle: List[int] = []
        for node in cluster:
            node.cache.validate()
            stats = node.stats
            by_source = sum(stats.events_by_source.values())
            if stats.events_processed != by_source:
                raise InvariantViolation(
                    f"node {node.node_id} events_processed "
                    f"({stats.events_processed}) != sum of events_by_source "
                    f"({by_source}) at t={engine.now:.6f}"
                )
            current = node.current
            free = current is None and not node.failed and not node.reserved
            if node.idle != free:
                raise InvariantViolation(
                    f"node {node.node_id} idle flag ({node.idle}) disagrees "
                    f"with its state (free={free})"
                )
            if free:
                scanned_idle.append(node.node_id)
            if current is not None and self._running.get(current.sid) != node.node_id:
                raise InvariantViolation(
                    f"node {node.node_id} runs {current.sid} but the "
                    "assignment registry disagrees"
                )
            if node.failed != (node.node_id in self._down):
                raise InvariantViolation(
                    f"node {node.node_id} failed flag ({node.failed}) "
                    "disagrees with the fault registry"
                )
            if node.failed and current is not None:
                raise InvariantViolation(
                    f"failed node {node.node_id} is executing {current.sid}"
                )
        indexed_idle = [node.node_id for node in cluster.idle_nodes()]
        if indexed_idle != scanned_idle:
            raise InvariantViolation(
                f"idle-node index {indexed_idle} disagrees with the scan "
                f"{scanned_idle} at t={engine.now:.6f}"
            )
        running_sids = {
            node.current.sid for node in cluster if node.current is not None
        }
        for sid, node_id in self._running.items():
            if sid not in running_sids:
                raise InvariantViolation(
                    f"registry thinks subjob {sid} runs on node {node_id} "
                    "but no node is executing it"
                )
        for job in jobs:
            if job.done:
                continue
            try:
                job.check_invariants()
            except SchedulingError as error:
                raise InvariantViolation(
                    f"job bookkeeping broken at t={engine.now:.6f}: {error}"
                ) from error
