"""Tests for the scheduler framework: registry, shared helpers."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.access import CachingPlanner
from repro.core import units
from repro.core.engine import Engine
from repro.core.errors import ConfigurationError, SchedulingError
from repro.data.dataspace import DataSpace
from repro.data.intervals import Interval, IntervalSet
from repro.data.tertiary import TertiaryStorage
from repro.sched.base import (
    SchedulerPolicy,
    available_policies,
    best_subjob_for_node,
    create_policy,
    get_policy_class,
    policy_parameters,
    register_policy,
    split_interval_by_caches,
    suggest_policies,
    unknown_policy_message,
)

from .conftest import make_cluster
from .helpers import make_subjob
from .policy_helpers import build_sim, micro_config, trace


class TestRegistry:
    def test_all_paper_policies_registered(self):
        names = available_policies()
        for expected in (
            "farm",
            "splitting",
            "cache-splitting",
            "out-of-order",
            "replication",
            "delayed",
            "adaptive",
            "mixed",
        ):
            assert expected in names

    def test_unknown_policy_raises(self):
        with pytest.raises(ConfigurationError):
            create_policy("no-such-policy")

    def test_duplicate_name_rejected(self):
        with pytest.raises(ConfigurationError):

            @register_policy
            class Duplicate(SchedulerPolicy):  # pragma: no cover
                name = "farm"

                def on_job_arrival(self, job):
                    pass

                def on_subjob_end(self, node, subjob):
                    pass

                def on_job_end(self, node, job, subjob):
                    pass

    def test_unnamed_policy_rejected(self):
        with pytest.raises(ConfigurationError):

            @register_policy
            class NoName(SchedulerPolicy):  # pragma: no cover
                def on_job_arrival(self, job):
                    pass

                def on_subjob_end(self, node, subjob):
                    pass

                def on_job_end(self, node, job, subjob):
                    pass

    def test_decentral_policies_registered(self):
        names = available_policies()
        assert "decentral" in names
        assert "decentral-nolocal" in names

    def test_available_policies_stably_sorted(self):
        names = available_policies()
        assert names == sorted(names)
        assert names == available_policies()

    def test_duplicate_error_names_both_classes(self):
        with pytest.raises(ConfigurationError, match="ProcessingFarmPolicy"):

            @register_policy
            class FarmAgain(SchedulerPolicy):  # pragma: no cover
                name = "farm"

                def on_job_arrival(self, job):
                    pass

                def on_subjob_end(self, node, subjob):
                    pass

                def on_job_end(self, node, job, subjob):
                    pass

        assert "farm" not in available_policies() or get_policy_class(
            "farm"
        ).__name__ == "ProcessingFarmPolicy"

    def test_reregistering_same_class_rejected(self):
        cls = get_policy_class("farm")
        with pytest.raises(ConfigurationError, match="duplicate policy name"):
            register_policy(cls)
        assert get_policy_class("farm") is cls

    def test_unknown_policy_suggests_close_names(self):
        with pytest.raises(ConfigurationError, match="did you mean"):
            create_policy("decentrall")
        assert "decentral" in suggest_policies("decentrall")
        assert "did you mean" in unknown_policy_message("farmm")

    def test_policy_parameters_reports_defaults(self):
        params = policy_parameters("decentral")
        assert params["grant_batch"] == 4
        assert params["task_events"] is None
        assert policy_parameters("farm") == {}
        with pytest.raises(ConfigurationError):
            policy_parameters("no-such-policy")

    def test_create_passes_params(self):
        policy = create_policy("delayed", period=123.0, stripe_events=77)
        assert policy.period == 123.0
        assert policy.stripe_events == 77

    def test_policy_before_bind_asserts(self):
        policy = create_policy("farm")
        with pytest.raises(AssertionError):
            policy.cluster


class TestSplitByCaches:
    def test_cold_cluster_single_uncached_piece(self, engine, tertiary):
        cluster = make_cluster(engine, tertiary)
        pieces = split_interval_by_caches(Interval(0, 1000), cluster, 10)
        assert pieces == [(Interval(0, 1000), None)]

    def test_cached_parts_tagged_with_node(self, engine, tertiary):
        cluster = make_cluster(engine, tertiary)
        cluster[1].cache.insert(Interval(200, 500), now=0.0)
        pieces = split_interval_by_caches(Interval(0, 1000), cluster, 10)
        assert pieces == [
            (Interval(0, 200), None),
            (Interval(200, 500), cluster[1]),
            (Interval(500, 1000), None),
        ]

    def test_pieces_tile_segment(self, engine, tertiary):
        cluster = make_cluster(engine, tertiary)
        cluster[0].cache.insert(Interval(100, 300), now=0.0)
        cluster[2].cache.insert(Interval(600, 650), now=0.0)
        pieces = split_interval_by_caches(Interval(0, 1000), cluster, 10)
        cursor = 0
        for interval, _ in pieces:
            assert interval.start == cursor
            cursor = interval.end
        assert cursor == 1000

    def test_duplicate_claims_go_to_lowest_node_id(self, engine, tertiary):
        cluster = make_cluster(engine, tertiary)
        cluster[2].cache.insert(Interval(0, 500), now=0.0)
        cluster[0].cache.insert(Interval(0, 500), now=0.0)
        pieces = split_interval_by_caches(Interval(0, 500), cluster, 10)
        assert pieces == [(Interval(0, 500), cluster[0])]

    def test_small_fragments_merged(self, engine, tertiary):
        cluster = make_cluster(engine, tertiary)
        cluster[0].cache.insert(Interval(100, 105), now=0.0)  # 5 < min 10
        pieces = split_interval_by_caches(Interval(0, 1000), cluster, 10)
        assert len(pieces) == 2  # tiny cached sliver merged away
        total = sum(i.length for i, _ in pieces)
        assert total == 1000

    def test_segment_fully_cached_one_node(self, engine, tertiary):
        cluster = make_cluster(engine, tertiary)
        cluster[1].cache.insert(Interval(0, 2000), now=0.0)
        pieces = split_interval_by_caches(Interval(500, 1500), cluster, 10)
        assert pieces == [(Interval(500, 1500), cluster[1])]


def reference_split_by_caches(segment, cluster, min_events):
    """The set-algebra claim loop ``split_interval_by_caches`` replaced:
    each live node, in id order, claims its cached parts of what earlier
    nodes left unclaimed.  Kept as the oracle for the ownership sweep."""
    claims = []
    unclaimed = IntervalSet([segment])
    for node in cluster:
        if not unclaimed:
            break
        if node.failed:
            continue
        parts = node.cache.cached_parts(segment).intersection(unclaimed)
        for part in parts:
            claims.append((part, node))
        unclaimed = unclaimed.difference(parts)
    for part in unclaimed:
        claims.append((part, None))
    claims.sort(key=lambda item: item[0].start)

    merged = []
    for piece, owner in claims:
        if merged and (
            piece.length < min_events or merged[-1][0].length < min_events
        ):
            previous, previous_owner = merged[-1]
            keep_owner = (
                previous_owner if previous.length >= piece.length else owner
            )
            merged[-1] = (Interval(previous.start, piece.end), keep_owner)
        else:
            merged.append((piece, owner))
    return merged


@st.composite
def cached_clusters(draw):
    """A 3–8 node cluster description: inserts (each copied onto one to
    three nodes, so coverage overlaps across nodes) and failed nodes."""
    n_nodes = draw(st.integers(3, 8))
    inserts = draw(
        st.lists(
            st.tuples(
                st.lists(
                    st.integers(0, n_nodes - 1), min_size=1, max_size=3, unique=True
                ),
                st.integers(0, 380),
                st.integers(1, 60),
            ),
            max_size=40,
        )
    )
    failed = draw(st.sets(st.integers(0, n_nodes - 1), max_size=n_nodes))
    return n_nodes, inserts, failed


class TestSplitByCachesOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        cached_clusters(),
        st.lists(
            st.tuples(st.integers(0, 400), st.integers(0, 200), st.integers(1, 40)),
            min_size=1,
            max_size=5,
        ),
    )
    def test_sweep_matches_set_algebra(self, description, queries):
        n_nodes, inserts, failed = description
        tertiary = TertiaryStorage(
            DataSpace(total_events=100_000, event_bytes=600 * units.KB)
        )
        # A small cache so inserts evict; a distinct LRU stamp per insert
        # keeps abutting inserts as separate extents.
        cluster = make_cluster(Engine(), tertiary, n_nodes=n_nodes, cache_events=150)
        for stamp, (node_ids, start, length) in enumerate(inserts):
            for node_id in node_ids:
                cluster[node_id].cache.insert(
                    Interval(start, start + length), now=float(stamp)
                )
        for node_id in failed:
            cluster[node_id].fail()
        for start, length, min_events in queries:
            segment = Interval(start, start + length)
            assert split_interval_by_caches(
                segment, cluster, min_events
            ) == reference_split_by_caches(segment, cluster, min_events)


class TestBestSubjobForNode:
    def test_prefers_most_cached(self, engine, tertiary):
        cluster = make_cluster(engine, tertiary)
        node = cluster[0]
        a = make_subjob(0, 100)
        b = make_subjob(200, 100)
        node.cache.insert(Interval(200, 260), now=0.0)
        assert best_subjob_for_node(node, [a, b]) is b

    def test_ties_broken_by_size(self, engine, tertiary):
        cluster = make_cluster(engine, tertiary)
        node = cluster[0]
        small = make_subjob(0, 50)
        large = make_subjob(100, 500)
        assert best_subjob_for_node(node, [small, large]) is large

    def test_empty_candidates(self, engine, tertiary):
        cluster = make_cluster(engine, tertiary)
        assert best_subjob_for_node(cluster[0], []) is None


class TestSplitRunningSubjob:
    def test_splits_and_resumes(self):
        sim = build_sim("out-of-order", trace((0.0, 0, 2000)), micro_config(n_nodes=1))
        sim.prime()
        sim.engine.run(until=80.0)  # 100 events processed
        policy = sim.policy
        subjob = sim.cluster[0].current
        right = policy.split_running_subjob(subjob, 1000)
        assert right is not None
        assert right.segment == Interval(1000, 2000)
        assert sim.cluster[0].current is subjob
        assert subjob.segment.end == 1000

    def test_invalid_point_restarts_subjob(self):
        sim = build_sim("out-of-order", trace((0.0, 0, 2000)), micro_config(n_nodes=1))
        sim.prime()
        sim.engine.run(until=80.0)
        policy = sim.policy
        subjob = sim.cluster[0].current
        right = policy.split_running_subjob(subjob, 50)  # already processed
        assert right is None
        assert sim.cluster[0].current is subjob

    def test_not_running_raises(self):
        sim = build_sim("out-of-order", trace((0.0, 0, 2000)), micro_config(n_nodes=1))
        policy = sim.policy
        with pytest.raises(SchedulingError):
            policy.split_running_subjob(make_subjob(0, 100), 50)
