"""Cluster substrates: cost model, data-access planning, nodes, cluster."""

from .access import (
    CachingPlanner,
    ContentionRemoteReadPlanner,
    ChunkPlan,
    DataAccessPlanner,
    NoCachePlanner,
    WholeSegmentPlanner,
    RemoteAccessCounter,
    RemoteReadPlanner,
    ReplicationStats,
)
from .cluster import Cluster
from .costmodel import CostModel, DataSource
from .node import Node, NodeStats

__all__ = [
    "CostModel",
    "DataSource",
    "DataAccessPlanner",
    "NoCachePlanner",
    "WholeSegmentPlanner",
    "CachingPlanner",
    "RemoteReadPlanner",
    "ContentionRemoteReadPlanner",
    "RemoteAccessCounter",
    "ReplicationStats",
    "ChunkPlan",
    "Node",
    "NodeStats",
    "Cluster",
]
