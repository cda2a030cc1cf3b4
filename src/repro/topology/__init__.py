"""Topology layer: declarative deployment construction and conflict detection.

``TopologySpec`` describes a Radical deployment (regions, shard count,
cache/fault options); ``Deployment.build`` constructs it in the canonical
order every harness shares, with one :class:`~repro.core.ShardRouter`
(hash placement) on every topology.  ``DirtySet``/``ConflictDetector``
are the in-network conflict detection the router carries; see
docs/TOPOLOGY.md for the cross-shard commit rule.
"""

from .deployment import ASSIGNMENT_POLICIES, Deployment, PopAssignment, TopologySpec
from .shardmap import ConflictDetector, DirtySet

__all__ = [
    "ASSIGNMENT_POLICIES",
    "ConflictDetector",
    "Deployment",
    "DirtySet",
    "PopAssignment",
    "TopologySpec",
]
