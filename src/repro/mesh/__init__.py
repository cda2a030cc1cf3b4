"""Partition-tolerant causal cache mesh with client migration.

The near-user caches of a deployment stop being isolated: PoPs gossip
versioned updates with causal metadata (CausalMesh-style), migrating
clients carry a compact session vector (SwiftCloud-style), and every
re-attach preserves read-your-writes and monotonic reads — falling back
to the full LVI path when no PoP can satisfy the session's cut.

See ``docs/MESH.md`` for the protocol and the migration state machine.
"""

from .mesh import (
    CacheMesh,
    CutReply,
    CutRequest,
    GossipDigest,
    MeshPop,
    MeshSpec,
    MeshUpdate,
)
from .session import Session

__all__ = [
    "CacheMesh",
    "CutReply",
    "CutRequest",
    "GossipDigest",
    "MeshPop",
    "MeshSpec",
    "MeshUpdate",
    "Session",
]
