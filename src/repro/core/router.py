"""Key placement: the one router every near-user runtime sends through.

A :class:`ShardRouter` maps every ``(table, key)`` pair to exactly one
shard of the near-storage tier and names each shard's LVI server.
Placement is a stable content hash of ``table/key`` modulo the shard
count, derived from SHA-1 (not Python's randomized ``hash``), so it is
identical across processes and runs — a requirement for the simulator's
determinism guarantees.  One shard places everything on shard 0 without
hashing.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Optional, Sequence, Tuple

__all__ = ["ShardRouter"]


class ShardRouter:
    """The shard of a key plus the endpoint name of each shard's LVI
    server, built from the endpoint list alone (one endpoint per shard).

    With conflict detection enabled the router additionally carries the
    :class:`~repro.topology.ConflictDetector` (``detector``) and, per
    shard, the rotation of endpoints that serve its lock-skipped reads
    (its read replicas, or the primary when it has none).
    """

    def __init__(self, endpoints: Sequence[str]):
        if not endpoints:
            raise ValueError("a router needs at least one shard endpoint")
        self.endpoints = tuple(endpoints)
        self.nshards = len(self.endpoints)
        self.detector: Optional[Any] = None
        self._read_endpoints: Dict[int, Tuple[str, ...]] = {}
        self._read_rr: Dict[int, int] = {}

    def shard_of(self, table: str, key: str) -> int:
        if self.nshards == 1:
            return 0
        digest = hashlib.sha1(f"{table}/{key}".encode()).digest()
        return int.from_bytes(digest[:8], "big") % self.nshards

    def endpoint(self, shard: int) -> str:
        return self.endpoints[shard]

    def register_read_endpoints(self, shard: int, names: Sequence[str]) -> None:
        """Endpoints that serve lock-skipped reads for ``shard``, rotated
        round-robin."""
        self._read_endpoints[shard] = tuple(names)
        self._read_rr[shard] = 0

    def read_endpoint(self, shard: int) -> str:
        """Deterministic round-robin over the shard's read rotation;
        falls back to the primary when no rotation was registered."""
        rotation = self._read_endpoints.get(shard)
        if not rotation:
            return self.endpoints[shard]
        idx = self._read_rr[shard]
        self._read_rr[shard] = (idx + 1) % len(rotation)
        return rotation[idx]
