"""In-network conflict detection for the sharded near-storage tier.

Placement itself is :class:`~repro.core.ShardRouter`'s SHA-1 hash; this
module holds what the router carries on top when conflict detection is
on: the :class:`DirtySet` of in-flight write facts per shard, and the
:class:`ConflictDetector` that each shard's primary enrolls and settles
its writers in, that read replicas probe at arrival, and that runtimes
probe before sending (a routing hint only).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

__all__ = ["DirtySet", "ConflictDetector"]


class DirtySet:
    """In-flight write facts, per shard, keyed by execution id.

    Entries are *instantiated write constraints* (duck-typed: anything
    with ``overlaps(other)``, normally
    :class:`~repro.analysis.ir.summary.KeyFact`).  The shard that executes
    a write owns its entry, as a Harmonia switch owns a write from the
    moment it reaches the storage rack until it completes there:

    * **enroll** at the instant the shard's primary owns the execution —
      its LVI, prepare or direct handler passed the dedup prologue — and
      before it takes a lock;
    * **settle** where the execution settles on that shard
      (``LVIServer._settle``: intent applied or re-executed, prepared
      slice decided, backup or direct execution done), or when a crash
      kills it — except an execution with a durable pending intent, whose
      entry stays until recovery settles it.

    Enrolling at the shard, not before the runtime sends, is sound: a
    lock-free read validates one storage round trip after its arrival
    probe, and a writer can neither apply nor answer its client sooner
    than one storage round trip after its shard owns it (the LVI and
    prepare paths validate first; a direct execution charges its
    function's service time first).  So a reader that probed before the
    enrollment reads strictly before any effect of the writer, and one
    that probes after it sees the entry.
    """

    def __init__(self):
        self._shards: Dict[int, Dict[str, Tuple]] = {}  # shard -> eid -> facts
        self.enrolled_total = 0
        self.settled_total = 0

    def enroll(self, shard: int, execution_id: str, facts: Sequence) -> None:
        entries = self._shards.setdefault(shard, {})
        if execution_id not in entries:
            self.enrolled_total += 1
        entries[execution_id] = tuple(facts)

    def settle(self, execution_id: str, shard: Optional[int] = None) -> int:
        """Remove one execution's entry on ``shard`` (every shard's when
        None); returns how many entries were dropped (0 when unknown or
        already settled)."""
        shards = self._shards.values() if shard is None else (self._shards.get(shard, {}),)
        removed = sum(1 for entries in shards if entries.pop(execution_id, None) is not None)
        self.settled_total += removed
        return removed

    def executions(self, shard: int) -> Tuple[str, ...]:
        """The execution ids ``shard`` holds entries for."""
        return tuple(self._shards.get(shard, ()))

    def probe(self, shard: int, facts: Sequence) -> bool:
        """May any in-flight writer on ``shard`` touch a key one of
        ``facts`` admits?"""
        for enrolled in self._shards.get(shard, {}).values():
            for theirs in enrolled:
                for mine in facts:
                    if theirs.overlaps(mine):
                        return True
        return False

    def depth(self, shard: int) -> int:
        return len(self._shards.get(shard, ()))

    @property
    def total_depth(self) -> int:
        return sum(len(entries) for entries in self._shards.values())

    def stats(self) -> Dict[str, int]:
        return {
            "enrolled": self.enrolled_total,
            "settled": self.settled_total,
            "depth": self.total_depth,
        }

    @property
    def balanced(self) -> bool:
        """Depth 0 and every enrollment settled — the quiescent-state
        invariant the chaos matrix asserts."""
        return self.total_depth == 0 and self.enrolled_total == self.settled_total


class ConflictDetector:
    """The in-network conflict-detection element (Harmonia-style), shared
    by the near-user runtimes and the shard's servers.  The servers own
    its entries (see :class:`DirtySet`); a runtime only probes it.

    Metrics follow the zero-cost convention: with ``metrics`` absent or
    disabled, every recording is short-circuited.
    """

    def __init__(self, metrics=None):
        self.dirty = DirtySet()
        self.metrics = metrics

    def enroll(self, shard: int, execution_id: str, facts: Sequence) -> None:
        self.dirty.enroll(shard, execution_id, facts)
        if self.metrics is not None and self.metrics.enabled:
            self.metrics.incr("router.enrolled")
            self.metrics.record_tagged(
                "router.dirty_depth", self.dirty.depth(shard), shard=str(shard)
            )

    def settle(self, execution_id: str, shard: Optional[int] = None) -> None:
        removed = self.dirty.settle(execution_id, shard)
        if removed and self.metrics is not None and self.metrics.enabled:
            self.metrics.incr("router.settled", removed)

    def probe(self, shard: int, facts: Sequence) -> bool:
        hit = self.dirty.probe(shard, facts)
        if hit and self.metrics is not None and self.metrics.enabled:
            self.metrics.incr("router.conflict_hit")
        return hit
