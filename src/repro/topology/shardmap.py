"""In-network conflict detection for the sharded near-storage tier.

Placement itself is :class:`~repro.core.ShardRouter`'s SHA-1 hash; this
module holds what the router carries on top when conflict detection is
on: the :class:`DirtySet` of in-flight write facts per shard, and the
:class:`ConflictDetector` that runtimes enroll in and probe before
sending, and that servers re-probe at arrival.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

__all__ = ["DirtySet", "ConflictDetector"]


class DirtySet:
    """In-flight write facts, per shard, keyed by execution id.

    Entries are *instantiated write constraints* (duck-typed: anything
    with ``overlaps(other)``, normally
    :class:`~repro.analysis.ir.summary.KeyFact`).  The lifecycle is
    conservative by construction:

    * **enroll** strictly before the writer's request is sent — a probe
      can then never miss a writer whose writes are not yet durably
      applied;
    * **settle** only once the writes' fate is known (followup applied or
      discarded, backup response received, cross-shard decision acked);
    * **leak** when the outcome is unknowable (lost followup, exhausted
      RPC, lost decision ack): the entry is *kept* forever, so later
      probes stay sound, and the imbalance is observable via
      :meth:`stats` — the chaos harness asserts
      ``depth == leaked`` once the system is quiescent.
    """

    def __init__(self):
        self._entries: Dict[str, Dict[int, Tuple]] = {}  # eid -> shard -> facts
        self._leaked: set = set()
        self.enrolled_total = 0
        self.settled_total = 0
        self.leaked_total = 0

    def enroll(self, shard: int, execution_id: str, facts: Sequence) -> None:
        shards = self._entries.setdefault(execution_id, {})
        if shard not in shards:
            self.enrolled_total += 1
        shards[shard] = tuple(facts)

    def settle(self, execution_id: str) -> int:
        """Remove every shard's entry for one execution; returns how many
        entries were dropped (0 when unknown or already settled)."""
        if execution_id in self._leaked:
            return 0  # a leaked entry's writes have no known fate: keep it
        shards = self._entries.pop(execution_id, None)
        if not shards:
            return 0
        self.settled_total += len(shards)
        return len(shards)

    def leak(self, execution_id: str) -> int:
        """Mark one execution's entries as permanently in flight."""
        if execution_id in self._leaked or execution_id not in self._entries:
            return 0
        self._leaked.add(execution_id)
        leaked = len(self._entries[execution_id])
        self.leaked_total += leaked
        return leaked

    def probe(self, shard: int, facts: Sequence) -> bool:
        """May any in-flight writer on ``shard`` touch a key one of
        ``facts`` admits?"""
        for shards in self._entries.values():
            enrolled = shards.get(shard)
            if not enrolled:
                continue
            for theirs in enrolled:
                for mine in facts:
                    if theirs.overlaps(mine):
                        return True
        return False

    def depth(self, shard: int) -> int:
        return sum(1 for shards in self._entries.values() if shard in shards)

    @property
    def total_depth(self) -> int:
        return sum(len(shards) for shards in self._entries.values())

    def stats(self) -> Dict[str, int]:
        return {
            "enrolled": self.enrolled_total,
            "settled": self.settled_total,
            "leaked": self.leaked_total,
            "depth": self.total_depth,
        }

    @property
    def balanced(self) -> bool:
        """Every enrolled entry was either settled or deliberately leaked
        — the quiescent-state invariant the chaos matrix asserts."""
        return (
            self.total_depth == self.leaked_total
            and self.enrolled_total == self.settled_total + self.leaked_total
        )

    def reset(self) -> None:
        """Drop all entries and counters (parity with the lock-table
        reset a crashed server performs on its own state)."""
        self._entries.clear()
        self._leaked.clear()
        self.enrolled_total = self.settled_total = self.leaked_total = 0


class ConflictDetector:
    """The in-network conflict-detection element (Harmonia-style), shared
    by the near-user runtimes and the shard's servers — both sit on the
    request path through it, which is what makes the server-side re-probe
    at arrival authoritative.

    Metrics follow the zero-cost convention: with ``metrics`` absent or
    disabled, every recording is short-circuited.
    """

    def __init__(self, metrics=None):
        self.dirty = DirtySet()
        self.metrics = metrics

    def _record_depth(self, shard: int) -> None:
        if self.metrics is not None and self.metrics.enabled:
            self.metrics.record_tagged(
                "router.dirty_depth", self.dirty.depth(shard), shard=str(shard)
            )

    def enroll(self, shards: Sequence[int], execution_id: str, facts: Sequence) -> None:
        for shard in shards:
            self.dirty.enroll(shard, execution_id, facts)
            if self.metrics is not None and self.metrics.enabled:
                self.metrics.incr("router.enrolled")
            self._record_depth(shard)

    def settle(self, execution_id: str) -> None:
        removed = self.dirty.settle(execution_id)
        if removed and self.metrics is not None and self.metrics.enabled:
            self.metrics.incr("router.settled", removed)

    def leak(self, execution_id: str) -> None:
        leaked = self.dirty.leak(execution_id)
        if leaked and self.metrics is not None and self.metrics.enabled:
            self.metrics.incr("router.dirty_leaked", leaked)

    def probe(self, shard: int, facts: Sequence) -> bool:
        hit = self.dirty.probe(shard, facts)
        if hit and self.metrics is not None and self.metrics.enabled:
            self.metrics.incr("router.conflict_hit")
        return hit
