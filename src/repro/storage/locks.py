"""Read/write lock manager used by the LVI server (paper §3.6).

Each LVI request acquires a read or write lock per item before validation
and releases them as a group.  Locks are held until the data they protect
has been read or written, never across a wait: a read-only execution lets
go at its validation instant, a writer when its writes reach primary
storage — and a writer that is only waiting (a pending intent whose
followup is still crossing the WAN) is told the moment someone queues
behind it, through ``on_contention``, so its holder can settle it at once.

Semantics reproduced from the paper:

* read locks are shared, write locks exclusive;
* lock sets are acquired in **lexicographic key order** so that concurrent
  multi-key acquisitions cannot deadlock;
* waiters are served FIFO per key — a waiting writer blocks later readers,
  preventing writer starvation (read-heavy workloads are the common case,
  §3.6);
* all state is indexed by an *owner* (the execution id), so release is a
  single "release everything owner X holds".

Lock *latency* is charged by the caller: the in-memory singleton server
acquires locks instantly, while the replicated server of §5.6 charges
2.3 ms per lock through Raft.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Generator, Iterable, List, Optional, Set, Tuple

from ..errors import LockError
from ..sim import Event, Metrics, Simulator

__all__ = ["LockMode", "LockManager", "LockRequest"]

Key = Tuple[str, str]  # (table, key)


class LockMode:
    """Lock modes; WRITE subsumes READ when both are requested."""

    READ = "read"
    WRITE = "write"


@dataclass(frozen=True)
class LockRequest:
    """One (key, mode) element of an acquisition."""

    key: Key
    mode: str


@dataclass
class _Waiter:
    owner: str
    mode: str
    event: Event


@dataclass
class _LockRecord:
    """Per-key lock state: current holders plus a FIFO wait queue."""

    readers: Set[str] = field(default_factory=set)
    writer: Optional[str] = None
    queue: Deque[_Waiter] = field(default_factory=deque)

    def idle(self) -> bool:
        return not self.readers and self.writer is None and not self.queue


class LockManager:
    """Table of per-key read/write locks with FIFO fairness."""

    def __init__(
        self,
        sim: Simulator,
        metrics: Optional[Metrics] = None,
        name: str = "",
        on_contention: Optional[Callable[[Key, List[str]], None]] = None,
    ):
        self.sim = sim
        self.metrics = metrics
        self.name = name
        # Called as ``(key, holders)`` at the instant an acquisition is
        # enqueued, with the owners it queued behind (see :meth:`holders_of`).
        self.on_contention = on_contention
        self._locks: Dict[Key, _LockRecord] = {}
        self._held: Dict[str, List[Tuple[Key, str]]] = {}
        # Metrics the benchmarks read.  The same numbers also flow into the
        # shared ``metrics`` bag (when one is wired) as ``lock.wait``
        # samples tagged by server, so observability does not depend on
        # holding a reference to a table that ``crash()`` replaces.
        self.acquisitions = 0
        self.contended_acquisitions = 0
        self.total_wait_ms = 0.0
        self.max_wait_ms = 0.0

    # -- acquisition -------------------------------------------------------

    @staticmethod
    def normalize(read_keys: Iterable[Key], write_keys: Iterable[Key]) -> List[LockRequest]:
        """Collapse read+write requests for the same key into a write lock
        and return the requests sorted lexicographically (the paper's
        deadlock-avoidance order)."""
        writes = set(write_keys)
        reads = set(read_keys) - writes
        requests = [LockRequest(k, LockMode.WRITE) for k in writes]
        requests += [LockRequest(k, LockMode.READ) for k in reads]
        requests.sort(key=lambda r: r.key)
        return requests

    def acquire_all(
        self,
        owner: str,
        read_keys: Iterable[Key],
        write_keys: Iterable[Key],
        per_lock_latency: float = 0.0,
    ) -> Generator:
        """Acquire every lock in sorted order; a generator to run inside a
        process (``yield from``).  Returns the number of locks acquired.

        ``per_lock_latency`` charges a fixed cost per lock *after* it is
        granted — the §5.6 replicated server's 2.3 ms serial Raft writes.
        """
        if owner in self._held:
            raise LockError(f"owner {owner!r} already holds locks")
        requests = self.normalize(read_keys, write_keys)
        self._held[owner] = []
        started = self.sim.now
        obs = self.sim.obs
        for req in requests:
            ev = self._acquire_one(owner, req.key, req.mode)
            if ev is not None:
                # Only a lock that must be waited for costs an event (and a
                # dispatch); one granted on the spot costs neither.
                self.contended_acquisitions += 1
                # A contended acquisition is queue time on the server's
                # critical path: record it as a lock.wait span so the
                # analyzer can attribute p99 tails to hot keys.
                holders = self.holders_of(req.key)
                wait_span = None
                if obs.enabled:
                    wait_span = obs.start(
                        "lock.wait", kind="lock",
                        table=req.key[0], key=req.key[1], mode=req.mode,
                        queue=self.queue_length(req.key), holder=holders[0],
                    )
                if self.on_contention is not None:
                    self.on_contention(req.key, holders)
                try:
                    yield ev
                finally:
                    # Close on the kill/interrupt path too, so failure
                    # injection cannot leak open spans.
                    if wait_span is not None and not wait_span.finished:
                        wait_span.finish(self.sim.now)
            self._held[owner].append((req.key, req.mode))
            if per_lock_latency > 0:
                yield self.sim.timeout(per_lock_latency)
        waited = self.sim.now - started - per_lock_latency * len(requests)
        self.total_wait_ms += waited
        self.max_wait_ms = max(self.max_wait_ms, waited)
        self.acquisitions += len(requests)
        if self.metrics is not None:
            self.metrics.record_tagged("lock.wait", waited, server=self.name)
        return len(requests)

    def _acquire_one(self, owner: str, key: Key, mode: str) -> Optional[Event]:
        """Grant the lock now (``None``) or queue for it (the event the
        grant will trigger)."""
        record = self._locks.setdefault(key, _LockRecord())
        if self._grantable(record, mode):
            self._grant(record, owner, mode)
            return None
        ev = self.sim.event(name="lock")
        record.queue.append(_Waiter(owner, mode, ev))
        return ev

    @staticmethod
    def _grantable(record: _LockRecord, mode: str) -> bool:
        # FIFO fairness: nothing may jump a non-empty queue.
        if record.queue:
            return False
        if mode == LockMode.WRITE:
            return not record.readers and record.writer is None
        return record.writer is None

    @staticmethod
    def _grant(record: _LockRecord, owner: str, mode: str) -> None:
        if mode == LockMode.WRITE:
            record.writer = owner
        else:
            record.readers.add(owner)

    # -- release -----------------------------------------------------------

    def release_all(self, owner: str) -> int:
        """Release everything ``owner`` holds; returns the count released.

        Unknown owners are an error (a double release would mask protocol
        bugs where two code paths both think they finished an execution).
        """
        held = self._held.pop(owner, None)
        if held is None:
            raise LockError(f"owner {owner!r} holds no locks")
        for key, mode in held:
            record = self._locks[key]
            if mode == LockMode.WRITE:
                if record.writer != owner:
                    raise LockError(f"{key}: write lock not held by {owner!r}")
                record.writer = None
            else:
                if owner not in record.readers:
                    raise LockError(f"{key}: read lock not held by {owner!r}")
                record.readers.discard(owner)
            self._wake(key, record)
        return len(held)

    def cancel(self, owner: str) -> int:
        """Abort an in-progress acquisition by ``owner``.

        Interrupting :meth:`acquire_all` mid-wait leaves two kinds of
        state behind: locks already granted (indexed in ``_held``) and a
        ``_Waiter`` still queued on the contended key — which a later
        ``_wake`` would grant to a process that no longer exists, leaking
        the lock forever.  This purges both.  Safe to call whether or not
        the owner ever reached the queue; returns the count of granted
        locks released.  Used by the cross-shard prepare path, whose lock
        waits are bounded (no global lock order exists across shards, so
        distributed deadlock is broken by timeout-and-retry instead).
        """
        for key in list(self._locks):
            record = self._locks[key]
            if any(w.owner == owner for w in record.queue):
                record.queue = deque(w for w in record.queue if w.owner != owner)
                # The head may have changed: re-run the grant loop (it
                # also garbage-collects the record if now idle).
                self._wake(key, record)
        if owner not in self._held:
            return 0
        return self.release_all(owner)

    def _wake(self, key: Key, record: _LockRecord) -> None:
        # Grant from the head of the queue: either one writer, or a batch
        # of readers up to the next waiting writer.
        while record.queue:
            head = record.queue[0]
            if not self._compatible_now(record, head.mode):
                break
            record.queue.popleft()
            self._grant(record, head.owner, head.mode)
            head.event.trigger(None)
            if head.mode == LockMode.WRITE:
                break
        if record.idle():
            del self._locks[key]

    @staticmethod
    def _compatible_now(record: _LockRecord, mode: str) -> bool:
        if mode == LockMode.WRITE:
            return not record.readers and record.writer is None
        return record.writer is None

    # -- introspection ----------------------------------------------------------

    def holders(self, key: Key) -> Tuple[Set[str], Optional[str]]:
        """(readers, writer) currently holding ``key``."""
        record = self._locks.get(key)
        if record is None:
            return set(), None
        return set(record.readers), record.writer

    def holders_of(self, key: Key) -> List[str]:
        """The owners holding ``key``, in a deterministic order (the writer,
        or the readers sorted — ``readers`` is a set of strings): who a
        request enqueued on ``key`` right now is waiting for.  Never empty
        for a key with a queue, since a queue only forms behind a holder."""
        readers, writer = self.holders(key)
        return sorted(readers) if writer is None else [writer]

    def held_by(self, owner: str) -> List[Tuple[Key, str]]:
        return list(self._held.get(owner, ()))

    def contended_keys(self, owner: str) -> List[Key]:
        """The keys ``owner`` holds that somebody is queued on."""
        return [key for key, _mode in self._held.get(owner, ()) if self.queue_length(key)]

    def held_owners(self) -> List[str]:
        """Every owner currently holding at least one granted lock — the
        chaos harness asserts this drains to empty (no leaked locks from
        shed or aborted executions)."""
        return list(self._held)

    def queue_length(self, key: Key) -> int:
        record = self._locks.get(key)
        return 0 if record is None else len(record.queue)

    def assert_invariants(self) -> None:
        """Raise :class:`LockError` if any RW invariant is violated.

        Called by property tests after every step: a writer excludes all
        other holders, and granted locks match the per-owner index.
        """
        for key, record in self._locks.items():
            if record.writer is not None and record.readers:
                raise LockError(f"{key}: writer and readers coexist")
        index: Dict[Key, List[Tuple[str, str]]] = {}
        for owner, held in self._held.items():
            for key, mode in held:
                index.setdefault(key, []).append((owner, mode))
        for key, grants in index.items():
            record = self._locks.get(key)
            if record is None:
                raise LockError(f"{key}: held but no record exists")
            for owner, mode in grants:
                if mode == LockMode.WRITE and record.writer != owner:
                    raise LockError(f"{key}: index says {owner} writes, record disagrees")
                if mode == LockMode.READ and owner not in record.readers:
                    raise LockError(f"{key}: index says {owner} reads, record disagrees")
