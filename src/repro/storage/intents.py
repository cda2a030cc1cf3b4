"""Write intents and idempotency keys, stored in primary storage (§3.4, §5.6).

A *write intent* is created by the LVI server after validation succeeds for
an execution whose write set is non-empty.  It maps the execution id to a
status and guarantees that the speculative writes made near-user eventually
reach primary storage: if the followup carrying them never arrives, a timer
fires and the function is deterministically re-executed near storage.

Intents live in their own table inside the primary KV store so they share
its durability (§3.1).  The §5.6 replicated server additionally records an
*idempotency key* per execution so a function runs at most twice overall —
at most once near-user and at most once near-storage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..errors import ConditionFailed, ProtocolError
from .kvstore import KVStore

__all__ = [
    "IntentStatus",
    "WriteIntent",
    "IntentTable",
    "IdempotencyTable",
    "KIND_REEXEC",
    "KIND_APPLY",
]

INTENT_TABLE = "_radical_intents"
IDEM_TABLE = "_radical_idempotency"

# Intent settlement kinds (see WriteIntent.kind).
KIND_REEXEC = "reexec"
KIND_APPLY = "apply"


class IntentStatus:
    """Lifecycle of a write intent."""

    PENDING = "pending"      # waiting for the followup (or the timer)
    COMPLETED = "completed"  # writes applied exactly once; safe to remove


@dataclass(frozen=True)
class WriteIntent:
    """One intent record as stored in the primary store.

    The function's ``args`` are stored *with* the intent: deterministic
    re-execution must be possible even after the LVI server itself crashes
    and a replacement recovers from the primary store (§5.6) — in-memory
    state cannot be relied on for replay inputs.
    """

    execution_id: str
    status: str
    function_id: str
    created_at: float
    args: tuple = ()
    #: Trace id of the originating invocation (0 = untraced).  Persisted so
    #: a replacement server's recovery re-execution can be attributed to
    #: the original request end-to-end.
    trace_id: int = 0
    #: How an orphaned PENDING intent is settled.  ``reexec`` (the single-
    #: shard protocol) re-runs the function from ``args``; ``apply`` (a
    #: cross-shard prepare) carries the already-resolved ``writes`` and is
    #: settled by consulting the coordinating shard's decision record —
    #: re-execution is impossible shard-locally, since one shard holds only
    #: a slice of the function's read set.
    kind: str = KIND_REEXEC
    #: ``apply`` intents only: the buffered speculative writes for *this*
    #: shard, as (table, key, value) tuples.
    writes: tuple = ()
    #: ``apply`` intents only: endpoint name of the coordinating shard's
    #: server, where the transaction's commit/abort record lives.
    coordinator: str = ""

    def to_value(self) -> dict:
        return {
            "execution_id": self.execution_id,
            "status": self.status,
            "function_id": self.function_id,
            "created_at": self.created_at,
            "args": list(self.args),
            "trace_id": self.trace_id,
            "kind": self.kind,
            "writes": [list(w) for w in self.writes],
            "coordinator": self.coordinator,
        }

    @staticmethod
    def from_value(value: dict) -> "WriteIntent":
        return WriteIntent(
            execution_id=value["execution_id"],
            status=value["status"],
            function_id=value["function_id"],
            created_at=value["created_at"],
            args=tuple(value.get("args", ())),
            trace_id=value.get("trace_id", 0),
            kind=value.get("kind", KIND_REEXEC),
            writes=tuple(tuple(w) for w in value.get("writes", ())),
            coordinator=value.get("coordinator", ""),
        )


class IntentTable:
    """CRUD for write intents over the primary store.

    The *completion* transition uses a conditional put so that the two
    racing completers — the followup handler and the re-execution timer —
    cannot both win: exactly one sees the pending version and applies the
    writes (§3.6, "validation succeeds but the followup is late").
    """

    def __init__(self, store: KVStore, sim=None):
        self.store = store
        # Optional simulator handle: with one installed, intent lifecycle
        # transitions are emitted as trace events (no-op when tracing is
        # disabled or no sim is attached — plain unit tests pass neither).
        self.sim = sim

    def _event(self, name: str, execution_id: str) -> None:
        if self.sim is not None:
            obs = self.sim.obs
            if obs.enabled:
                obs.event(name, execution_id=execution_id)

    def create(
        self,
        execution_id: str,
        function_id: str,
        now: float,
        args: tuple = (),
        trace_id: int = 0,
        kind: str = KIND_REEXEC,
        writes: tuple = (),
        coordinator: str = "",
    ) -> WriteIntent:
        """Install a PENDING intent; the execution id must be fresh."""
        if self.store.exists(INTENT_TABLE, execution_id):
            raise ProtocolError(f"intent for execution {execution_id!r} already exists")
        intent = WriteIntent(
            execution_id, IntentStatus.PENDING, function_id, now, args, trace_id,
            kind=kind, writes=writes, coordinator=coordinator,
        )
        self.store.put(INTENT_TABLE, execution_id, intent.to_value())
        self._event("intent.create", execution_id)
        return intent

    def get(self, execution_id: str) -> Optional[WriteIntent]:
        item = self.store.get_or_none(INTENT_TABLE, execution_id)
        return None if item is None else WriteIntent.from_value(item.value)

    def try_complete(self, execution_id: str) -> bool:
        """Atomically move PENDING → COMPLETED; returns False if someone
        else already completed (or removed) the intent.

        The caller may apply the execution's writes only when this returns
        True — that is the at-most-once guarantee for speculative writes.
        """
        item = self.store.get_or_none(INTENT_TABLE, execution_id)
        if item is None:
            self._event("intent.race_lost", execution_id)
            return False
        intent = WriteIntent.from_value(item.value)
        if intent.status != IntentStatus.PENDING:
            self._event("intent.race_lost", execution_id)
            return False
        completed = WriteIntent(
            intent.execution_id, IntentStatus.COMPLETED, intent.function_id,
            intent.created_at, trace_id=intent.trace_id, kind=intent.kind,
            coordinator=intent.coordinator,
        )
        try:
            self.store.conditional_put(
                INTENT_TABLE, execution_id, completed.to_value(), item.version
            )
        except ConditionFailed:
            self._event("intent.race_lost", execution_id)
            return False
        self._event("intent.complete", execution_id)
        return True

    def remove(self, execution_id: str) -> bool:
        """Drop the intent once handled (§3.4: 'the near-storage location
        now removes it from storage')."""
        return self.store.delete(INTENT_TABLE, execution_id)

    def pending(self) -> List[WriteIntent]:
        """All intents still pending (crash-recovery sweep in tests)."""
        out = []
        for _key, item in self.store.scan(INTENT_TABLE):
            intent = WriteIntent.from_value(item.value)
            if intent.status == IntentStatus.PENDING:
                out.append(intent)
        return out


class IdempotencyTable:
    """At-most-twice execution guard for the replicated server (§5.6).

    Records which site(s) have executed a given execution id.  ``claim``
    returns True exactly once per (execution id, site kind), so a function
    runs at most once near-user and at most once near-storage even across
    server failovers.
    """

    NEAR_USER = "near_user"
    NEAR_STORAGE = "near_storage"

    def __init__(self, store: KVStore):
        self.store = store

    def claim(self, execution_id: str, site: str) -> bool:
        """Attempt to claim the (execution, site) slot; True on success."""
        if site not in (self.NEAR_USER, self.NEAR_STORAGE):
            raise ValueError(f"unknown site {site!r}")
        key = f"{execution_id}:{site}"
        item = self.store.get_or_none(IDEM_TABLE, key)
        if item is not None:
            return False
        try:
            self.store.conditional_put(IDEM_TABLE, key, True, expected_version=0)
        except ConditionFailed:
            return False
        return True

    def claimed(self, execution_id: str, site: str) -> bool:
        return self.store.exists(IDEM_TABLE, f"{execution_id}:{site}")
