"""Wire messages of the LVI protocol (§3.2, Figure 3).

Exactly one request/response pair is on the client's critical path — the
:class:`LVIRequest`/:class:`LVIResponse` round trip — plus the off-path
:class:`WriteFollowup` sent after the client already has its answer.

Overload is signalled out of band of these types: a server shedding a
request at admission raises :class:`~repro.errors.OverloadedError`
synchronously in its handler, which the network layer delivers as a
*failed reply* re-raised at the caller's ``net.call`` — so the shed path
needs no message type and costs the server no handler state.  Only
request-bearing messages (:class:`LVIRequest`, :class:`DirectExecRequest`,
:class:`ShardPrepare`) are subject to admission control; followups,
decisions, and queries always get through.

These were frozen dataclasses until the fast-kernel refactor; they are now
hand-written ``__slots__`` classes because every request allocates several
of them and the dataclass machinery (``__dict__`` per instance, generated
``__eq__``/``__repr__``, frozen ``__setattr__`` interposition) showed up in
the kernel profile.  The keyword signatures and field defaults are
unchanged; instances are still immutable *by convention* — nothing in the
protocol mutates a message after construction, and the slots layout means
accidental new attributes raise ``AttributeError`` just as frozen did.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

Key = Tuple[str, str]

__all__ = [
    "LVIRequest",
    "LVIResponse",
    "WriteFollowup",
    "DirectExecRequest",
    "FreshItem",
    "ShardPrepare",
    "ShardDecision",
    "ShardDecisionQuery",
]


class LVIRequest:
    """The single coordination request of the protocol.

    Carries the predicted read/write sets (from f^rw), the cache's version
    for every read item (-1 marks a miss), and — so the near-storage
    location can run the backup/re-execution copy of the function — the
    function id and its arguments.
    """

    __slots__ = (
        "execution_id",
        "function_id",
        "args",
        "read_keys",
        "write_keys",
        "versions",
        "origin_region",
        "skip_locks",
        "read_facts",
    )

    def __init__(
        self,
        execution_id: str,
        function_id: str,
        args: Tuple[Any, ...],
        read_keys: Tuple[Key, ...],
        write_keys: Tuple[Key, ...],
        versions: Dict[Key, int],  # cached version per read key
        origin_region: str,
        # Conflict-detection fast path: the router's dirty probe cleared
        # this read-only request, so the server may validate without
        # acquiring locks; ``read_facts`` are the instantiated KeyFacts
        # the request promised to stay inside (sanitizer-enforced).
        skip_locks: bool = False,
        read_facts: Tuple[Any, ...] = (),
    ):
        self.execution_id = execution_id
        self.function_id = function_id
        self.args = args
        self.read_keys = read_keys
        self.write_keys = write_keys
        self.versions = versions
        self.origin_region = origin_region
        self.skip_locks = skip_locks
        self.read_facts = read_facts


class FreshItem:
    """An authoritative (value, version) shipped back on validation failure
    so the near-user cache can repair itself (§3.2 step 8b).  ``absent``
    records that the primary has no such key."""

    __slots__ = ("value", "version", "absent")

    def __init__(self, value: Any, version: int, absent: bool = False):
        self.value = value
        self.version = version
        self.absent = absent


class LVIResponse:
    """The server's answer to an LVI request."""

    __slots__ = (
        "execution_id",
        "ok",
        "new_versions",
        "validated_versions",
        "result",
        "fresh",
        "backup_read_versions",
        "backup_write_versions",
        "bounced",
    )

    def __init__(
        self,
        execution_id: str,
        ok: bool,  # validation outcome
        # Success path: versions the writes WILL have once applied, so the
        # cache can be updated without waiting for the followup round trip.
        new_versions: Dict[Key, int] = None,
        validated_versions: Dict[Key, int] = None,
        # Failure path: the backup execution's result plus cache repairs.
        result: Any = None,
        fresh: Dict[Key, FreshItem] = None,
        backup_read_versions: Dict[Key, int] = None,
        backup_write_versions: Dict[Key, int] = None,
        # Conflict-detection path: the server declined a lock-skipped
        # request (dirty probe hit, or a replica was asked for a locked
        # flow) without mutating any state; the runtime must retry through
        # the primary's full locked path.
        bounced: bool = False,
    ):
        self.execution_id = execution_id
        self.ok = ok
        self.new_versions = {} if new_versions is None else new_versions
        self.validated_versions = {} if validated_versions is None else validated_versions
        self.result = result
        self.fresh = {} if fresh is None else fresh
        self.backup_read_versions = {} if backup_read_versions is None else backup_read_versions
        self.backup_write_versions = (
            {} if backup_write_versions is None else backup_write_versions
        )
        self.bounced = bounced


class WriteFollowup:
    """Speculative writes, sent *after* responding to the client (§3.2
    step 8a).  ``writes`` are (table, key, value) in execution order."""

    __slots__ = ("execution_id", "writes")

    def __init__(self, execution_id: str, writes: Tuple[Tuple[str, str, Any], ...]):
        self.execution_id = execution_id
        self.writes = writes


class ShardPrepare:
    """Per-shard half of a cross-shard LVI exchange.

    When f^rw's access set spans shards, the runtime scatters one prepare
    per touched shard instead of a single :class:`LVIRequest`.  Each
    prepare carries only that shard's slice of the read/write sets and
    cached versions, plus the slice of the *already-buffered* speculative
    writes (speculation runs before the exchange, so the writes are known
    up front — a prepared shard can apply them without re-execution).  The
    shard validates, takes locks, durably records an ``apply`` intent, and
    votes; writes settle only after the runtime has gathered a unanimous
    vote and recorded COMMIT at the coordinating shard (presumed abort).
    """

    __slots__ = (
        "execution_id",
        "function_id",
        "read_keys",
        "write_keys",
        "versions",
        "writes",
        "origin_region",
        "shard",
        "coordinator",
        "nshards",
    )

    def __init__(
        self,
        execution_id: str,
        function_id: str,
        read_keys: Tuple[Key, ...],
        write_keys: Tuple[Key, ...],
        versions: Dict[Key, int],  # cached version per read key
        writes: Tuple[Tuple[str, str, Any], ...],  # this shard's buffered writes
        origin_region: str,
        shard: int,  # this shard's index
        coordinator: str,  # coordinating shard's endpoint
        nshards: int,  # shards touched by the txn
    ):
        self.execution_id = execution_id
        self.function_id = function_id
        self.read_keys = read_keys
        self.write_keys = write_keys
        self.versions = versions
        self.writes = writes
        self.origin_region = origin_region
        self.shard = shard
        self.coordinator = coordinator
        self.nshards = nshards


class ShardDecision:
    """Commit/abort verdict the runtime scatters after gathering votes.

    ``record_decision`` marks the copy addressed to the coordinating
    shard, which must durably record the outcome *before* applying its own
    writes — that record is what participant leases consult when a
    decision message is lost.
    """

    __slots__ = ("execution_id", "commit", "record_decision")

    def __init__(self, execution_id: str, commit: bool, record_decision: bool = False):
        self.execution_id = execution_id
        self.commit = commit
        self.record_decision = record_decision


class ShardDecisionQuery:
    """Participant → coordinator outcome lookup (lease expiry / recovery).

    The handler *forces* an outcome: if no decision record exists yet, it
    writes an abort tombstone — racing the runtime's COMMIT record through
    the store's conditional put, so exactly one outcome ever wins.
    """

    __slots__ = ("execution_id",)

    def __init__(self, execution_id: str):
        self.execution_id = execution_id


class DirectExecRequest:
    """Fallback for unanalyzable functions: run near storage, no
    speculation (§3.3 'Failure case')."""

    __slots__ = ("execution_id", "function_id", "args", "origin_region")

    def __init__(
        self,
        execution_id: str,
        function_id: str,
        args: Tuple[Any, ...],
        origin_region: str,
    ):
        self.execution_id = execution_id
        self.function_id = function_id
        self.args = args
        self.origin_region = origin_region
