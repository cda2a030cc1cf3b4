"""The primary storage system: a linearizable, versioned, multi-table KV store.

This is the reproduction's stand-in for DynamoDB in the near-storage
location (paper §3.1): it is linearizable (a single-site store mutated
atomically within the simulation), durable by assumption, and keeps a
*version number* per item which Radical increments on every update — the
LVI protocol's validation step compares cached versions against these.

Versions start at 0 for a key that has never been written and increase by
exactly 1 per write; the near-user cache uses -1 as its "not cached"
sentinel (§3.2), which therefore never matches any primary version.

The store itself is passive and synchronous; *access latency* is modelled by
the component making the access (e.g. the LVI server charges one
in-datacenter round trip per batch of storage operations), matching how the
paper attributes latency to the network rather than to DynamoDB's innards.

The store also keeps what a failed validation's repair needs to carry
beyond the request's own keys (:meth:`KVStore.changed_since_repair`): the
application keys it wrote since each near-user location's last repair.

Values follow the ownership rule in :mod:`repro.storage.fastcopy`: ``put``
copies the caller's value in, and every read hands out the stored
:class:`Item` itself.  A stored item is never edited — a write replaces it —
so the caches, LVI responses and mesh updates that receive it all share the
one object; the sandbox environments copy a value out before a function can
touch it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..errors import ConditionFailed, KeyMissing
from .fastcopy import fast_deepcopy

__all__ = ["Item", "KVStore", "WriteOp", "VERSION_ABSENT", "VERSION_MISS"]

#: Version of a key that exists in no table (never written).
VERSION_ABSENT = 0
#: Sentinel a cache reports for a key it has no entry for (paper §3.2).
VERSION_MISS = -1


class Item:
    """One stored item: value plus version.

    Read-only by contract: the store hands out its own instance, which the
    caches and messages downstream share, so neither field nor value may
    ever be edited in place.  A near-user cache serves a warm hit as the
    stored item itself, so an item reads as a present cache entry
    (``absent`` is false).
    """

    __slots__ = ("value", "version")

    #: A stored item always exists; only a cache entry can record absence.
    absent = False

    def __init__(self, value: Any, version: int):
        self.value = value
        self.version = version

    def __repr__(self) -> str:
        return f"Item(value={self.value!r}, version={self.version})"

    def copy_value(self) -> Any:
        """A private deep copy of the value, for code that may mutate it."""
        return fast_deepcopy(self.value)


@dataclass(frozen=True)
class WriteOp:
    """One write in a batch: table, key, and the new value."""

    table: str
    key: str
    value: Any


class KVStore:
    """Linearizable multi-table key-value store with per-item versions."""

    def __init__(self, name: str = "primary"):
        self.name = name
        self._tables: Dict[str, Dict[str, Item]] = {}
        self.reads = 0
        self.writes = 0
        #: ``{(table, key): write count at its last write}`` in write order,
        #: application tables only; None until the first location is
        #: repaired (see :meth:`changed_since_repair`).
        self._written: Optional[Dict[Tuple[str, str], int]] = None
        #: Each repaired location's write count at its last repair.
        self._repaired: Dict[str, int] = {}

    # -- single-item operations ------------------------------------------------

    def get(self, table: str, key: str) -> Item:
        """Return the stored, read-only item; raises :class:`KeyMissing` if
        absent."""
        self.reads += 1
        item = self._tables.get(table, {}).get(key)
        if item is None:
            raise KeyMissing(table, key)
        return item

    def get_or_none(self, table: str, key: str) -> Optional[Item]:
        """Return the stored, read-only item or ``None`` if absent."""
        self.reads += 1
        return self._tables.get(table, {}).get(key)

    def version(self, table: str, key: str) -> int:
        """The item's version, or :data:`VERSION_ABSENT` if never written."""
        item = self._tables.get(table, {}).get(key)
        return VERSION_ABSENT if item is None else item.version

    def put(self, table: str, key: str, value: Any) -> int:
        """Write a value, incrementing the version; returns the new version.

        Radical interposes on every write to bump the version (§3.1); here
        the store does it natively, which is equivalent.  The value is
        copied in: the caller keeps its object, the store owns the copy.
        """
        self.writes += 1
        tbl = self._tables.setdefault(table, {})
        old = tbl.get(key)
        new_version = (old.version if old is not None else VERSION_ABSENT) + 1
        tbl[key] = Item(fast_deepcopy(value), new_version)
        written = self._written
        if written is not None and not table.startswith("_radical"):
            # Move the key to the end: the log stays in write order.
            k = (table, key)
            written.pop(k, None)
            written[k] = self.writes
        return new_version

    def conditional_put(self, table: str, key: str, value: Any, expected_version: int) -> int:
        """Write only if the current version equals ``expected_version``.

        Raises :class:`ConditionFailed` otherwise.  Used by the intent
        table to make duplicate followup/re-execution application safe.
        """
        current = self.version(table, key)
        if current != expected_version:
            raise ConditionFailed(
                f"{table}/{key}: expected version {expected_version}, found {current}"
            )
        return self.put(table, key, value)

    def delete(self, table: str, key: str) -> bool:
        """Remove a key; returns True if it existed.

        Deletion erases the version history; Radical only deletes from its
        metadata tables (intents, idempotency keys), never from app data.
        """
        self.writes += 1
        tbl = self._tables.get(table)
        if tbl is None or key not in tbl:
            return False
        del tbl[key]
        return True

    def exists(self, table: str, key: str) -> bool:
        return key in self._tables.get(table, {})

    # -- batch operations (one storage round trip in the protocol) ---------------

    def batch_versions(self, keys: Iterable[Tuple[str, str]]) -> Dict[Tuple[str, str], int]:
        """Versions for many (table, key) pairs at once."""
        return {(t, k): self.version(t, k) for (t, k) in keys}

    def batch_get(self, keys: Iterable[Tuple[str, str]]) -> Dict[Tuple[str, str], Optional[Item]]:
        """Stored items for many (table, key) pairs; absent keys map to
        ``None``."""
        return {(t, k): self.get_or_none(t, k) for (t, k) in keys}

    def apply_writes(self, writes: Iterable[WriteOp]) -> Dict[Tuple[str, str], int]:
        """Apply a batch of writes atomically; returns the new versions.

        Atomicity is trivial here (single-site, no yielding between puts),
        which matches the LVI server applying a followup's writes while
        still holding that execution's write locks.
        """
        return {(w.table, w.key): self.put(w.table, w.key, w.value) for w in writes}

    # -- what a location's next repair carries ----------------------------------

    def changed_since_repair(self, location: str) -> List[Tuple[str, str]]:
        """The application keys written here since ``location``'s previous
        call, in write order; ``location`` counts as repaired as of now.

        A location's first call returns nothing and starts the tracking, so
        a warm cache is not flooded with what it was warmed from.  The
        state is one write log shared by every location — each written key
        once, at its last write, never a ``_radical*`` row — plus one write
        count per location: bounded by the key space, and its walk costs
        one step per key written since the location's last repair.  It is
        soft state kept beside the data, so it survives an LVI server
        crash; losing it would cost caches only freshness, never
        correctness, because validation still checks every read."""
        written = self._written
        if written is None:
            written = self._written = {}
        last = self._repaired.get(location)
        self._repaired[location] = self.writes
        if last is None:
            return []
        keys = []
        for key, stamp in reversed(written.items()):
            if stamp <= last:
                break
            keys.append(key)
        keys.reverse()
        return keys

    # -- introspection ------------------------------------------------------------

    def scan(self, table: str) -> List[Tuple[str, Item]]:
        """All (key, stored item) pairs of a table, sorted by key — what
        the intent table's recovery sweep walks."""
        return sorted(self._tables.get(table, {}).items())

    def snapshot(self) -> Dict[str, Dict[str, Item]]:
        """``{table: {key: stored item}}`` for every application table, as
        of now — what a deployment warms its caches from.  Each table dict
        is a shallow copy; no item or value is copied, because a stored
        item is never edited, so the copy stays this instant's state
        forever.  Protocol tables (``_radical*``) are left out."""
        return {
            table: dict(rows)
            for table, rows in self._tables.items()
            if not table.startswith("_radical")
        }

    def table_names(self) -> List[str]:
        return sorted(self._tables)

    def size(self, table: str) -> int:
        return len(self._tables.get(table, {}))
