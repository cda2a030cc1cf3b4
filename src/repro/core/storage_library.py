"""Host environments wiring the sandbox to Radical's storage (§3.1).

Four environments cover the places a function can run:

* :class:`SpeculativeEnv` — near-user speculation: reads come from a
  *snapshot* of the cache pinned at first access (so the values the
  function reads are exactly the ones whose versions the LVI request
  validated, even if concurrent completions update the cache mid-run);
  writes go to a buffer that is applied to the cache only after the LVI
  response confirms validation (§3.2: "Radical delays updates to the
  storage near-user until the LVI request returns").
* :class:`PrimaryEnv` — backup execution and deterministic re-execution at
  the near-storage location: reads and writes hit the primary store
  directly, under the locks the LVI request acquired.
* :class:`SnapshotEnv` — a backup execution predicted to write nothing, run
  at the validation instant: a :class:`PrimaryEnv` that can only read, and
  only the keys the request read-locked; anything else raises
  :class:`SnapshotEscape` before the store is touched.
* the f^rw cache reader — a :class:`SnapshotReader` sharing the same
  snapshot, so dependent reads in f^rw and the later speculative run agree.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..storage import KVStore, NearUserCache, VERSION_MISS
from ..storage.fastcopy import fast_deepcopy

Key = Tuple[str, str]

__all__ = ["SnapshotReader", "SpeculativeEnv", "PrimaryEnv", "SnapshotEnv", "SnapshotEscape"]


class SnapshotReader:
    """Lazily pins cache entries at first access.

    Records, per key: the value handed to the sandbox and the cached
    version (``-1`` for a miss).  Both f^rw and the speculative f read
    through the same instance, so they observe the same versions.

    Every ``read`` returns a **fresh deep copy** of the pinned value: in
    the real system f^rw and f are separate executions each deserialising
    their own copy from the cache, so in-place mutations by one (f^rw's
    slice may retain mutation statements) must never leak into the other —
    or worse, into the cache itself.
    """

    def __init__(self, cache: NearUserCache):
        self.cache = cache
        self._values: Dict[Key, Any] = {}
        self.versions: Dict[Key, int] = {}

    def read(self, table: str, key: str) -> Any:
        k = (table, key)
        if k not in self._values:
            entry = self.cache.lookup(table, key)
            if entry is None:
                self._values[k] = None
                self.versions[k] = VERSION_MISS
            else:
                self._values[k] = fast_deepcopy(None if entry.absent else entry.value)
                self.versions[k] = entry.version
        return fast_deepcopy(self._values[k])

    def version_of(self, table: str, key: str) -> int:
        """Version for a key, pinning it if not yet read."""
        self.read(table, key)
        return self.versions[(table, key)]


class SpeculativeEnv:
    """Sandbox environment for the near-user speculative execution."""

    def __init__(self, snapshot: SnapshotReader):
        self.snapshot = snapshot
        self._buffer: Dict[Key, Any] = {}
        self._write_order: List[Tuple[str, str, Any]] = []

    def db_get(self, table: str, key: str) -> Any:
        k = (table, key)
        if k in self._buffer:
            # Read-your-own-speculative-write; copied so later in-place
            # mutation does not silently edit the buffered write.
            return fast_deepcopy(self._buffer[k])
        return self.snapshot.read(table, key)

    def db_put(self, table: str, key: str, value: Any) -> None:
        self._buffer[(table, key)] = value
        self._write_order.append((table, key, value))

    def buffered_writes(self) -> List[Tuple[str, str, Any]]:
        """Final value per written key, in first-write order — what the
        followup carries and the cache applies on success."""
        seen: Dict[Key, Any] = {}
        order: List[Key] = []
        for table, key, value in self._write_order:
            if (table, key) not in seen:
                order.append((table, key))
            seen[(table, key)] = value
        return [(t, k, seen[(t, k)]) for (t, k) in order]


class PrimaryEnv:
    """Sandbox environment for executions at the near-storage location.

    Reads/writes go straight to the primary store; writes take effect
    immediately (the LVI server holds this execution's locks, so no other
    execution can observe a partial state).
    """

    def __init__(self, store: KVStore):
        self.store = store
        self.read_versions: Dict[Key, int] = {}
        self.write_versions: Dict[Key, int] = {}

    def db_get(self, table: str, key: str) -> Any:
        item = self.store.get_or_none(table, key)
        self.read_versions.setdefault((table, key), 0 if item is None else item.version)
        return None if item is None else item.value

    def db_put(self, table: str, key: str, value: Any) -> None:
        self.write_versions[(table, key)] = self.store.put(table, key, value)


class SnapshotEscape(Exception):
    """An execution on a :class:`SnapshotEnv` wrote, or read a key outside
    the locked read set: it was not the read-only function over those keys
    that the (possibly stale) cache predicted."""


class SnapshotEnv(PrimaryEnv):
    """A :class:`PrimaryEnv` restricted to reading ``read_keys`` — the keys
    whose read locks the execution holds, so everything it can observe is
    one consistent cut of the primary store."""

    def __init__(self, store: KVStore, read_keys: Iterable[Key]):
        super().__init__(store)
        self._read_keys = frozenset(read_keys)

    def db_get(self, table: str, key: str) -> Any:
        if (table, key) not in self._read_keys:
            raise SnapshotEscape(f"read of unlocked key {(table, key)}")
        return super().db_get(table, key)

    def db_put(self, table: str, key: str, value: Any) -> None:
        raise SnapshotEscape(f"write to {(table, key)}")
