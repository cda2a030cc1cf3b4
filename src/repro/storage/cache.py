"""The near-user cache: eventually consistent, possibly stale, never trusted.

Each near-user location runs one of these (paper §3.1).  The cache needs
neither durability nor consistency: the LVI protocol validates every cached
version against the primary before a speculative result is released, and a
version mismatch ships fresh values back in the LVI response (§3.2,
"Managing caches").  A wiped cache therefore re-bootstraps gradually —
requests fail validation until the working set is re-fetched.

``persistent=True`` models the paper's implementation choice of backing the
cache with persistent storage so a restart does not cold-start it.

Entries follow the ownership rule in :mod:`repro.storage.fastcopy`: an
authoritative item from the primary is installed as-is (it is already
storage-owned and never edited), a function's write is copied in once by
:meth:`NearUserCache.apply_local_write`, and an entry is only ever
*replaced*, never edited — so a snapshot that pinned an entry's value keeps
seeing exactly what it pinned.  Because an entry is immutable, any number
of caches may share it: a deployment builds its warm entries once and
every PoP's :meth:`NearUserCache.warm` installs the same objects.  Every
write path — :meth:`~NearUserCache.install`,
:meth:`~NearUserCache.apply_local_write`, a mesh PoP's gossiped apply,
:meth:`~NearUserCache.invalidate`, :meth:`~NearUserCache.wipe` — replaces
or drops the dict slot of its own cache, so no other holder sees it.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Tuple

from .fastcopy import fast_deepcopy
from .kvstore import Item, VERSION_MISS

__all__ = ["CacheEntry", "NearUserCache"]


class CacheEntry:
    """A cached item: possibly-stale value plus the version it came from.

    ``absent=True`` caches the knowledge that the primary had no such key
    (at the recorded version, always 0), so reads of missing keys can still
    speculate and validate.  ``installed_at`` is the virtual time the entry
    was last refreshed (0.0 for entries installed before the cache was
    bound to a simulator, e.g. build-time warming) — the hit-age metric and
    the mesh staleness analysis both read it.  Read-only by contract, like
    the :class:`Item` whose value it may share, and so shareable between
    caches.
    """

    __slots__ = ("value", "version", "absent", "installed_at")

    def __init__(self, value: Any, version: int, absent: bool = False,
                 installed_at: float = 0.0):
        self.value = value
        self.version = version
        self.absent = absent
        self.installed_at = installed_at

    def __repr__(self) -> str:
        return (
            f"CacheEntry(value={self.value!r}, version={self.version}, "
            f"absent={self.absent}, installed_at={self.installed_at})"
        )


class NearUserCache:
    """Per-location cache keyed by (table, key)."""

    def __init__(self, region: str, persistent: bool = False):
        self.region = region
        self.persistent = persistent
        self._entries: Dict[Tuple[str, str], CacheEntry] = {}
        self.hits = 0
        self.misses = 0
        #: Optional trace collector (set by the owning runtime).  When one
        #: is installed and enabled, hits/misses are emitted as point
        #: events in the current invocation's trace.
        self.obs = None
        #: Simulator + metrics bindings (installed by the owning runtime via
        #: :meth:`bind`).  Unbound caches timestamp entries at 0.0 and emit
        #: no hit-age samples — exactly the seed behaviour.
        self.sim = None
        self.metrics = None

    def bind(self, sim, metrics) -> None:
        """Attach the clock and metrics sink (called by the runtime)."""
        self.sim = sim
        self.metrics = metrics

    def _now(self) -> float:
        return self.sim.now if self.sim is not None else 0.0

    # -- reads -------------------------------------------------------------

    def lookup(self, table: str, key: str) -> Optional[CacheEntry]:
        """The cached entry, or ``None`` on a miss (version -1 in the LVI
        request; speculation is skipped because validation must fail)."""
        entry = self._entries.get((table, key))
        obs = self.obs
        if entry is None:
            self.misses += 1
            if obs is not None and obs.enabled:
                obs.event("cache.miss", region=self.region, table=table, key=key)
            return None
        self.hits += 1
        metrics = self.metrics
        if metrics is not None and metrics.enabled:
            age_ms = self._now() - entry.installed_at
            metrics.record_tagged("cache.hit_age_ms", age_ms, region=self.region)
            if obs is not None and obs.enabled:
                obs.event(
                    "cache.hit", region=self.region, table=table, key=key, age_ms=age_ms
                )
        elif obs is not None and obs.enabled:
            obs.event("cache.hit", region=self.region, table=table, key=key)
        return entry

    def version(self, table: str, key: str) -> int:
        """Cached version, or :data:`VERSION_MISS` if not cached."""
        entry = self._entries.get((table, key))
        return VERSION_MISS if entry is None else entry.version

    def contains(self, table: str, key: str) -> bool:
        return (table, key) in self._entries

    # -- updates -----------------------------------------------------------

    def install(self, table: str, key: str, item: Optional[Item]) -> None:
        """Install an authoritative (value, version) from an LVI response.

        ``item=None`` records that the primary has no such key.  The entry
        shares the item's value: storage-owned values are never edited.
        """
        if item is None:
            self._entries[(table, key)] = CacheEntry(
                value=None, version=0, absent=True, installed_at=self._now()
            )
        else:
            self._entries[(table, key)] = CacheEntry(
                value=item.value, version=item.version, installed_at=self._now()
            )

    def warm(self, entries: Dict[Tuple[str, str], CacheEntry]) -> None:
        """Install prebuilt entries as they are — build-time warming.

        The entries (and their key tuples) are shared with every other
        cache warmed from the same mapping; that is safe because no write
        path edits an entry, it replaces the slot.
        """
        self._entries.update(entries)

    def install_batch(self, fresh: Dict[Tuple[str, str], Optional[Item]]) -> None:
        """Install many authoritative items (the stale set of an LVI
        failure response, §3.2 step 8b)."""
        for (table, key), item in fresh.items():
            self.install(table, key, item)

    def apply_local_write(self, table: str, key: str, value: Any, version: int) -> None:
        """Apply a successfully-validated speculative write locally.

        Called only after the LVI request succeeds — Radical delays cache
        updates (including the version bump) until then (§3.2 step 2).
        The value is a function's and is copied in here, once: the cache
        must never alias an object a sandbox could still mutate.
        """
        self._entries[(table, key)] = CacheEntry(
            value=fast_deepcopy(value), version=version, installed_at=self._now()
        )

    def invalidate(self, table: str, key: str) -> None:
        """Drop one entry (next access will be a miss)."""
        self._entries.pop((table, key), None)

    def wipe(self) -> None:
        """Lose all cached state, unless the cache is persistent.

        Models a near-user location failure; correctness is unaffected
        because validation rejects whatever the cache cannot prove fresh.
        """
        if not self.persistent:
            self._entries.clear()

    def force_wipe(self) -> None:
        """Lose all state even if persistent (disk also failed)."""
        self._entries.clear()

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def hit_rate(self) -> Optional[float]:
        total = self.hits + self.misses
        return None if total == 0 else self.hits / total

    def entries(self) -> Iterable[Tuple[Tuple[str, str], CacheEntry]]:
        return list(self._entries.items())
