"""The near-user cache: eventually consistent, possibly stale, never trusted.

Each near-user location runs one of these (paper §3.1).  The cache needs
neither durability nor consistency: the LVI protocol validates every cached
version against the primary before a speculative result is released, and a
version mismatch ships fresh values back in the LVI response (§3.2,
"Managing caches").  A wiped cache therefore re-bootstraps gradually —
requests fail validation until the working set is re-fetched.

``persistent=True`` models the paper's implementation choice of backing the
cache with persistent storage so a restart does not cold-start it.

Each cache has two layers.  The lower one is the deployment's **warm
snapshot** of the stores (:meth:`repro.storage.kvstore.KVStore.snapshot`):
``{table: {key: Item}}``, taken once per deployment and shared, unwritten,
by every PoP cache.  The upper one is the cache's own **overlay**: what it
has installed, applied, fetched or invalidated since warming.  Reads check
the overlay first; every write path — :meth:`~NearUserCache.install`,
:meth:`~NearUserCache.apply_local_write`, a mesh PoP's gossiped apply and
cut pull, :meth:`~NearUserCache.invalidate` (which hides a snapshot key
behind a ``None`` marker), :meth:`~NearUserCache.wipe` — touches only the
overlay or this cache's reference to the snapshot, so no other holder sees
it.

Both layers follow the ownership rule in :mod:`repro.storage.fastcopy`.  A
warm hit is the stored :class:`Item` itself: the store never edits an item
(a write replaces it), so the snapshot is the warm-time state forever and
needs no per-item wrapper.  An authoritative item from the primary is
installed sharing its value, a function's write is copied in once by
:meth:`NearUserCache.apply_local_write`, and an overlay entry is only ever
*replaced*, never edited — so a snapshot reader that pinned an entry's
value keeps seeing exactly what it pinned.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple

from .fastcopy import fast_deepcopy
from .kvstore import Item, VERSION_MISS

__all__ = ["CacheEntry", "NearUserCache"]

#: The rows of a table the warm snapshot does not hold.
_NO_ROWS: Mapping[str, Item] = MappingProxyType({})
#: What an overlay lookup returns when the overlay has no word on a key.
_UNSET = object()


class CacheEntry(Item):
    """An overlay entry: possibly-stale value plus the version it came from.

    ``absent=True`` caches the knowledge that the primary had no such key
    (at the recorded version, always 0), so reads of missing keys can still
    speculate and validate.  ``installed_at`` is the virtual time the entry
    was installed (0.0 while the cache is unbound to a simulator) — the
    hit-age metric reads it; a warm hit, which is a plain stored
    :class:`Item`, is aged from its cache's ``warmed_at`` instead.
    Read-only by contract, like the :class:`Item` whose value it may share.
    """

    __slots__ = ("absent", "installed_at")

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
    """Per-location cache keyed by (table, key): the shared warm snapshot
    under this cache's own overlay."""

    def __init__(self, region: str, persistent: bool = False):
        self.region = region
        self.persistent = persistent
        #: The lower layer, ``{table: {key: Item}}``: set by :meth:`warm`,
        #: shared with every cache warmed from it, never written.
        self._snapshot: Dict[str, Dict[str, Item]] = {}
        #: The virtual time this cache was warmed: the install time of
        #: every snapshot hit, for the hit-age metric.
        self.warmed_at = 0.0
        #: The upper layer: entries installed since warming; ``None``
        #: hides the snapshot's item for a key this cache invalidated.
        self._entries: Dict[Tuple[str, str], Optional[CacheEntry]] = {}
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

    def _peek(self, table: str, key: str) -> Optional[Item]:
        """The visible entry — the overlay's, else the snapshot's — without
        counting a hit or a miss."""
        entry = self._entries.get((table, key), _UNSET)
        if entry is _UNSET:
            return self._snapshot.get(table, _NO_ROWS).get(key)
        return entry

    def lookup(self, table: str, key: str) -> Optional[Item]:
        """The cached entry, or ``None`` on a miss (version -1 in the LVI
        request; speculation is skipped because validation must fail).  A
        warm hit is the stored :class:`Item`, anything newer a
        :class:`CacheEntry`; both carry ``value``, ``version``, ``absent``."""
        entry = self._peek(table, key)
        obs = self.obs
        if entry is None:
            self.misses += 1
            if obs is not None and obs.enabled:
                obs.event("cache.miss", region=self.region, table=table, key=key)
            return None
        self.hits += 1
        metrics = self.metrics
        if metrics is not None and metrics.enabled:
            installed_at = (
                entry.installed_at if isinstance(entry, CacheEntry) else self.warmed_at
            )
            age_ms = self._now() - installed_at
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
        entry = self._peek(table, key)
        return VERSION_MISS if entry is None else entry.version

    def contains(self, table: str, key: str) -> bool:
        return self._peek(table, key) is not None

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

    def warm(self, snapshot: Dict[str, Dict[str, Item]]) -> None:
        """Build-time warming: read ``snapshot`` as the lower layer.

        The snapshot is kept by reference and shared with every other cache
        warmed from it; nothing here or on any write path edits it.  Its
        items are stamped as :meth:`install` would stamp them now: a cache
        still unbound to a simulator at 0.0, a mesh PoP at ``sim.now``.
        """
        if self._snapshot or self._entries:
            raise RuntimeError(
                f"cannot warm cache {self.region!r}: it already holds entries"
            )
        self._snapshot = snapshot
        self.warmed_at = self._now()

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
        """Drop one entry (next access will be a miss); a warm key stays
        hidden behind a marker, because the shared snapshot is not ours to
        edit."""
        if key in self._snapshot.get(table, _NO_ROWS):
            self._entries[(table, key)] = None
        else:
            self._entries.pop((table, key), None)

    def wipe(self) -> None:
        """Lose all cached state, unless the cache is persistent.

        Models a near-user location failure; correctness is unaffected
        because validation rejects whatever the cache cannot prove fresh.
        """
        if not self.persistent:
            self.force_wipe()

    def force_wipe(self) -> None:
        """Lose all state even if persistent (disk also failed): both the
        overlay and this cache's reference to the snapshot."""
        self._snapshot = {}
        self._entries.clear()

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.entries())

    def hit_rate(self) -> Optional[float]:
        total = self.hits + self.misses
        return None if total == 0 else self.hits / total

    def entries(self) -> Iterable[Tuple[Tuple[str, str], Item]]:
        """Every visible ``((table, key), entry)``: the snapshot's keys in
        its order (an overlay entry in place of the item it shadows), then
        the keys only the overlay holds."""
        overlay = self._entries
        out = []
        for table, rows in self._snapshot.items():
            for key, item in rows.items():
                entry = overlay.get((table, key), item)
                if entry is not None:
                    out.append(((table, key), entry))
        for (table, key), entry in overlay.items():
            if entry is not None and key not in self._snapshot.get(table, _NO_ROWS):
                out.append(((table, key), entry))
        return out
