"""Tests for the near-user cache."""

import pytest

from repro.sim import Metrics
from repro.storage import Item, KVStore, NearUserCache, VERSION_MISS


@pytest.fixture
def cache():
    return NearUserCache(region="jp")


class TestLookups:
    def test_miss_returns_none_and_counts(self, cache):
        assert cache.lookup("t", "k") is None
        assert cache.misses == 1 and cache.hits == 0

    def test_version_of_miss_is_sentinel(self, cache):
        assert cache.version("t", "k") == VERSION_MISS

    def test_install_then_hit(self, cache):
        cache.install("t", "k", Item(value={"v": 1}, version=3))
        entry = cache.lookup("t", "k")
        assert entry.value == {"v": 1}
        assert entry.version == 3
        assert not entry.absent
        assert cache.hits == 1

    def test_install_absent_marker(self, cache):
        cache.install("t", "ghost", None)
        entry = cache.lookup("t", "ghost")
        assert entry.absent
        assert entry.version == 0  # matches primary's VERSION_ABSENT

    def test_hit_rate(self, cache):
        cache.install("t", "k", Item(1, 1))
        cache.lookup("t", "k")
        cache.lookup("t", "other")
        assert cache.hit_rate() == pytest.approx(0.5)

    def test_hit_rate_none_when_untouched(self, cache):
        assert cache.hit_rate() is None


class TestUpdates:
    def test_install_batch_from_lvi_response(self, cache):
        store = KVStore()
        store.put("t", "a", "x")
        fresh = store.batch_get([("t", "a"), ("t", "b")])
        cache.install_batch(fresh)
        assert cache.lookup("t", "a").value == "x"
        assert cache.lookup("t", "b").absent

    def test_apply_local_write_sets_version(self, cache):
        cache.apply_local_write("t", "k", "speculative", version=7)
        entry = cache.lookup("t", "k")
        assert entry.value == "speculative"
        assert entry.version == 7

    def test_invalidate(self, cache):
        cache.install("t", "k", Item(1, 1))
        cache.invalidate("t", "k")
        assert cache.version("t", "k") == VERSION_MISS

    def test_invalidate_missing_is_noop(self, cache):
        cache.invalidate("t", "never")  # must not raise

    def test_len_counts_entries(self, cache):
        cache.install("t", "a", Item(1, 1))
        cache.install("t", "b", Item(2, 1))
        cache.install("t", "a", Item(3, 2))  # overwrite, not new
        assert len(cache) == 2


class TestFailureModel:
    def test_wipe_clears_volatile_cache(self, cache):
        cache.install("t", "k", Item(1, 1))
        cache.wipe()
        assert len(cache) == 0

    def test_wipe_preserves_persistent_cache(self):
        cache = NearUserCache(region="de", persistent=True)
        cache.install("t", "k", Item(1, 1))
        cache.wipe()
        assert cache.lookup("t", "k").value == 1

    def test_force_wipe_clears_even_persistent(self):
        cache = NearUserCache(region="de", persistent=True)
        cache.install("t", "k", Item(1, 1))
        cache.force_wipe()
        assert len(cache) == 0

    def test_rebootstrap_after_wipe(self, cache):
        # A wiped cache recovers entries as LVI responses install them.
        cache.install("t", "k", Item("v1", 1))
        cache.wipe()
        assert cache.version("t", "k") == VERSION_MISS
        cache.install("t", "k", Item("v2", 2))
        assert cache.lookup("t", "k").value == "v2"


class _Clock:
    def __init__(self, now):
        self.now = now


class TestSharedEntries:
    """Build-time warming shares one read-only snapshot of the store between
    caches; every write path changes only its own cache's overlay."""

    @pytest.fixture
    def pair(self):
        store = KVStore()
        for value in ("v1", "v2", "va"):
            store.put("t", "a", value)
        store.put("t", "b", ["vb"])
        store.put("_radical_intents", "x", {"pending": True})
        snapshot = store.snapshot()
        one, two = NearUserCache("jp"), NearUserCache("ca")
        one.warm(snapshot)
        two.warm(snapshot)
        return one, two, store, snapshot

    def test_warm_reads_the_stored_items_themselves(self, pair):
        one, two, store, snapshot = pair
        assert set(snapshot) == {"t"}  # protocol tables never enter caches
        for cache in (one, two):
            assert cache._snapshot is snapshot
            assert cache._entries == {}
            assert len(cache) == 2
            assert cache.entries() == [
                (("t", "a"), store.get("t", "a")), (("t", "b"), store.get("t", "b")),
            ]
            assert cache.lookup("t", "a") is store.get("t", "a")
            assert cache.version("t", "a") == 3 and cache.contains("t", "b")

    def test_a_store_write_after_warming_does_not_reach_the_snapshot(self, pair):
        one, _two, store, _snapshot = pair
        warm = store.get("t", "a")
        store.put("t", "a", "later")
        store.put("t", "c", "new")
        assert one.lookup("t", "a") is warm and warm.value == "va"
        assert not one.contains("t", "c")

    def test_warm_stamp_is_the_warming_instant_not_restamped(self):
        store = KVStore()
        store.put("t", "a", "va")
        metrics = Metrics()
        cache = NearUserCache("jp")
        cache.sim = _Clock(12.5)
        cache.warm(store.snapshot())
        cache.bind(_Clock(40.0), metrics)
        assert cache.warmed_at == 12.5
        cache.lookup("t", "a")
        cache.install("t", "b", Item("vb", 1))
        cache.lookup("t", "b")
        assert metrics.samples_tagged("cache.hit_age_ms") == [27.5, 0.0]

    @pytest.mark.parametrize("write", [
        lambda c: c.apply_local_write("t", "a", "mine", 4),
        lambda c: c.install("t", "a", Item(value="fresh", version=5)),
        lambda c: c.install("t", "a", None),
        lambda c: c.invalidate("t", "a"),
        lambda c: c.wipe(),
    ], ids=["apply_local_write", "install", "install_absent", "invalidate", "wipe"])
    def test_a_write_leaves_the_other_cache_untouched(self, pair, write, request):
        one, two, store, snapshot = pair
        held = {table: dict(rows) for table, rows in snapshot.items()}
        before = two.entries()
        write(one)
        assert two.entries() == before and two._entries == {}
        for key, entry in two.entries():
            assert entry is store.get(*key)
        assert snapshot == held
        for table, rows in snapshot.items():
            assert all(rows[key] is item for key, item in held[table].items())
        shared = store.get("t", "a")
        assert (shared.value, shared.version, shared.absent) == ("va", 3, False)
        assert one.lookup("t", "a") is not shared
        wiped = request.node.callspec.id == "wipe"
        assert one.lookup("t", "b") is (None if wiped else store.get("t", "b"))

    def test_invalidate_hides_a_warm_key_until_reinstalled(self, pair):
        one, _two, store, _snapshot = pair
        one.invalidate("t", "a")
        assert not one.contains("t", "a") and one.version("t", "a") == VERSION_MISS
        assert len(one) == 1 and [k for k, _e in one.entries()] == [("t", "b")]
        one.install("t", "a", store.get("t", "a"))
        assert one.lookup("t", "a").value == "va" and len(one) == 2

    def test_persistent_cache_keeps_the_snapshot_across_wipe(self):
        store = KVStore()
        store.put("t", "a", "va")
        snapshot = store.snapshot()
        cache = NearUserCache("de", persistent=True)
        cache.warm(snapshot)
        cache.apply_local_write("t", "b", "mine", 1)
        cache.wipe()
        assert cache._snapshot is snapshot
        assert cache.lookup("t", "a") is store.get("t", "a")
        assert cache.lookup("t", "b").value == "mine"
        cache.force_wipe()
        assert len(cache) == 0 and cache.lookup("t", "a") is None
        assert snapshot == {"t": {"a": store.get("t", "a")}}

    def test_warming_a_cache_that_holds_entries_raises(self, pair):
        one, _two, _store, snapshot = pair
        with pytest.raises(RuntimeError, match="already holds entries"):
            one.warm(snapshot)
        cold = NearUserCache("ie")
        cold.install("t", "a", Item("x", 1))
        with pytest.raises(RuntimeError, match="already holds entries"):
            cold.warm(snapshot)
