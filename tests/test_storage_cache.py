"""Tests for the near-user cache."""

import pytest

from repro.storage import CacheEntry, Item, KVStore, NearUserCache, VERSION_MISS


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


class TestSharedEntries:
    """Build-time warming shares one immutable entry per item between
    caches; every write path replaces or drops only its own cache's slot."""

    @pytest.fixture
    def pair(self):
        entries = {
            ("t", "a"): CacheEntry("va", 3, installed_at=12.5),
            ("t", "b"): CacheEntry(["vb"], 1, installed_at=12.5),
        }
        one, two = NearUserCache("jp"), NearUserCache("ca")
        one.warm(entries)
        two.warm(entries)
        return one, two, entries

    def test_warm_installs_the_entries_themselves(self, pair):
        one, two, entries = pair
        for cache in (one, two):
            assert len(cache) == 2
            for (key, entry), (wkey, wentry) in zip(cache.entries(), entries.items()):
                assert key is wkey and entry is wentry
        assert one.lookup("t", "a").installed_at == 12.5  # not restamped

    @pytest.mark.parametrize("write", [
        lambda c: c.apply_local_write("t", "a", "mine", 4),
        lambda c: c.install("t", "a", Item(value="fresh", version=5)),
        lambda c: c.install("t", "a", None),
        lambda c: c.invalidate("t", "a"),
        lambda c: c.wipe(),
    ], ids=["apply_local_write", "install", "install_absent", "invalidate", "wipe"])
    def test_a_write_leaves_the_other_cache_untouched(self, pair, write):
        one, two, entries = pair
        before = dict(two.entries())
        write(one)
        assert dict(two.entries()) == before
        for key, entry in two.entries():
            assert entry is entries[key]
        shared = entries[("t", "a")]
        assert (shared.value, shared.version, shared.absent) == ("va", 3, False)
        assert one.lookup("t", "a") is not shared
