"""What a failed validation's repair carries, and what a cache takes of it.

An ``ok=False`` reply repairs the request's own stale and written keys —
the cache-bootstrap mechanism of §3.2 — and also carries every application
key the shard wrote since the requesting location's last repair, so a
cache learns of another location's write before one of its own requests
fails on that key.  The runtime installs such an extra item only over an
entry it holds, and no install ever moves a key backwards.  Success
replies carry nothing.
"""

import pytest

from repro.analysis import KeyFact
from repro.core import (
    PATH_BACKUP,
    PATH_MISS,
    PATH_SPECULATIVE,
    FreshItem,
    FunctionRegistry,
    FunctionSpec,
    LVIRequest,
    LVIServer,
    NearUserRuntime,
    RadicalConfig,
)
from repro.sim import Metrics, Network, RandomStreams, Region, Simulator, paper_latency_table
from repro.storage import Item, KVStore, NearUserCache
from repro.topology import ConflictDetector

READ_SRC = '''
def read(k):
    busy(2000)
    return db_get("items", k)
'''

WRITE_SRC = '''
def write(k, v):
    busy(2000)
    old = db_get("items", k)
    db_put("items", k, v)
    return old
'''


def _registry():
    registry = FunctionRegistry()
    registry.register(FunctionSpec("t.read", READ_SRC, 20.0))
    registry.register(FunctionSpec("t.write", WRITE_SRC, 20.0))
    return registry


class _World:
    """One shard, one near-user runtime per region, cold caches."""

    def __init__(self, regions=(Region.VA, Region.CA)):
        self.sim = Simulator()
        streams = RandomStreams(3)
        self.net = Network(self.sim, paper_latency_table(), streams)
        self.metrics = Metrics()
        config = RadicalConfig(service_jitter_sigma=0.0)
        self.store = KVStore()
        for key in ("k", "o", "j"):
            self.store.put("items", key, f"{key}0")
        registry = _registry()
        self.server = LVIServer(self.sim, self.net, registry, self.store, config,
                                streams, self.metrics)
        self.caches = {r: NearUserCache(r) for r in regions}
        self.runtimes = {
            r: NearUserRuntime(self.sim, self.net, r, self.caches[r], registry,
                               config, streams, self.metrics)
            for r in regions
        }
        self.repairs = []  # every repair the server assembled, in order
        collect = self.server._collect_fresh

        def recording(keys, client):
            fresh = collect(keys, client)
            self.repairs.append(fresh)
            return fresh

        self.server._collect_fresh = recording

    def invoke(self, region, function_id, *args):
        outcome = self.sim.run_process(self.runtimes[region].invoke(function_id, list(args)))
        self.sim.run(until=self.sim.now + 5_000.0)  # followups land
        return outcome

    def cached(self, region, key):
        return self.caches[region].version("items", key)


class TestTwoRegionsOneShard:
    def test_another_locations_write_reaches_a_cache_that_holds_the_key(self):
        w = _World()
        assert w.invoke(Region.VA, "t.read", "k").path == PATH_MISS  # VA holds k@1
        w.invoke(Region.CA, "t.read", "k")
        assert w.invoke(Region.CA, "t.write", "k", "k1").path == PATH_SPECULATIVE
        assert w.store.version("items", "k") == 2
        # VA's next failure is on another key; its repair carries k.
        assert w.invoke(Region.VA, "t.read", "o").path == PATH_MISS
        assert ("items", "k") in w.repairs[-1]
        assert w.cached(Region.VA, "k") == 2
        outcome = w.invoke(Region.VA, "t.read", "k")
        assert outcome.path == PATH_SPECULATIVE and outcome.result == "k1"

    def test_without_an_earlier_repair_the_write_is_learned_by_failing(self):
        # The change set starts at a location's first repair: VA warmed
        # from nothing but its own first miss, so that miss carries no
        # extra key, and VA's stale k still fails once.
        w = _World()
        w.invoke(Region.CA, "t.read", "k")
        w.invoke(Region.CA, "t.write", "k", "k1")
        w.invoke(Region.VA, "t.read", "o")
        assert set(w.repairs[-1]) == {("items", "o")}
        w.caches[Region.VA].install("items", "k", Item("k0", 1))
        assert w.invoke(Region.VA, "t.read", "k").path == PATH_BACKUP
        assert w.invoke(Region.VA, "t.read", "k").path == PATH_SPECULATIVE

    def test_a_key_the_cache_never_held_is_not_installed(self):
        w = _World()
        w.invoke(Region.VA, "t.read", "k")
        w.invoke(Region.CA, "t.read", "j")
        w.invoke(Region.CA, "t.write", "j", "j1")
        w.invoke(Region.VA, "t.read", "o")
        assert ("items", "j") in w.repairs[-1]
        assert w.cached(Region.VA, "j") == -1
        # ... so a cold cache still bootstraps j by its own miss.
        assert w.invoke(Region.VA, "t.read", "j").path == PATH_MISS

    def test_a_success_reply_carries_nothing_and_drains_nothing(self):
        w = _World()
        w.invoke(Region.VA, "t.read", "k")
        w.invoke(Region.VA, "t.read", "o")
        w.invoke(Region.CA, "t.read", "k")
        w.invoke(Region.CA, "t.write", "k", "k1")
        repairs = len(w.repairs)
        assert w.invoke(Region.VA, "t.read", "o").path == PATH_SPECULATIVE
        assert len(w.repairs) == repairs  # no repair was assembled
        assert w.cached(Region.VA, "k") == 1
        # The write is still owed to VA's next repair.
        w.invoke(Region.VA, "t.read", "j")
        assert ("items", "k") in w.repairs[-1]
        assert w.cached(Region.VA, "k") == 2

    def test_each_repair_drains_the_locations_change_set(self):
        w = _World()
        w.invoke(Region.VA, "t.read", "k")
        w.invoke(Region.CA, "t.read", "k")
        w.invoke(Region.CA, "t.write", "k", "k1")
        w.invoke(Region.VA, "t.read", "o")
        assert ("items", "k") in w.repairs[-1]
        w.invoke(Region.VA, "t.read", "j")
        assert set(w.repairs[-1]) == {("items", "j")}


class TestInstallNeverMovesBackwards:
    def _runtime(self):
        sim = Simulator()
        net = Network(sim, paper_latency_table(), RandomStreams(0))
        cache = NearUserCache(Region.VA)
        return NearUserRuntime(sim, net, Region.VA, cache, _registry()), cache

    def test_a_speculative_write_outlives_an_older_repair(self):
        runtime, cache = self._runtime()
        cache.apply_local_write("items", "k", "mine", 4)
        runtime._install_fresh({("items", "k"): FreshItem("theirs", 3)}, {("items", "k")})
        entry = cache.lookup("items", "k")
        assert (entry.value, entry.version) == ("mine", 4)

    def test_an_absence_does_not_replace_a_present_entry(self):
        runtime, cache = self._runtime()
        cache.apply_local_write("items", "k", "mine", 1)
        runtime._install_fresh({("items", "k"): FreshItem(None, 0, absent=True)},
                               {("items", "k")})
        assert cache.version("items", "k") == 1

    @pytest.mark.parametrize("own", [True, False])
    def test_a_newer_item_replaces_a_held_entry(self, own):
        runtime, cache = self._runtime()
        cache.apply_local_write("items", "k", "old", 1)
        runtime._install_fresh({("items", "k"): FreshItem("new", 2)},
                               {("items", "k")} if own else set())
        assert cache.lookup("items", "k").value == "new"

    def test_only_the_requests_own_keys_bootstrap(self):
        runtime, cache = self._runtime()
        runtime._install_fresh(
            {("items", "a"): FreshItem("a", 1), ("items", "b"): FreshItem(None, 0, absent=True),
             ("items", "c"): FreshItem("c", 5)},
            {("items", "a"), ("items", "b")},
        )
        assert cache.version("items", "a") == 1
        assert cache.lookup("items", "b").absent
        assert cache.version("items", "c") == -1


class _Shard:
    """A shard primary with one read replica sharing its store, driven
    over the network from named client endpoints."""

    def __init__(self):
        self.sim = Simulator()
        streams = RandomStreams(5)
        self.net = Network(self.sim, paper_latency_table(), streams)
        self.metrics = Metrics()
        self.store = KVStore()
        for key in ("a", "b"):
            self.store.put("items", key, f"{key}0")
        config = RadicalConfig(service_jitter_sigma=0.0, followup_timeout_ms=60_000.0)
        registry = _registry()
        self.primary = LVIServer(self.sim, self.net, registry, self.store, config,
                                 streams, self.metrics)
        self.replica = LVIServer(self.sim, self.net, registry, self.store, config,
                                 RandomStreams(5), self.metrics, name="lvi-server-r1",
                                 primary=self.primary.name)
        self.primary.detector = self.replica.detector = ConflictDetector(metrics=self.metrics)

    def call(self, client, dst, request):
        if client not in self.net._endpoints:
            self.net.register(client, Region.JP)
        return self.sim.run_process(self.net.call(client, dst, request, timeout=60_000.0))

    def stale_read(self, eid, key, skip_locks=True):
        return LVIRequest(
            execution_id=eid, function_id="t.read", args=(key,),
            read_keys=(("items", key),), write_keys=(), versions={("items", key): 0},
            skip_locks=skip_locks,
            read_facts=(KeyFact("items", "exact", key),) if skip_locks else (),
        )

    def primary_write(self, client, eid, key):
        """A write the primary executes (a stale writer's backup)."""
        request = LVIRequest(
            execution_id=eid, function_id="t.write", args=(key, f"{key}1"),
            read_keys=(("items", key),), write_keys=(("items", key),),
            versions={("items", key): 0},
        )
        assert not self.call(client, self.primary.name, request).ok
        assert self.store.version("items", key) == 2


class TestThroughAReadReplica:
    def test_a_lock_free_backup_at_a_replica_carries_the_primarys_writes(self):
        s = _Shard()
        first = s.call("rt-va", s.replica.name, s.stale_read("va:1", "a"))
        assert not first.ok and set(first.fresh) == {("items", "a")}
        s.primary_write("rt-ca", "ca:1", "b")
        second = s.call("rt-va", s.replica.name, s.stale_read("va:2", "a"))
        assert not second.ok and s.metrics.counter("router.lock_skipped") == 2
        assert second.fresh[("items", "b")].version == 2
        assert second.fresh[("items", "b")].value == "b1"

    def test_a_forward_is_repaired_under_its_original_client(self):
        s = _Shard()
        s.call("rt-va", s.replica.name, s.stale_read("va:1", "a"))
        s.primary_write("rt-ca", "ca:1", "b")
        forwarded = s.call("rt-va", s.replica.name, s.stale_read("va:2", "a", skip_locks=False))
        assert s.metrics.counter("router.replica_bounce") == 1
        assert not forwarded.ok and ("items", "b") in forwarded.fresh
        assert set(s.store._repaired) == {"rt-va", "rt-ca"}
