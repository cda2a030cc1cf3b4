"""Unit tests for core components: registry, storage library, runtime edges."""

import pytest

from repro.analysis import derive_rwset
from repro.core import (
    ExternalServiceHub,
    FunctionRegistry,
    FunctionSpec,
    LVIServer,
    NearUserRuntime,
    PATH_DIRECT,
    RadicalConfig,
    SnapshotReader,
    SpeculativeEnv,
)
from repro.errors import FunctionNotRegistered, NonDeterminismError
from repro.sim import Metrics, Network, RandomStreams, Region, Simulator, paper_latency_table
from repro.storage import Item, KVStore, NearUserCache
from repro.wasm import VM

# The read key comes from an external service's response, so f^rw cannot
# be derived: the function registers as unanalyzable (§3.3 failure case).
EXTERNAL_KEY_SRC = """
def f(x):
    token = external("tokens", x)
    return db_get("t", f"k:{token}")
"""


class TestFunctionRegistry:
    def test_register_and_get(self):
        reg = FunctionRegistry()
        record = reg.register(FunctionSpec("a.f", "def f(x):\n    return x", 10.0))
        assert reg.get("a.f") is record
        assert "a.f" in reg
        assert len(reg) == 1

    def test_unknown_function_raises(self):
        with pytest.raises(FunctionNotRegistered):
            FunctionRegistry().get("ghost")

    def test_reregistration_replaces(self):
        reg = FunctionRegistry()
        reg.register(FunctionSpec("a.f", "def f(x):\n    return 1", 10.0))
        reg.register(FunctionSpec("a.f", "def f(x):\n    return 2", 20.0))
        assert reg.get("a.f").service_time_ms == 20.0
        assert len(reg) == 1

    def test_nondeterministic_function_rejected_at_registration(self):
        reg = FunctionRegistry()
        with pytest.raises(NonDeterminismError):
            reg.register(FunctionSpec("a.bad", "def f():\n    return now()", 10.0))

    def test_unanalyzable_function_registered_without_frw(self):
        # Compilable but not analyzable: the function registers with
        # analyzable=False and no f^rw.
        reg = FunctionRegistry()
        record = reg.register(FunctionSpec("a.ext", EXTERNAL_KEY_SRC, 10.0))
        assert not record.analyzable
        assert record.frw is None

    def test_ids_sorted(self):
        reg = FunctionRegistry()
        reg.register(FunctionSpec("b.f", "def f():\n    return 1", 1.0))
        reg.register(FunctionSpec("a.f", "def f():\n    return 1", 1.0))
        assert reg.ids() == ["a.f", "b.f"]


class TestSnapshotReader:
    def test_pins_value_and_version_on_first_read(self):
        cache = NearUserCache("jp")
        cache.install("t", "k", Item({"x": 1}, 5))
        snap = SnapshotReader(cache)
        assert snap.read("t", "k") == {"x": 1}
        assert snap.versions[("t", "k")] == 5
        # Cache updated after pinning: the snapshot must not move.
        cache.install("t", "k", Item({"x": 2}, 6))
        assert snap.read("t", "k") == {"x": 1}
        assert snap.version_of("t", "k") == 5

    def test_miss_pins_sentinel(self):
        snap = SnapshotReader(NearUserCache("jp"))
        assert snap.read("t", "nope") is None
        assert snap.version_of("t", "nope") == -1

    def test_absent_marker_reads_none_with_version_zero(self):
        cache = NearUserCache("jp")
        cache.install("t", "ghost", None)
        snap = SnapshotReader(cache)
        assert snap.read("t", "ghost") is None
        assert snap.version_of("t", "ghost") == 0

    def test_reads_return_independent_copies(self):
        # f^rw may retain mutation statements; its mutations must never
        # reach either the cache or the later speculative execution.
        cache = NearUserCache("jp")
        cache.install("t", "k", Item({"items": [1]}, 1))
        snap = SnapshotReader(cache)
        first = snap.read("t", "k")
        first["items"].append(999)
        second = snap.read("t", "k")
        assert second == {"items": [1]}
        assert cache.lookup("t", "k").value == {"items": [1]}


class TestSpeculativeEnv:
    def _env(self, data=None):
        cache = NearUserCache("jp")
        for (t, k), (v, ver) in (data or {}).items():
            cache.install(t, k, Item(v, ver))
        return SpeculativeEnv(SnapshotReader(cache)), cache

    def test_writes_buffered_not_applied(self):
        env, cache = self._env()
        env.db_put("t", "k", {"v": 1})
        assert not cache.contains("t", "k")
        assert env.buffered_writes() == [("t", "k", {"v": 1})]

    def test_read_your_own_write(self):
        env, _ = self._env({("t", "k"): ("old", 1)})
        env.db_put("t", "k", "new")
        assert env.db_get("t", "k") == "new"

    def test_own_write_read_returns_copy(self):
        env, _ = self._env()
        env.db_put("t", "k", {"list": []})
        got = env.db_get("t", "k")
        got["list"].append(1)
        assert env.buffered_writes()[0][2] == {"list": []}

    def test_last_write_wins_in_buffer(self):
        env, _ = self._env()
        env.db_put("t", "k", 1)
        env.db_put("t", "k", 2)
        writes = env.buffered_writes()
        assert writes == [("t", "k", 2)]

    def test_write_order_is_first_write_order(self):
        env, _ = self._env()
        env.db_put("t", "b", 1)
        env.db_put("t", "a", 1)
        env.db_put("t", "b", 2)
        assert [k for (_t, k, _v) in env.buffered_writes()] == ["b", "a"]


class TestRuntimeEdgePaths:
    def _world(self, source, service=20.0, external_hub=None):
        sim = Simulator()
        streams = RandomStreams(4)
        net = Network(sim, paper_latency_table(), streams)
        metrics = Metrics()
        config = RadicalConfig(service_jitter_sigma=0.0)
        registry = FunctionRegistry()
        registry.register(FunctionSpec("t.fn", source, service))
        store = KVStore()
        LVIServer(sim, net, registry, store, config, streams, metrics, external_hub=external_hub)
        cache = NearUserCache(Region.CA)
        runtime = NearUserRuntime(sim, net, Region.CA, cache, registry, config, streams, metrics)
        return sim, runtime, store, metrics

    def test_unanalyzable_function_takes_direct_path(self):
        hub = ExternalServiceHub()
        hub.register("tokens", lambda x: x + 399)
        sim, runtime, store, metrics = self._world(EXTERNAL_KEY_SRC, external_hub=hub)
        store.put("t", "k:399", "found")
        outcome = sim.run_process(runtime.invoke("t.fn", [0]))
        assert outcome.path == PATH_DIRECT
        assert outcome.result == "found"
        assert metrics.counter("path.direct") == 1

    def test_pure_function_speculates_with_empty_sets(self):
        sim, runtime, _store, metrics = self._world("def f(x):\n    busy(2000)\n    return x * 2")
        outcome = sim.run_process(runtime.invoke("t.fn", [21]))
        assert outcome.result == 42
        assert outcome.path == "speculative"
        assert metrics.counter("validation.success") == 1

    def test_frw_runtime_trap_falls_back_to_direct(self):
        # f^rw traps at runtime (indexing a miss): §3.3's failure handling
        # routes the request near storage instead of crashing.
        src = """
def f(uid):
    cfg = db_get("cfg", "routing")
    return db_get("data", f"d:{cfg['shard']}:{uid}")
"""
        sim, runtime, store, metrics = self._world(src)
        # The primary HAS the config (the server-side execution succeeds),
        # but the cold cache returns None for it, so f^rw traps indexing
        # None and the runtime must route the request near storage.
        store.put("cfg", "routing", {"shard": 3})
        store.put("data", "d:3:u", "found")
        outcome = sim.run_process(runtime.invoke("t.fn", ["u"]))
        assert outcome.path == PATH_DIRECT
        assert metrics.counter("frw.runtime_failure") == 1

    def test_execution_ids_unique(self):
        sim, runtime, _store, _metrics = self._world("def f(x):\n    return x")

        def flow():
            a = yield sim.spawn(runtime.invoke("t.fn", [1]))
            b = yield sim.spawn(runtime.invoke("t.fn", [2]))
            return a, b

        a, b = sim.run_process(flow())
        assert a.result == 1 and b.result == 2


class TestNoReplySentinel:
    def test_handler_returning_no_reply_stays_silent(self):
        from repro.sim.network import NO_REPLY

        sim = Simulator()
        net = Network(sim, paper_latency_table(), RandomStreams(0))

        def handler(payload, src):
            if False:
                yield
            return NO_REPLY

        net.serve("mute", Region.VA, handler)
        net.register("client", Region.CA)

        def flow():
            from repro.sim import RpcTimeout

            try:
                yield from net.call("client", "mute", "ping", timeout=300.0)
            except RpcTimeout:
                return "timed-out"

        assert sim.run_process(flow()) == "timed-out"
