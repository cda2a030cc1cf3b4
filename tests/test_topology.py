"""Topology layer: hash placement, the Deployment builder, the one router
on every route, and the guarantee that one shard *is* the seed topology —
virtual-time identical."""

import pytest

from conftest import COUNTER_SRC, assert_warm_snapshot_shared, build_counter_deployment
from repro.apps import social_media_app
from repro.bench import PAPER_JITTER_SIGMA, drive_closed_loop
from repro.core import (
    FunctionRegistry,
    FunctionSpec,
    LVIServer,
    NearUserRuntime,
    RadicalConfig,
    ShardRouter,
)
from repro.obs import TraceCollector
from repro.sim import Metrics, Network, RandomStreams, Region, Simulator, paper_latency_table
from repro.storage import KVStore, NearUserCache
from repro.topology import Deployment, TopologySpec
from repro.workloads import ClosedLoopClient, run_clients

# At two shards the hash places LOW on shard 0 and HIGH on shard 1.
LOW, HIGH = "c:a", "c:y"

#: Placement is part of every artifact's bytes: these keys' shards, at 2, 4
#: and 8 shards, must never move.
GOLDEN_KEYS = (
    ("counters", "c:a"), ("counters", "c:y"), ("counters", "c:x"),
    ("users", "alice"), ("posts", "p:17"), ("timeline", "u:3"),
    ("rooms", "avail:h7:d3"), ("t", ""),
) + tuple(("counters", f"c:{i}") for i in range(8))
GOLDEN_SHARDS = {
    2: (0, 1, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 1),
    4: (2, 1, 2, 2, 1, 0, 2, 2, 2, 1, 0, 0, 2, 3, 0, 3),
    8: (6, 1, 2, 2, 5, 4, 6, 2, 2, 5, 0, 4, 6, 7, 4, 3),
}


def router(nshards):
    return ShardRouter([f"s{i}" for i in range(nshards)])


def two_key_deployment():
    """Two shards, seeded with LOW (shard 0) and HIGH (shard 1)."""
    return Deployment.build(
        TopologySpec(regions=(Region.JP, Region.CA), shards=2, seed=1,
                     persistent_caches=False, raft_prewarm_ms=0.0),
        functions=[FunctionSpec("t.bump", COUNTER_SRC, 20.0)],
        seed_data=lambda store: (
            store.put("counters", LOW, 0),
            store.put("counters", HIGH, 0),
        ),
    )


class TestHashShardMap:
    """The router's placement: SHA-1 of ``table/key`` modulo the shards."""

    @pytest.mark.parametrize("nshards", sorted(GOLDEN_SHARDS))
    def test_placement_is_pinned(self, nshards):
        r = router(nshards)
        assert tuple(r.shard_of(*k) for k in GOLDEN_KEYS) == GOLDEN_SHARDS[nshards]

    def test_deterministic_and_in_range(self):
        m = router(8)
        for i in range(200):
            s = m.shard_of("counters", f"c:{i}")
            assert 0 <= s < 8
            assert s == m.shard_of("counters", f"c:{i}")

    def test_single_shard_maps_everything_to_zero(self):
        m = router(1)
        assert {m.shard_of("t", f"k{i}") for i in range(50)} == {0}

    def test_covers_every_shard(self):
        m = router(4)
        hit = {m.shard_of("counters", f"c:{i}") for i in range(200)}
        assert hit == {0, 1, 2, 3}

    def test_table_is_part_of_the_key(self):
        m = router(16)
        placements = {m.shard_of(t, "k") for t in ("a", "b", "c", "d", "e")}
        assert len(placements) > 1  # same key, different tables, spread out

    def test_split_groups_preserve_order(self):
        # The runtime slices a cross-shard request's keys and writes by
        # owning shard, each slice in the request's own order.
        runtime = build_counter_deployment(shards=2).runtimes[Region.JP]
        keys = [("t", f"k{i}") for i in range(10)]
        groups = runtime._by_shard(keys)
        assert set(groups) == {0, 1}
        assert sorted(k for g in groups.values() for k in g) == sorted(keys)
        for shard, group in groups.items():
            assert group == [k for k in keys if runtime.router.shard_of(*k) == shard]

    def test_rejects_bad_shard_count(self):
        with pytest.raises(ValueError):
            ShardRouter([])


class TestShardRouter:
    def test_endpoint_mapping(self):
        r = ShardRouter(["lvi-server", "lvi-server-1"])
        assert r.nshards == 2
        assert r.endpoint(r.shard_of("counters", LOW)) == "lvi-server"
        assert r.endpoint(r.shard_of("counters", HIGH)) == "lvi-server-1"


class TestTopologySpec:
    def test_rejects_bad_shard_count(self):
        with pytest.raises(ValueError):
            TopologySpec(shards=0).validate()

    def test_replicated_is_single_shard_only(self):
        spec = TopologySpec(shards=2, config=RadicalConfig(replicated=True))
        with pytest.raises(ValueError):
            spec.validate()

    def test_hash_placement_is_used(self):
        dep = build_counter_deployment(shards=2)
        assert dep.shard_of("counters", LOW) == 0
        assert dep.shard_of("counters", HIGH) == 1


class TestOneRouter:
    """Every topology, and a hand-built runtime, sends through one
    :class:`ShardRouter`; a deployment's router is never absent."""

    @staticmethod
    def _consulted(monkeypatch):
        """The routers asked for an endpoint while the test runs."""
        seen = []
        endpoint = ShardRouter.endpoint

        def spying(self, shard):
            seen.append(self)
            return endpoint(self, shard)

        monkeypatch.setattr(ShardRouter, "endpoint", spying)
        return seen

    @pytest.mark.parametrize(
        "shards,detect", [(1, False), (1, True), (2, False)],
        ids=["1-shard", "1-shard-detect", "2-shard"],
    )
    def test_deployment_routes_through_its_router(self, monkeypatch, shards, detect):
        dep = build_counter_deployment(
            shards=shards,
            config=RadicalConfig(service_jitter_sigma=0.0, conflict_detection=detect),
        )
        assert type(dep.router) is ShardRouter
        assert dep.router.nshards == shards
        assert (dep.router.detector is None) is not detect
        assert all(rt.router is dep.router for rt in dep.runtimes.values())
        seen = self._consulted(monkeypatch)
        assert dep.sim.run_process(dep.runtimes[Region.JP].invoke("t.bump", ["x"])).result == 1
        assert seen and all(r is dep.router for r in seen)

    def test_hand_built_runtime_defaults_to_a_one_shard_router(self, monkeypatch):
        sim = Simulator()
        streams = RandomStreams(4)
        net = Network(sim, paper_latency_table(), streams)
        metrics = Metrics()
        config = RadicalConfig(service_jitter_sigma=0.0)
        registry = FunctionRegistry()
        registry.register(FunctionSpec("t.bump", COUNTER_SRC, 20.0))
        LVIServer(sim, net, registry, KVStore(), config, streams, metrics)
        runtime = NearUserRuntime(
            sim, net, Region.CA, NearUserCache(Region.CA), registry, config, streams, metrics
        )
        assert type(runtime.router) is ShardRouter
        assert runtime.router.endpoints == ("lvi-server",)
        assert runtime.router.detector is None
        seen = self._consulted(monkeypatch)
        assert sim.run_process(runtime.invoke("t.bump", ["x"])).result == 1
        assert seen and all(r is runtime.router for r in seen)


class TestDeployment:
    def test_app_and_functions_are_mutually_exclusive(self):
        with pytest.raises(ValueError):
            Deployment.build(
                TopologySpec(), app=social_media_app(), functions=[object()]
            )

    def test_single_shard_shape_matches_seed(self):
        dep = build_counter_deployment()
        assert dep.nshards == 1
        assert dep.server.name == "lvi-server"
        assert dep.store.name == "primary"
        assert dep.router.endpoints == ("lvi-server",)
        assert dep.router.detector is None
        assert set(dep.runtimes) == {Region.JP, Region.CA}
        assert dep.fault_targets() == {"lvi-server": dep.server}

    def test_sharded_shape(self):
        dep = build_counter_deployment(shards=3)
        assert [s.name for s in dep.servers] == [
            "lvi-server", "lvi-server-1", "lvi-server-2"
        ]
        assert [s.shard for s in dep.servers] == [0, 1, 2]
        assert dep.router.endpoints == ("lvi-server", "lvi-server-1", "lvi-server-2")
        # Each server owns a distinct store; every runtime shares the router.
        assert len({id(s.store) for s in dep.servers}) == 3
        for runtime in dep.runtimes.values():
            assert runtime.router is dep.router

    def test_seed_data_lands_on_the_owning_shard(self):
        dep = two_key_deployment()
        for key, shard in ((LOW, 0), (HIGH, 1)):
            assert dep.stores[shard].get_or_none("counters", key) is not None
            assert dep.stores[1 - shard].get_or_none("counters", key) is None
            assert dep.get_or_none("counters", key).value == 0
            assert dep.store_for("counters", key) is dep.stores[shard]

    def test_warm_caches_cover_every_shard(self):
        dep = two_key_deployment()
        for cache in dep.caches.values():
            assert cache.contains("counters", LOW)
            assert cache.contains("counters", HIGH)


class TestWarmEntriesShared:
    def test_plain_deployment(self):
        dep = Deployment.build(TopologySpec(seed=42), app=social_media_app())
        assert_warm_snapshot_shared(dep)

    def test_sharded_deployment(self):
        dep = Deployment.build(TopologySpec(seed=42, shards=2), app=social_media_app())
        assert all(store.size("users") for store in dep.stores)
        assert_warm_snapshot_shared(dep)

    def test_plain_cache_warms_at_time_zero_after_raft_prewarm(self):
        # A plain cache is unbound while warmed, as ``install`` stamped it.
        dep = Deployment.build(
            TopologySpec(seed=1, config=RadicalConfig(replicated=True)),
            app=social_media_app(),
        )
        assert dep.sim.now == 500.0
        for region, cache in dep.caches.items():
            assert cache.warmed_at == 0.0 and cache._entries == {}
            (key, _item), *_rest = cache.entries()
            cache.lookup(*key)
            assert dep.metrics.samples_tagged("cache.hit_age_ms", region=region) == [500.0]


class TestSingleShardIsTheSeed:
    """A 1-shard Deployment must reproduce the pre-topology hand-rolled
    stack *exactly*: same virtual timeline, same spans, same validation
    counts, on the fig4 social workload."""

    REQUESTS = 250
    SEED = 11

    def _hand_rolled(self):
        """The construction the experiment harness used before the
        topology layer existed, inlined verbatim: the reference."""
        app = social_media_app()
        radical = RadicalConfig()
        sim = Simulator()
        sim.obs = trace = TraceCollector(sim)
        streams = RandomStreams(self.SEED)
        net = Network(sim, paper_latency_table(), streams, jitter_sigma=0.02)
        metrics = Metrics()
        registry = FunctionRegistry()
        registry.register_all(app.specs())
        store = KVStore()
        app.seed(store, streams, app.context)
        LVIServer(sim, net, registry, store, radical, streams, metrics)
        clients = []
        for region in Region.NEAR_USER:
            cache = NearUserCache(region, persistent=True)
            for table in store.table_names():
                if table.startswith("_radical"):
                    continue
                for key, item in store.scan(table):
                    cache.install(table, key, item)
            runtime = NearUserRuntime(
                sim, net, region, cache, registry, radical, streams, metrics
            )
            for i in range(2):
                clients.append(
                    ClosedLoopClient(
                        sim=sim, app=app, region=region, invoke=runtime.invoke,
                        metrics=metrics,
                        rng=streams.fork(f"client.{region}.{i}").stream("workload"),
                        requests=self.REQUESTS // len(Region.NEAR_USER) // 2,
                        client_app_rtt_ms=radical.client_app_rtt_ms,
                        history=None,
                    )
                )
        run_clients(sim, clients)
        return sim, metrics, trace

    def test_fig4_social_is_virtual_time_identical(self):
        spec = TopologySpec(
            seed=self.SEED, network_jitter_sigma=PAPER_JITTER_SIGMA, trace=True
        )
        app = social_media_app()
        via_topology = drive_closed_loop(
            Deployment.build(spec, app=app), app, self.REQUESTS, clients_per_region=2
        )
        sim, metrics, trace = self._hand_rolled()

        s_new = via_topology.metrics.summary("e2e")
        s_old = metrics.summary("e2e")
        assert s_new.count == s_old.count
        assert s_new.median == s_old.median
        assert s_new.p99 == s_old.p99
        assert via_topology.sim.now == sim.now
        assert len(via_topology.trace.spans) == len(trace.spans)
        for counter in ("validation.success", "validation.failure",
                        "path.speculative", "path.direct"):
            assert via_topology.metrics.counter(counter) == metrics.counter(counter)
        for region in spec.regions:
            assert (via_topology.metrics.summary(f"e2e.region.{region}").median
                    == metrics.summary(f"e2e.region.{region}").median)
