"""Topology layer: shard maps, the Deployment builder, and the guarantee
that one shard *is* the seed topology — virtual-time identical."""

import pytest

from conftest import build_counter_deployment
from repro.apps import social_media_app
from repro.bench import PAPER_JITTER_SIGMA, drive_closed_loop
from repro.core import FunctionRegistry, LVIServer, NearUserRuntime, RadicalConfig
from repro.obs import TraceCollector
from repro.sim import Metrics, Network, RandomStreams, Region, Simulator, paper_latency_table
from repro.storage import KVStore, NearUserCache
from repro.topology import (
    Deployment,
    HashShardMap,
    RangeShardMap,
    ShardRouter,
    TopologySpec,
)
from repro.workloads import ClosedLoopClient, run_clients


class TestHashShardMap:
    def test_deterministic_and_in_range(self):
        m = HashShardMap(8)
        for i in range(200):
            s = m.shard_of("counters", f"c:{i}")
            assert 0 <= s < 8
            assert s == m.shard_of("counters", f"c:{i}")

    def test_single_shard_maps_everything_to_zero(self):
        m = HashShardMap(1)
        assert {m.shard_of("t", f"k{i}") for i in range(50)} == {0}

    def test_covers_every_shard(self):
        m = HashShardMap(4)
        hit = {m.shard_of("counters", f"c:{i}") for i in range(200)}
        assert hit == {0, 1, 2, 3}

    def test_table_is_part_of_the_key(self):
        m = HashShardMap(16)
        placements = {m.shard_of(t, "k") for t in ("a", "b", "c", "d", "e")}
        assert len(placements) > 1  # same key, different tables, spread out

    def test_split_groups_preserve_order(self):
        m = HashShardMap(2)
        keys = [("t", f"k{i}") for i in range(10)]
        groups = m.split(keys)
        assert sorted(k for g in groups.values() for k in g) == sorted(keys)
        for shard, group in groups.items():
            assert group == [k for k in keys if m.shard_of(*k) == shard]

    def test_rejects_bad_shard_count(self):
        with pytest.raises(ValueError):
            HashShardMap(0)


class TestRangeShardMap:
    def test_boundary_placement(self):
        m = RangeShardMap([("counters", "c:m")])
        assert m.nshards == 2
        assert m.shard_of("counters", "c:a") == 0
        assert m.shard_of("counters", "c:m") == 1  # boundary goes right
        assert m.shard_of("counters", "c:z") == 1
        assert m.shard_of("a", "anything") == 0
        assert m.shard_of("z", "anything") == 1

    def test_multiple_boundaries(self):
        m = RangeShardMap([("t", "h"), ("t", "p")])
        assert m.nshards == 3
        assert [m.shard_of("t", k) for k in ("a", "h", "o", "p", "z")] == [0, 1, 1, 2, 2]

    def test_rejects_unsorted_or_duplicate_boundaries(self):
        with pytest.raises(ValueError):
            RangeShardMap([("t", "p"), ("t", "h")])
        with pytest.raises(ValueError):
            RangeShardMap([("t", "h"), ("t", "h")])


class TestShardRouter:
    def test_endpoint_mapping(self):
        r = ShardRouter(RangeShardMap([("t", "m")]), ["lvi-server", "lvi-server-1"])
        assert r.nshards == 2
        assert r.endpoint(r.shard_of("t", "a")) == "lvi-server"
        assert r.endpoint(r.shard_of("t", "z")) == "lvi-server-1"

    def test_rejects_endpoint_count_mismatch(self):
        with pytest.raises(ValueError):
            ShardRouter(HashShardMap(2), ["only-one"])


class TestTopologySpec:
    def test_rejects_bad_shard_count(self):
        with pytest.raises(ValueError):
            TopologySpec(shards=0).validate()

    def test_replicated_is_single_shard_only(self):
        spec = TopologySpec(shards=2, config=RadicalConfig(replicated=True))
        with pytest.raises(ValueError):
            spec.validate()

    def test_shard_map_must_match_shard_count(self):
        spec = TopologySpec(shards=3, shard_map=HashShardMap(2))
        with pytest.raises(ValueError):
            spec.validate()

    def test_explicit_shard_map_is_used(self):
        dep = build_counter_deployment(
            shards=2, shard_map=RangeShardMap([("counters", "c:m")])
        )
        assert dep.shard_of("counters", "c:a") == 0
        assert dep.shard_of("counters", "c:z") == 1


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
        assert dep.router is None
        assert set(dep.runtimes) == {Region.JP, Region.CA}
        assert dep.fault_targets() == {"lvi-server": dep.server}

    def test_sharded_shape(self):
        dep = build_counter_deployment(shards=3)
        assert [s.name for s in dep.servers] == [
            "lvi-server", "lvi-server-1", "lvi-server-2"
        ]
        assert [s.shard for s in dep.servers] == [0, 1, 2]
        assert dep.router is not None
        assert dep.router.endpoints == ("lvi-server", "lvi-server-1", "lvi-server-2")
        # Each server owns a distinct store; every runtime shares the router.
        assert len({id(s.store) for s in dep.servers}) == 3
        for runtime in dep.runtimes.values():
            assert runtime.router is dep.router

    def test_seed_data_lands_on_the_owning_shard(self):
        dep = build_counter_deployment(
            shards=2, shard_map=RangeShardMap([("counters", "c:m")])
        )
        # conftest seeds c:x, which sorts above c:m -> shard 1.
        assert dep.stores[1].get_or_none("counters", "c:x") is not None
        assert dep.stores[0].get_or_none("counters", "c:x") is None
        assert dep.get_or_none("counters", "c:x").value == 0
        assert dep.store_for("counters", "c:x") is dep.stores[1]

    def test_warm_caches_cover_every_shard(self):
        dep = build_counter_deployment(
            shards=2, shard_map=RangeShardMap([("counters", "c:m")])
        )
        for cache in dep.caches.values():
            assert cache.contains("counters", "c:x")


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
