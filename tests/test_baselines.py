"""Tests for the three comparison deployments."""

import pytest

from repro.baselines import (
    GeoReplicatedApp,
    GeoReplicatedDeployment,
    LocalIdeal,
    LocalIdealDeployment,
    PrimaryBaseline,
    PrimaryDeployment,
    SimpleWorkload,
)
from repro.core import FunctionRegistry, FunctionSpec, RadicalConfig
from repro.faults import FaultPlan
from repro.mesh import MeshSpec
from repro.sim import Network, RandomStreams, Region, Simulator, paper_latency_table
from repro.storage import KVStore, ReplicatedStore
from repro.topology import TopologySpec

SRC = '''
def echo(k):
    item = db_get("data", f"k:{k}")
    busy(10000)
    return item
'''

WRITE_SRC = '''
def set_item(k, v):
    db_put("data", f"k:{k}", v)
    busy(1000)
    return v
'''


@pytest.fixture
def world():
    sim = Simulator()
    streams = RandomStreams(9)
    net = Network(sim, paper_latency_table(), streams)
    registry = FunctionRegistry()
    registry.register(FunctionSpec("echo", SRC, 100.0))
    registry.register(FunctionSpec("set", WRITE_SRC, 20.0))
    return sim, streams, net, registry


class TestPrimaryBaseline:
    def test_far_client_pays_wan_rtt(self, world):
        sim, streams, net, registry = world
        store = KVStore()
        store.put("data", "k:0", "v")
        baseline = PrimaryBaseline(
            sim, net, registry, store, RadicalConfig(service_jitter_sigma=0.0), streams
        )
        net.register("client-jp", Region.JP)
        outcome = sim.run_process(baseline.invoke_from("client-jp", "echo", [0]))
        # rtt(jp,va)=146 + invoke 13 + exec 100.
        assert outcome.result == "v"
        assert 255 <= outcome.latency_ms <= 265

    def test_local_client_is_fast(self, world):
        sim, streams, net, registry = world
        store = KVStore()
        store.put("data", "k:0", "v")
        baseline = PrimaryBaseline(
            sim, net, registry, store, RadicalConfig(service_jitter_sigma=0.0), streams
        )
        outcome = sim.run_process(baseline.invoke_local("echo", [0]))
        # client hop 1 + invoke 13 + exec 100.
        assert 112 <= outcome.latency_ms <= 117

    def test_writes_hit_primary_with_versions(self, world):
        sim, streams, net, registry = world
        store = KVStore()
        baseline = PrimaryBaseline(sim, net, registry, store, RadicalConfig(), streams)
        outcome = sim.run_process(baseline.invoke_local("set", [1, "hello"]))
        assert store.get("data", "k:1").value == "hello"
        assert outcome.write_versions == {("data", "k:1"): 1}


class TestLocalIdeal:
    def test_no_wan_anywhere(self, world):
        sim, streams, _net, registry = world
        store = KVStore()
        store.put("data", "k:0", "v")
        ideal = LocalIdeal(
            sim, Region.JP, registry, RadicalConfig(service_jitter_sigma=0.0),
            streams, store=store,
        )
        outcome = sim.run_process(ideal.invoke("echo", [0]))
        assert outcome.result == "v"
        assert 110 <= outcome.latency_ms <= 116  # invoke + exec only

    def test_regions_diverge(self, world):
        # The red line is *inconsistent*: writes in one region are
        # invisible in another.  (That is why it is only a bound.)
        sim, streams, _net, registry = world
        ideal_a = LocalIdeal(sim, Region.JP, registry, RadicalConfig(), streams)
        ideal_b = LocalIdeal(sim, Region.CA, registry, RadicalConfig(), streams)
        sim.run_process(ideal_a.invoke("set", [0, "from-jp"]))
        outcome = sim.run_process(ideal_b.invoke("echo", [0]))
        assert outcome.result is None  # CA never saw JP's write


class TestGeoReplicated:
    def test_strongly_consistent_but_slow(self, world):
        sim, streams, net, registry = world
        quorum = ReplicatedStore(sim, net, [Region.VA, Region.OH, Region.OR])
        app = GeoReplicatedApp(
            sim, net, Region.JP, quorum, RadicalConfig(service_jitter_sigma=0.0), streams
        )
        outcome = sim.run_process(app.invoke(SimpleWorkload(compute_ms=100.0, reads=1)))
        # compute 100 + invoke 12 + quorum read from JP: way above local.
        assert outcome.latency_ms > 250

    def test_write_then_remote_read_consistent(self, world):
        sim, streams, net, registry = world
        quorum = ReplicatedStore(sim, net, [Region.VA, Region.OH, Region.OR])
        writer = GeoReplicatedApp(sim, net, Region.CA, quorum, RadicalConfig(), streams)
        reader = GeoReplicatedApp(sim, net, Region.DE, quorum, RadicalConfig(), streams)

        def flow():
            yield sim.spawn(writer.invoke(SimpleWorkload(compute_ms=1.0, reads=0, writes=1)))
            outcome = yield sim.spawn(reader.invoke(SimpleWorkload(compute_ms=1.0, reads=1)))
            return outcome.result

        assert sim.run_process(flow()) == {"from": Region.CA}


class TestEndpointNamesAreNotProcessGlobal:
    """An endpoint name is a function of its own Network, never of how
    many baselines this process built before."""

    def _fresh_baseline(self):
        sim = Simulator()
        net = Network(sim, paper_latency_table(), RandomStreams(9))
        return net, PrimaryBaseline(sim, net, FunctionRegistry(), KVStore())

    def test_two_fresh_networks_name_the_baseline_alike(self):
        _net_a, first = self._fresh_baseline()
        _net_b, second = self._fresh_baseline()
        assert first.name == second.name == "baseline-app-0"

    def test_two_baselines_on_one_network_stay_distinct(self):
        net, first = self._fresh_baseline()
        second = PrimaryBaseline(first.sim, net, FunctionRegistry(), KVStore())
        assert first.name != second.name
        assert net.endpoint(first.name) is not net.endpoint(second.name)

    def test_geo_replicated_app_names(self):
        def names():
            sim = Simulator()
            net = Network(sim, paper_latency_table(), RandomStreams(9))
            quorum = ReplicatedStore(sim, net, [Region.VA, Region.OH, Region.OR])
            return [GeoReplicatedApp(sim, net, Region.CA, quorum).client.name for _ in range(2)]

        assert names() == names() == ["geo-app-ca-0", "geo-app-ca-1"]


class TestBuildersTakeTheSpec:
    """Each baseline is built from the TopologySpec Radical is built from,
    and refuses — never ignores — a field only Radical can honour."""

    BUILDERS = [PrimaryDeployment.build, LocalIdealDeployment.build, GeoReplicatedDeployment.build]
    RADICAL_ONLY = {
        "shards": 2,
        "mesh": MeshSpec(),
        "fault_plan": FaultPlan("empty", ()),
        "trace": True,
        "pop_regions": Region.NEAR_USER,
        "assignment": "nearest-rtt",
    }

    @pytest.mark.parametrize("build", BUILDERS, ids=lambda b: b.__self__.__name__)
    @pytest.mark.parametrize("field", sorted(RADICAL_ONLY))
    def test_radical_only_field_is_rejected(self, build, field):
        spec = TopologySpec(**{field: self.RADICAL_ONLY[field]})
        with pytest.raises(ValueError, match=field):
            build(spec)

    def test_primary_sits_in_the_specs_primary_region(self):
        system = PrimaryDeployment.build(
            TopologySpec(
                primary_region=Region.JP, config=RadicalConfig(service_jitter_sigma=0.0)
            ),
            functions=[FunctionSpec("echo", SRC, 100.0)],
            seed_data=lambda store: store.put("data", "k:0", "v"),
        )
        assert system.baseline.region == Region.JP
        near, _ = system.client(Region.JP)
        far, _ = system.client(Region.VA)
        near_ms = system.sim.run_process(near("echo", [0])).latency_ms
        far_ms = system.sim.run_process(far("echo", [0])).latency_ms
        # rtt(va,jp)=146 against the 1 ms co-located client hop.
        assert 140 <= far_ms - near_ms <= 150

    def test_local_ideal_seeds_one_store_per_region(self):
        system = LocalIdealDeployment.build(
            TopologySpec(regions=(Region.CA, Region.DE), record_history=True),
            functions=[FunctionSpec("set", WRITE_SRC, 20.0)],
        )
        invoke, client_rtt_ms = system.client(Region.CA)
        system.sim.run_process(invoke("set", [1, "ca"]))
        assert client_rtt_ms == system.spec.config.client_app_rtt_ms
        assert system.locals[Region.CA].store.get("data", "k:1").value == "ca"
        assert system.locals[Region.DE].store.get_or_none("data", "k:1") is None
        assert system.history is not None
