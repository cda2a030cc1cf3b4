"""Protocol conformance: the wire carries exactly Figure 3's messages.

Uses the network tracer to record every message of single requests and
asserts the LVI protocol's sequences — including that exactly ONE request
sits on the client's critical path, the property the whole paper is about.
"""

import pytest

from repro.core import (
    DirectExecRequest,
    ExternalServiceHub,
    FunctionRegistry,
    FunctionSpec,
    LVIRequest,
    LVIResponse,
    LVIServer,
    NearUserRuntime,
    RadicalConfig,
    WriteFollowup,
)
from repro.sim import Metrics, Network, RandomStreams, Region, Simulator, paper_latency_table
from repro.storage import KVStore, NearUserCache

READ_SRC = '''
def read(k):
    busy(5000)
    return db_get("items", f"i:{k}")
'''

# The read key comes from an external service's response: unanalyzable.
EXTERNAL_KEY_SRC = '''
def read(k):
    token = external("tokens", k)
    return db_get("items", f"i:{token}")
'''

WRITE_SRC = '''
def write(k, v):
    busy(2000)
    old = db_get("items", f"i:{k}")
    db_put("items", f"i:{k}", v)
    return old
'''


@pytest.fixture
def world():
    sim = Simulator()
    streams = RandomStreams(8)
    net = Network(sim, paper_latency_table(), streams)
    metrics = Metrics()
    config = RadicalConfig(service_jitter_sigma=0.0)
    registry = FunctionRegistry()
    registry.register(FunctionSpec("t.read", READ_SRC, 50.0))
    registry.register(FunctionSpec("t.write", WRITE_SRC, 50.0))
    store = KVStore()
    store.put("items", "i:a", "v0")
    server = LVIServer(sim, net, registry, store, config, streams, metrics)
    cache = NearUserCache(Region.DE)
    cache.install("items", "i:a", store.get("items", "i:a"))
    runtime = NearUserRuntime(sim, net, Region.DE, cache, registry, config, streams, metrics)
    trace = []
    net.tracer = lambda t, src, dst, payload: trace.append((src, dst, payload))
    return sim, runtime, trace


def message_types(trace):
    return [type(p).__name__ for (_s, _d, p) in trace]


class TestWireSequences:
    def test_read_only_success_is_one_round_trip(self, world):
        sim, runtime, trace = world
        sim.run_process(runtime.invoke("t.read", ["a"]))
        sim.run()
        # Exactly: LVIRequest out, LVIResponse back.  Nothing else.
        assert message_types(trace) == ["LVIRequest", "LVIResponse"]
        request = trace[0][2]
        assert request.read_keys == (("items", "i:a"),)
        assert request.write_keys == ()
        assert trace[1][2].ok

    def test_write_success_adds_only_offpath_followup(self, world):
        sim, runtime, trace = world
        outcome = sim.run_process(runtime.invoke("t.write", ["a", "v1"]))
        response_count_at_client_reply = sum(
            1 for (_s, _d, p) in trace if isinstance(p, (LVIRequest, LVIResponse))
        )
        sim.run()
        # On the critical path: one request, one response.
        assert response_count_at_client_reply == 2
        # After the client already responded: the followup and its ack.
        kinds = message_types(trace)
        assert kinds[:2] == ["LVIRequest", "LVIResponse"]
        assert "WriteFollowup" in kinds
        followup = next(p for (_s, _d, p) in trace if isinstance(p, WriteFollowup))
        assert followup.writes == (("items", "i:a", "v1"),)
        assert outcome.path == "speculative"

    def test_lvi_request_carries_cached_versions(self, world):
        sim, runtime, trace = world
        sim.run_process(runtime.invoke("t.read", ["a"]))
        request = trace[0][2]
        assert request.versions == {("items", "i:a"): 1}

    def test_miss_sends_minus_one_version(self, world):
        sim, runtime, trace = world
        sim.run_process(runtime.invoke("t.read", ["ghost"]))
        request = trace[0][2]
        assert request.versions == {("items", "i:ghost"): -1}
        response = trace[1][2]
        assert not response.ok
        assert (("items", "i:ghost")) in response.fresh

    def test_backup_response_carries_repairs(self, world):
        from repro.storage import Item

        sim, runtime, trace = world
        # Bump the primary via a write, then force this region's cache
        # back to the outdated version: the next read must fail validation
        # and the failure response must carry the authoritative repair.
        sim.run_process(runtime.invoke("t.write", ["a", "v1"]))
        sim.run()
        trace.clear()
        runtime.cache.install("items", "i:a", Item("v0", 1))
        sim.run_process(runtime.invoke("t.read", ["a"]))
        response = next(p for (_s, _d, p) in trace if isinstance(p, LVIResponse))
        assert not response.ok
        assert response.result == "v1"
        assert response.fresh[("items", "i:a")].version == 2

    def test_direct_exec_for_unanalyzable(self):
        sim = Simulator()
        streams = RandomStreams(8)
        net = Network(sim, paper_latency_table(), streams)
        registry = FunctionRegistry()
        registry.register(FunctionSpec("t.big", EXTERNAL_KEY_SRC, 50.0))
        store = KVStore()
        store.put("items", "i:a", "v0")
        config = RadicalConfig(service_jitter_sigma=0.0)
        hub = ExternalServiceHub()
        hub.register("tokens", lambda k: k)
        LVIServer(sim, net, registry, store, config, streams, external_hub=hub)
        runtime = NearUserRuntime(
            sim, net, Region.DE, NearUserCache(Region.DE), registry, config, streams
        )
        trace = []
        net.tracer = lambda t, src, dst, payload: trace.append((src, dst, payload))
        sim.run_process(runtime.invoke("t.big", ["a"]))
        kinds = [type(p).__name__ for (_s, _d, p) in trace]
        assert kinds[0] == "DirectExecRequest"
        assert "LVIRequest" not in kinds

    def test_single_coordination_message_before_response(self, world):
        # The paper's core claim, checked on the wire: between invocation
        # and the client response, the runtime sends exactly ONE message
        # to the near-storage location.
        sim, runtime, trace = world
        proc = sim.spawn(runtime.invoke("t.write", ["a", "v1"]))
        sim.run(until_event=proc.done_event)
        outbound = [
            (s, d, p) for (s, d, p) in trace if d == "lvi-server"
        ]
        assert len(outbound) == 1
        assert isinstance(outbound[0][2], LVIRequest)
        sim.run()
