"""Span accounting under network failure injection (satellite of the
tracing spine): every ``net.hop`` span must be closed exactly once —
delivered or dropped — under drop probability, duplication, partitions,
and crashed endpoints.  An orphan span means a code path lost track of a
message copy."""

from repro.obs import TraceCollector, orphan_spans
from repro.sim import (
    Network,
    RandomStreams,
    Region,
    RpcTimeout,
    Simulator,
    paper_latency_table,
)


def build():
    sim = Simulator()
    sim.obs = TraceCollector(sim)
    net = Network(sim, paper_latency_table(), RandomStreams(7))
    return sim, net


def _call_catching(net, payload, timeout):
    """A client process that absorbs the expected RPC timeout (an
    unobserved process exception would crash the simulation loop)."""
    try:
        response = yield from net.call("client", "server", payload, timeout=timeout)
        return response
    except RpcTimeout:
        return "timeout"


def hop_spans(obs):
    return [s for s in obs.spans if s.name == "net.hop"]


def by_status(spans):
    out = {}
    for s in spans:
        out[s.attrs.get("status")] = out.get(s.attrs.get("status"), 0) + 1
    return out


def assert_balanced_hops(sim, net):
    """The invariant all tests share: no orphans, and exactly one hop span
    per physical message copy (sends + replies + injected duplicates)."""
    assert orphan_spans(sim.obs.spans) == []
    hops = hop_spans(sim.obs)
    duplicates = sum(1 for s in hops if s.attrs.get("duplicate"))
    assert len(hops) == net.messages_sent + duplicates
    statuses = by_status(hops)
    assert statuses.get("dropped", 0) + statuses.get("delivered", 0) == len(hops)
    return statuses


class TestDrops:
    def test_total_loss_closes_every_span_as_dropped(self):
        sim, net = build()
        net.register("a", Region.CA)
        net.register("b", Region.VA)
        net.set_drop_probability(Region.CA, Region.VA, 1.0)
        for _ in range(20):
            net.send("a", "b", "ping")
        sim.run()
        statuses = assert_balanced_hops(sim, net)
        assert statuses == {"dropped": 20}

    def test_partial_loss_partitions_spans_between_statuses(self):
        sim, net = build()
        net.register("a", Region.CA)
        net.register("b", Region.VA)
        net.set_drop_probability(Region.CA, Region.VA, 0.5)
        for _ in range(60):
            net.send("a", "b", "ping")
        sim.run()
        statuses = assert_balanced_hops(sim, net)
        assert statuses.get("dropped", 0) > 0
        assert statuses.get("delivered", 0) > 0
        assert net.messages_dropped == statuses["dropped"]

    def test_send_to_unregistered_endpoint_is_dropped(self):
        sim, net = build()
        net.register("a", Region.CA)
        net.send("a", "ghost", "ping")
        sim.run()
        assert assert_balanced_hops(sim, net) == {"dropped": 1}

    def test_endpoint_crash_mid_flight_drops_at_delivery(self):
        sim, net = build()
        net.register("a", Region.CA)
        net.register("b", Region.VA)
        net.send("a", "b", "ping")
        net.unregister("b")  # crashes while the message is on the wire
        sim.run()
        assert assert_balanced_hops(sim, net) == {"dropped": 1}


class TestDuplicates:
    def test_duplicate_copies_get_their_own_spans(self):
        sim, net = build()
        net.register("a", Region.CA)
        seen = []
        net.register_handler("b", Region.VA, lambda payload, src: seen.append(payload))
        net.set_duplicate_probability(Region.CA, Region.VA, 1.0)
        for i in range(10):
            net.send("a", "b", i)
        sim.run()
        assert len(seen) == 20  # every message delivered twice
        statuses = assert_balanced_hops(sim, net)
        assert statuses == {"delivered": 20}
        dups = [s for s in hop_spans(sim.obs) if s.attrs.get("duplicate")]
        assert len(dups) == 10

    def test_duplicate_copy_to_crashed_endpoint_still_closes(self):
        sim, net = build()
        net.register("a", Region.CA)
        net.register("b", Region.VA)
        net.set_duplicate_probability(Region.CA, Region.VA, 1.0)
        net.send("a", "b", "ping")

        # Crash the destination between the two deliveries (the duplicate
        # trails the original by 0.1 ms).
        one_way = paper_latency_table().one_way(Region.CA, Region.VA)
        sim.schedule(one_way + 0.05, net.unregister, "b")
        sim.run()
        statuses = assert_balanced_hops(sim, net)
        assert statuses == {"delivered": 1, "dropped": 1}


class TestPartitions:
    def test_partition_drops_and_heal_restores(self):
        sim, net = build()
        net.register("a", Region.CA)
        net.register("b", Region.VA)
        net.partition(Region.CA, Region.VA)
        net.send("a", "b", "lost")
        sim.run()
        net.heal(Region.CA, Region.VA)
        net.send("a", "b", "found")
        sim.run()
        statuses = assert_balanced_hops(sim, net)
        assert statuses == {"dropped": 1, "delivered": 1}

    def test_rpc_through_partition_times_out_with_closed_spans(self):
        sim, net = build()

        def echo(payload, src):
            return payload
            yield  # pragma: no cover - makes this a generator handler

        net.register("client", Region.CA)
        net.serve("server", Region.VA, echo)
        net.partition(Region.CA, Region.VA)

        assert sim.run_process(_call_catching(net, "hello", 500.0)) == "timeout"
        sim.run()
        assert orphan_spans(sim.obs.spans) == []
        rpcs = [s for s in sim.obs.spans if s.name == "rpc"]
        assert len(rpcs) == 1
        assert rpcs[0].attrs["status"] == "timeout"
        assert by_status(hop_spans(sim.obs)) == {"dropped": 1}

    def test_rpc_after_heal_succeeds_and_balances(self):
        sim, net = build()

        def echo(payload, src):
            return payload
            yield  # pragma: no cover

        net.register("client", Region.CA)
        net.serve("server", Region.VA, echo)
        net.partition(Region.CA, Region.VA)
        assert sim.run_process(_call_catching(net, "one", 500.0)) == "timeout"
        net.heal(Region.CA, Region.VA)
        assert sim.run_process(_call_catching(net, "two", 5000.0)) == "two"
        sim.run()
        statuses = assert_balanced_hops(sim, net)
        # One dropped request during the partition; the healed exchange
        # delivers a request and a reply.
        assert statuses == {"dropped": 1, "delivered": 2}
        rpcs = [s for s in sim.obs.spans if s.name == "rpc"]
        assert [s.attrs["status"] for s in rpcs] == ["timeout", "ok"]

    def test_reply_lost_to_partition_closes_reply_span(self):
        sim, net = build()

        def echo(payload, src):
            return payload
            yield  # pragma: no cover

        net.register("client", Region.CA)
        net.serve("server", Region.VA, echo)
        # Only the return direction is partitioned: the request lands, the
        # reply is eaten.
        net.partition(Region.VA, Region.CA, bidirectional=False)
        assert sim.run_process(_call_catching(net, "hello", 2000.0)) == "timeout"
        sim.run()
        statuses = assert_balanced_hops(sim, net)
        assert statuses == {"delivered": 1, "dropped": 1}
        reply_spans = [s for s in hop_spans(sim.obs) if s.attrs.get("reply")]
        assert len(reply_spans) == 1
        assert reply_spans[0].attrs["status"] == "dropped"


class TestRelayedCopies:
    """A relayed copy is one ``net.hop`` span per leg, like any other
    physical message: also when it is lost before its first leg."""

    @staticmethod
    def _jp_client():
        sim, net = build()

        def echo(payload, src):
            return payload
            yield  # pragma: no cover

        net.register("client", Region.JP)
        net.serve("server", Region.VA, echo)
        return sim, net

    def test_a_copy_eaten_before_its_first_leg_gets_a_span(self):
        sim, net = self._jp_client()
        net.add_drop_filter(lambda src, dst, payload: payload == "eaten")
        call = net.rpc("client", "server", "eaten")
        call.relay, call.hedged = Region.CA, True

        def attempt():
            try:
                return (yield from call.attempt(500.0))
            except RpcTimeout:
                return "timeout"

        assert sim.run_process(attempt()) == "timeout"
        sim.run()
        assert net.messages_sent == 2  # the direct copy and the relayed one
        assert len(hop_spans(sim.obs)) == 2
        assert assert_balanced_hops(sim, net) == {"dropped": 2}

    def test_a_relayed_round_trip_is_four_hops(self):
        sim, net = self._jp_client()
        net.partition(Region.JP, Region.VA)
        call = net.rpc("client", "server", "hello")
        call.relay, call.hedged = Region.CA, True
        assert sim.run_process(call.attempt(1_000.0)) == "hello"
        sim.run()
        assert assert_balanced_hops(sim, net) == {"dropped": 1, "delivered": 4}
        legs = [
            (s.attrs["src_region"], s.attrs["dst_region"], bool(s.attrs.get("reply")))
            for s in hop_spans(sim.obs) if s.attrs["status"] == "delivered"
        ]
        assert legs == [
            (Region.JP, Region.CA, False), (Region.CA, Region.VA, False),
            (Region.VA, Region.CA, True), (Region.CA, Region.JP, True),
        ]


class TestProtocolUnderFaults:
    """End-to-end: the LVI protocol keeps its span accounting balanced
    when the WAN misbehaves (requests retried after timeouts, duplicated
    followups, healed partitions)."""

    def test_radical_run_with_followup_duplication_balances(self):
        from repro.bench.experiments import MAIN_APP_BUILDERS
        from repro.core import FunctionRegistry, LVIServer, NearUserRuntime, RadicalConfig
        from repro.obs import all_breakdowns, assert_balanced
        from repro.sim import Metrics
        from repro.storage import KVStore, NearUserCache
        from repro.workloads import ClosedLoopClient, run_clients

        # Duplicate a fraction of CA->VA messages (LVI requests and
        # followups): the protocol must dedup, and every extra wire copy
        # still gets exactly one closed span.
        app = MAIN_APP_BUILDERS["social"]()
        sim, net = build()
        streams = RandomStreams(5)
        metrics = Metrics()
        registry = FunctionRegistry()
        registry.register_all(app.specs())
        store = KVStore()
        app.seed(store, streams, app.context)
        LVIServer(sim, net, registry, store, RadicalConfig(), streams, metrics)
        cache = NearUserCache(Region.CA, persistent=True)
        for table in store.table_names():
            if not table.startswith("_radical"):
                for key, item in store.scan(table):
                    cache.install(table, key, item)
        runtime = NearUserRuntime(sim, net, Region.CA, cache, registry,
                                  RadicalConfig(), streams, metrics)
        net.set_duplicate_probability(Region.CA, Region.VA, 0.3)
        client = ClosedLoopClient(
            sim=sim, app=app, region=Region.CA, invoke=runtime.invoke,
            metrics=metrics, rng=streams.fork("client").stream("workload"),
            requests=40,
        )
        run_clients(sim, [client])
        statuses = assert_balanced_hops(sim, net)
        assert statuses.get("delivered", 0) > 0
        breakdowns = all_breakdowns(sim.obs.spans)
        assert len(breakdowns) == 40
        assert_balanced(breakdowns)
