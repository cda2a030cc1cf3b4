"""Unit tests for the network model: latency table, delivery, RPC, faults."""

import pytest

from repro.sim import (
    Network,
    PAPER_RTT_TO_PRIMARY,
    RandomStreams,
    Region,
    RpcCall,
    RpcTimeout,
    Simulator,
    paper_latency_table,
)


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def net(sim):
    return Network(sim, paper_latency_table(), RandomStreams(7))


class TestLatencyTable:
    def test_paper_table2_values(self):
        table = paper_latency_table()
        for region, rtt in PAPER_RTT_TO_PRIMARY.items():
            assert table.rtt(region, Region.VA) == rtt

    def test_symmetric(self):
        table = paper_latency_table()
        assert table.rtt(Region.CA, Region.JP) == table.rtt(Region.JP, Region.CA)

    def test_intra_region_rtt(self):
        table = paper_latency_table()
        assert table.rtt(Region.DE, Region.DE) == 7.0

    def test_one_way_is_half_rtt(self):
        table = paper_latency_table()
        assert table.one_way(Region.JP, Region.VA) == 73.0

    def test_unknown_pair_raises(self):
        table = paper_latency_table()
        with pytest.raises(KeyError):
            table.rtt("mars", Region.VA)

    def test_covers_all_regions(self):
        table = paper_latency_table()
        for a in Region.ALL:
            for b in Region.ALL:
                assert table.rtt(a, b) > 0


class TestDelivery:
    def test_message_arrives_after_one_way_delay(self, sim, net):
        net.register("a", Region.CA)
        ep_b = net.register("b", Region.VA)

        def receiver():
            msg = yield ep_b.recv()
            return msg, sim.now

        proc = sim.spawn(receiver())
        net.send("a", "b", "hello")
        sim.run()
        assert proc.result == ("hello", 37.0)  # 74/2

    def test_in_order_delivery_same_link(self, sim, net):
        net.register("a", Region.CA)
        ep_b = net.register("b", Region.VA)
        out = []

        def receiver():
            for _ in range(3):
                out.append((yield ep_b.recv()))

        sim.spawn(receiver())
        for i in range(3):
            net.send("a", "b", i)
        sim.run()
        assert out == [0, 1, 2]

    def test_handler_endpoint_invoked(self, sim, net):
        seen = []
        net.register("a", Region.VA)
        net.register_handler("h", Region.VA, lambda payload, src: seen.append((payload, src)))
        net.send("a", "h", "ping")
        sim.run()
        assert seen == [("ping", "a")]

    def test_send_to_unregistered_endpoint_dropped(self, sim, net):
        net.register("a", Region.VA)
        assert net.send("a", "ghost", "x") is None
        assert net.messages_dropped == 1

    def test_unregister_drops_in_flight(self, sim, net):
        net.register("a", Region.CA)
        ep = net.register("b", Region.VA)
        net.send("a", "b", "x")
        net.unregister("b")
        sim.run()
        assert len(ep.inbox) == 0
        assert net.messages_dropped == 1

    def test_duplicate_registration_rejected(self, net):
        net.register("a", Region.VA)
        with pytest.raises(ValueError):
            net.register("a", Region.CA)

    def test_jitter_perturbs_delay(self, sim):
        net = Network(sim, paper_latency_table(), RandomStreams(7), jitter_sigma=0.2)
        net.register("a", Region.CA)
        ep = net.register("b", Region.VA)
        times = []

        def receiver():
            for _ in range(5):
                yield ep.recv()
                times.append(sim.now)

        sim.spawn(receiver())
        for _ in range(5):
            net.send("a", "b", "x")
        sim.run()
        gaps = [times[i] - (0 if i == 0 else times[i - 1]) for i in range(len(times))]
        assert len(set(gaps)) > 1  # jitter produced distinct delays


class TestRpc:
    def _serve_echo(self, sim, net, delay=1.0):
        def handler(payload, src):
            yield sim.timeout(delay)
            return ("echo", payload)

        net.serve("server", Region.VA, handler)

    def test_rpc_round_trip_latency(self, sim, net):
        self._serve_echo(sim, net, delay=1.0)
        net.register("client", Region.JP)

        def client():
            resp = yield from net.call("client", "server", "hi")
            return resp, sim.now

        resp, now = sim.run_process(client())
        assert resp == ("echo", "hi")
        assert now == 147.0  # 73 out + 1 service + 73 back

    def test_rpc_intra_region(self, sim, net):
        self._serve_echo(sim, net, delay=0.0)
        net.register("client", Region.VA)

        def client():
            yield from net.call("client", "server", "x")
            return sim.now

        assert sim.run_process(client()) == 7.0

    def test_rpc_server_exception_propagates(self, sim, net):
        def handler(payload, src):
            yield sim.timeout(1.0)
            raise ValueError("server-side")

        net.serve("server", Region.VA, handler)
        net.register("client", Region.CA)

        def client():
            try:
                yield from net.call("client", "server", "x")
            except ValueError as exc:
                return str(exc)

        assert sim.run_process(client()) == "server-side"

    def test_rpc_timeout_when_partitioned(self, sim, net):
        self._serve_echo(sim, net)
        net.register("client", Region.CA)
        net.partition(Region.CA, Region.VA)

        def client():
            try:
                yield from net.call("client", "server", "x", timeout=500.0)
            except RpcTimeout:
                return sim.now

        assert sim.run_process(client()) == 500.0

    def test_rpc_succeeds_after_heal(self, sim, net):
        self._serve_echo(sim, net)
        net.register("client", Region.CA)
        net.partition(Region.CA, Region.VA)
        net.heal(Region.CA, Region.VA)

        def client():
            resp = yield from net.call("client", "server", "x", timeout=500.0)
            return resp

        assert sim.run_process(client()) == ("echo", "x")

    def test_concurrent_rpcs_overlap(self, sim, net):
        self._serve_echo(sim, net, delay=10.0)
        net.register("c1", Region.CA)
        net.register("c2", Region.CA)

        def client(name):
            yield from net.call(name, "server", name)
            return sim.now

        p1 = sim.spawn(client("c1"))
        p2 = sim.spawn(client("c2"))
        sim.run()
        # Both finish at 37+10+37: the server handles them concurrently.
        assert p1.result == p2.result == 84.0


class TestFaultInjection:
    def test_drop_probability_one_loses_everything(self, sim, net):
        net.register("a", Region.CA)
        ep = net.register("b", Region.VA)
        net.set_drop_probability(Region.CA, Region.VA, 1.0)
        for _ in range(10):
            net.send("a", "b", "x")
        sim.run()
        assert net.messages_dropped == 10
        assert len(ep.inbox) == 0

    def test_drop_probability_validation(self, net):
        with pytest.raises(ValueError):
            net.set_drop_probability(Region.CA, Region.VA, 1.5)

    def test_partition_is_directional_when_requested(self, sim, net):
        net.register("a", Region.CA)
        net.register("b", Region.VA)
        epa = net.endpoint("a")
        epb = net.endpoint("b")
        net.partition(Region.CA, Region.VA, bidirectional=False)
        net.send("a", "b", "lost")
        net.send("b", "a", "arrives")
        sim.run()
        assert len(epb.inbox) == 0
        assert len(epa.inbox) == 1

    def test_duplication_delivers_twice(self, sim, net):
        net.register("a", Region.CA)
        ep = net.register("b", Region.VA)
        net.set_duplicate_probability(Region.CA, Region.VA, 1.0)
        net.send("a", "b", "x")
        sim.run()
        assert len(ep.inbox) == 2

    def test_extra_delay_slows_link(self, sim, net):
        net.register("a", Region.CA)
        ep = net.register("b", Region.VA)
        net.set_extra_delay(Region.CA, Region.VA, 100.0)

        def receiver():
            yield ep.recv()
            return sim.now

        proc = sim.spawn(receiver())
        net.send("a", "b", "x")
        sim.run()
        assert proc.result == 137.0


class TestOnlyDirectCopiesDuplicate:
    """Every link duplicates every message it can: a direct ``send`` (an
    RPC request's direct copy included) and a held ``send_at`` copy land
    twice; a reply and each leg of a relayed copy land once."""

    @pytest.fixture
    def dup_net(self, sim, net, monkeypatch):
        for a in Region.NEAR_USER:
            for b in Region.NEAR_USER:
                net.set_duplicate_probability(a, b, 1.0)
        answers = []
        answer = RpcCall._answer

        def counted(call, value, failed, via=None):
            answers.append(via)
            answer(call, value, failed, via)

        monkeypatch.setattr(RpcCall, "_answer", counted)
        handled = []

        def handler(payload, src):
            handled.append(payload)
            return payload
            yield  # pragma: no cover - makes this a generator handler

        net.serve("server", Region.VA, handler)
        net.register("client", Region.JP)
        return net, handled, answers

    def test_send_and_send_at_land_twice(self, sim, net):
        net.register("a", Region.CA)
        seen = []
        net.register_handler("b", Region.VA, lambda payload, src: seen.append((payload, sim.now)))
        net.set_duplicate_probability(Region.CA, Region.VA, 1.0)
        net.send("a", "b", "direct")
        net.send_at(5.0, "a", "b", "held")
        sim.run()
        assert seen == [("direct", 37.0), ("direct", 37.1), ("held", 42.0), ("held", 42.1)]

    def test_a_reply_lands_once(self, sim, dup_net):
        net, handled, answers = dup_net
        assert sim.run_process(net.call("client", "server", "x", timeout=1_000.0)) == "x"
        sim.run()
        # The direct request copy landed twice, and each landing was
        # answered by exactly one reply.
        assert handled == ["x", "x"]
        assert answers == [None, None]

    def test_a_relayed_copy_lands_once(self, sim, dup_net):
        net, handled, answers = dup_net
        net.partition(Region.JP, Region.VA)
        call = net.rpc("client", "server", "x")
        call.relay, call.hedged = Region.CA, True
        assert sim.run_process(call.attempt(1_000.0)) == "x"
        sim.run()
        assert handled == ["x"]
        assert answers == [Region.CA]
        assert net.messages_sent == 1 + 2 + 2  # the lost direct copy, two legs each way
