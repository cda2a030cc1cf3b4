"""A cut path costs one detour: a runtime RPC re-sends through a relay
region and hedges a path the relay has shown dead.

* a relayed copy travels as two legs, each judged by its own link, keeps
  its caller as sender, and is answered back the same way;
* every re-send goes through the destination's relay — the deployment
  region, other than both ends, with the shortest detour — and a
  one-region deployment has none;
* a destination turns *suspect* only when a relayed copy answers first;
  while it is, every attempt sends a direct and a relayed copy, and the
  first direct answer to a call sent after suspicion began ends it;
* a queueing server never makes a destination suspect: its relayed copy
  waits behind the direct one;
* the breaker counts calls, not attempts; a server charges a copy of an
  execution it owns or answered nothing.

The counter stack from ``conftest``: JP's runtime is 146 ms from the LVI
server in VA, and its relay is CA (100 ms from JP, 74 ms from VA).
"""

import pytest

from repro.bench.harness import drive_open_loop
from repro.bench.scalability import scalability_config, uniform_counter_app
from repro.core import LVIRequest, LVIResponse, RadicalConfig
from repro.errors import UnavailableError
from repro.faults import CLOSED
from repro.obs.analyze import critical_path
from repro.sim import Region, paper_latency_table
from repro.storage.intents import IDEM_TABLE
from repro.topology import Deployment, TopologySpec

from conftest import build_counter_deployment

SERVER = "lvi-server"
#: JP -> CA -> VA is this much longer a round trip than JP -> VA.
DETOUR_MS = 100.0 + 74.0 - 146.0


def deployment(regions=(Region.JP, Region.CA), trace=False, **overrides):
    config = dict(service_jitter_sigma=0.0, followup_timeout_ms=5_000.0,
                  rpc_timeout_ms=2_000.0)
    config.update(overrides)
    return build_counter_deployment(
        regions=regions, config=RadicalConfig(**config), trace=trace
    )


def invoke(dep, fn, region=Region.JP):
    """Run one invocation to its end; the outcome, or the error."""
    def watched():
        try:
            return (yield dep.sim.spawn(dep.runtimes[region].invoke(fn, ["x"])))
        except UnavailableError as exc:
            return exc
    return dep.sim.run_process(watched())


def counters(dep, *names):
    return {name: dep.metrics.counter(name) for name in names}


def drop_first(dep, kind):
    """Lose the next message copy of type ``kind``, once."""
    left = [1]

    def eat(_src, _dst, payload):
        if isinstance(payload, kind) and left[0]:
            left[0] -= 1
            return True
        return False

    dep.net.add_drop_filter(eat)


def test_each_runtime_detours_through_the_shortest_other_region():
    table = paper_latency_table()
    near_user = Region.NEAR_USER
    assert table.relay(Region.JP, Region.VA, near_user) == Region.CA    # 100 + 74
    assert table.relay(Region.CA, Region.VA, near_user) == Region.IE    # 130 + 70
    assert table.relay(Region.DE, Region.VA, near_user) == Region.IE    # 25 + 70
    assert table.relay(Region.VA, Region.VA, near_user) is None  # one datacenter
    assert table.relay(Region.JP, Region.VA, (Region.JP, Region.VA)) is None
    dep = deployment()
    assert dep.runtimes[Region.JP].relays == {SERVER: Region.CA}
    assert dep.runtimes[Region.CA].relays == {SERVER: Region.JP}


class TestACutPathCostsOneDetour:
    def test_a_write_inside_a_partition_is_answered_through_the_relay(self):
        dep = deployment()
        clean = invoke(dep, "t.read").latency_ms
        before = dep.store.get("counters", "c:x").version
        dep.net.partition(Region.JP, Region.VA)
        outcome = invoke(dep, "t.bump")
        assert outcome.path == "speculative" and outcome.result == 1
        dep.sim.run(until=dep.sim.now + 2_000.0)  # the followup settles
        item = dep.store.get("counters", "c:x")
        assert (item.value, item.version) == (1, before + 1)
        claims = [key for key, _item in dep.store.scan(IDEM_TABLE)]
        assert claims == [f"{dep.runtimes[Region.JP].name}:1:near_storage"]
        assert counters(dep, "rpc.suspect", "rpc.exhausted", "followup.applied") == {
            "rpc.suspect": 1, "rpc.exhausted": 0, "followup.applied": 1,
        }
        # Suspect now: a call is answered through CA at once.
        assert invoke(dep, "t.read").latency_ms == pytest.approx(clean + DETOUR_MS)

    def test_the_relayed_copy_keeps_its_sender_and_its_route(self):
        dep = deployment(trace=True)
        invoke(dep, "t.read")
        dep.net.partition(Region.JP, Region.VA)
        before = len(dep.sim.obs.spans)
        invoke(dep, "t.read")
        # The server filed the relayed copy under the calling runtime.
        assert set(dep.server._clients) == {dep.runtimes[Region.JP].name}
        hops = [
            (s.attrs["src_region"], s.attrs["dst_region"], s.attrs["status"])
            for s in dep.sim.obs.spans[before:] if s.name == "net.hop"
        ]
        # The direct copy dies on the cut link; the re-sent one goes out
        # and comes back through CA, one leg per link.
        assert hops == [
            (Region.JP, Region.VA, "dropped"),
            (Region.JP, Region.CA, "delivered"),
            (Region.CA, Region.VA, "delivered"),
            (Region.VA, Region.CA, "delivered"),
            (Region.CA, Region.JP, "delivered"),
        ]

    def test_an_attempt_after_a_timed_out_one_takes_the_detour(self):
        # The RTO plus the function's service time does not fit a 400 ms
        # attempt, so nothing is re-sent inside it; the next attempt sends
        # a direct copy and a relayed one.
        dep = deployment(rpc_timeout_ms=400.0, retry_jitter_frac=0.0)
        clean = invoke(dep, "t.read").latency_ms
        assert dep.runtimes[Region.JP]._rto[SERVER].rto_ms + 20.0 >= 400.0
        dep.net.partition(Region.JP, Region.VA)
        outcome = invoke(dep, "t.read")
        backoff = dep.spec.config.retry_base_backoff_ms
        assert outcome.latency_ms == pytest.approx(clean + 400.0 + backoff + DETOUR_MS)
        assert counters(dep, "rpc.retransmit", "rpc.timeout", "rpc.relayed", "rpc.suspect") == {
            "rpc.retransmit": 0, "rpc.timeout": 1, "rpc.relayed": 1, "rpc.suspect": 1,
        }

    def test_a_direct_answer_to_a_call_sent_earlier_keeps_the_suspicion(self):
        # A's direct copy is lost and its relayed re-send answers first: JP
        # turns suspect.  C, sent before that and re-sent through CA too, is
        # answered by its slow direct copy after suspicion began, which
        # says nothing about the path since: JP stays suspect.
        dep = deployment()
        clean = invoke(dep, "t.read").latency_ms
        runtime = dep.runtimes[Region.JP]
        dep.net.set_extra_delay(Region.JP, Region.VA, 420.0)
        drop_first(dep, LVIRequest)
        started = dep.sim.now
        answered = {}

        def client(name, delay):
            yield dep.sim.timeout(delay)
            yield from runtime.invoke("t.read", ["x"])
            answered[name] = dep.sim.now

        dep.sim.spawn(client("A", 0.0))
        dep.sim.spawn(client("C", 100.0))
        dep.sim.run(until=dep.sim.now + 3_000.0)
        suspect_since = runtime._suspect[SERVER]
        assert started + 100.0 < suspect_since < answered["C"]
        assert answered["C"] - (started + 100.0) == pytest.approx(clean + 420.0)
        assert counters(dep, "rpc.retransmit", "rpc.relayed", "rpc.suspect") == {
            "rpc.retransmit": 2, "rpc.relayed": 2, "rpc.suspect": 1,
        }

    def test_a_queueing_server_never_turns_suspect(self):
        # The scalability sweep's one-shard counter, offered far past its
        # capacity: calls answered out of order draw relayed re-sends,
        # and each relayed copy waits behind its direct one.
        app = uniform_counter_app()
        dep = Deployment.build(
            TopologySpec(shards=1, seed=42, config=scalability_config()), app=app
        )
        drive_open_loop(dep, app, "scale", 150.0, 2_000.0)
        assert dep.metrics.counter("rpc.relayed") > 0
        assert dep.metrics.counter("rpc.suspect") == 0
        assert all(not rt._suspect for rt in dep.runtimes.values())

    def test_a_relay_cut_from_the_destination_ends_at_the_deadline(self):
        dep = deployment(rpc_timeout_ms=400.0, retry_max_attempts=10,
                         invocation_deadline_ms=3_000.0)
        invoke(dep, "t.read")
        dep.net.partition(Region.JP, Region.VA)
        dep.net.partition(Region.CA, Region.VA)
        started = dep.sim.now
        error = invoke(dep, "t.bump")
        assert isinstance(error, UnavailableError)
        assert "deadline exhausted" in str(error)
        assert dep.sim.now == pytest.approx(started + 3_000.0)
        assert dep.metrics.counter("rpc.relayed") > 0
        assert dep.metrics.counter("rpc.suspect") == 0

    def test_the_first_direct_answer_after_the_heal_ends_the_suspicion(self):
        dep = deployment()
        clean = invoke(dep, "t.read").latency_ms
        dep.net.partition(Region.JP, Region.VA)
        invoke(dep, "t.read")
        runtime = dep.runtimes[Region.JP]
        assert SERVER in runtime._suspect
        dep.net.heal(Region.JP, Region.VA)
        relayed = dep.metrics.counter("rpc.relayed")
        # Still suspect: hedged, and its direct copy answers first.
        assert invoke(dep, "t.read").latency_ms == pytest.approx(clean)
        assert dep.metrics.counter("rpc.relayed") == relayed + 1
        assert runtime._suspect == {}
        sent = dep.net.messages_sent
        assert invoke(dep, "t.read").latency_ms == pytest.approx(clean)
        assert dep.metrics.counter("rpc.relayed") == relayed + 1
        assert dep.net.messages_sent == sent + 2  # one request, one reply

    def test_a_one_region_deployment_re_sends_direct(self):
        dep = deployment(regions=(Region.CA,))
        assert dep.runtimes[Region.CA].relays == {}
        clean = invoke(dep, "t.read", Region.CA).latency_ms
        rto = dep.runtimes[Region.CA]._rto[SERVER].rto_ms
        drop_first(dep, LVIRequest)
        # The RTO adds the function's 20 ms service time (the call may take
        # the backup path); the re-send takes the direct path.
        outcome = invoke(dep, "t.read", Region.CA)
        assert outcome.latency_ms == pytest.approx(clean + rto + 20.0)
        assert counters(dep, "rpc.retransmit", "rpc.relayed", "rpc.suspect") == {
            "rpc.retransmit": 1, "rpc.relayed": 0, "rpc.suspect": 0,
        }


def test_a_relayed_answer_is_an_event_a_span_attribute_and_a_label():
    dep = deployment(trace=True)
    invoke(dep, "t.read")
    dep.net.partition(Region.JP, Region.VA)
    invoke(dep, "t.read")
    spans = dep.sim.obs.spans
    relayed = [s for s in spans if s.name == "rpc.relayed"]
    assert [(e.attrs["via"], e.attrs["hedge"]) for e in relayed] == [(Region.CA, False)]
    suspect = [s for s in spans if s.name == "rpc.suspect"]
    assert [(e.attrs["dst"], e.attrs["via"]) for e in suspect] == [(SERVER, Region.CA)]
    answered = [s for s in spans if s.name == "rpc" and s.attrs.get("relayed")]
    assert len(answered) == 1 and answered[0].attrs["retransmits"] == 1
    assert [name for name, _ms in critical_path(spans)][-1] == "phase.spec_overlap/rpc+relay"


class TestTheBreakerCountsCalls:
    def test_a_call_answered_after_a_timed_out_attempt_counts_no_failure(self):
        # Every attempt times out before its answer lands, and the answer
        # then ends the next one: the call is answered, the breaker clean.
        dep = deployment(rpc_timeout_ms=60.0, breaker_failure_threshold=1)
        outcome = invoke(dep, "t.read", Region.CA)
        assert outcome.path == "speculative"
        breaker = dep.runtimes[Region.CA]._breaker
        assert breaker.state == CLOSED and breaker.failures == 0
        assert dep.metrics.counter("rpc.timeout") == 1

    def test_a_half_open_probe_is_judged_by_its_call(self):
        dep = deployment(rpc_timeout_ms=60.0, breaker_failure_threshold=1,
                         breaker_cooldown_ms=100.0)
        breaker = dep.runtimes[Region.CA]._breaker
        breaker.record_failure()  # open
        dep.sim.run(until=dep.sim.now + 100.0)
        # The probe's first attempt times out; its call is answered.
        outcome = invoke(dep, "t.read", Region.CA)
        assert outcome.path == "direct"
        assert breaker.state == CLOSED
        assert dep.metrics.counter("breaker.open") == 1


def test_a_copy_of_an_answered_execution_costs_the_server_nothing():
    # A lost reply: the re-sent copy finds the execution answered, and the
    # server replays the reply without charging its CPU again.
    dep = deployment(regions=(Region.CA,), server_proc_ms=50.0)
    invoke(dep, "t.read", Region.CA)
    charged = []
    charge = dep.server._charge_proc

    def spy(inner, batch_index, admitted=False):
        charged.append(dep.sim.now)
        return charge(inner, batch_index, admitted)

    dep.server._charge_proc = spy
    drop_first(dep, LVIResponse)
    outcome = invoke(dep, "t.read", Region.CA)
    assert outcome.path == "speculative"
    assert counters(dep, "rpc.retransmit", "lvi.replayed_reply") == {
        "rpc.retransmit": 1, "lvi.replayed_reply": 1,
    }
    assert len(charged) == 1
