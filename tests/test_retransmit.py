"""A runtime RPC is one call with one reply slot, re-sent at a measured
retransmission timeout (RTO).

* a lost request or reply costs one RTO, not a whole ``rpc_timeout_ms``,
  and the server's execution-id dedup answers the copy (a replayed reply
  when the original was answered);
* an answer to an earlier copy that lands after a re-send, or after its
  attempt ended, still completes the call;
* the RTO is RFC 6298's, with the 200 ms floor on the variance term, per
  destination; only a call answered by its only copy samples it (Karn's
  rule), and a destination never heard from gets no early re-send;
* an expiry re-sends only a loss: a call sent later was answered, or
  nothing was answered since the copy went out — never a call that is
  merely queued behind others at a busy server;
* within one attempt each expiry doubles the timeout, and the attempt's
  deadline caps it;
* a fault-free run never fires a re-send timer.

The counter stack from ``conftest``: CA's runtime is 74 ms from the LVI
server in VA, and nothing jitters.
"""

import pytest

from repro.core import LVIRequest, LVIResponse, RadicalConfig, WriteFollowup
from repro.errors import UnavailableError
from repro.faults import RtoEstimator
from repro.obs.analyze import critical_path
from repro.sim import (
    NO_REPLY,
    Network,
    RandomStreams,
    Region,
    RpcCall,
    RpcTimeout,
    Simulator,
    paper_latency_table,
)

from conftest import build_counter_deployment

RPC_TIMEOUT_MS = 2_000.0
SERVER = "lvi-server"
#: A CA re-send detours through JP, the deployment's only other region:
#: RTT(CA, JP) + RTT(JP, VA) - RTT(CA, VA) ms longer than the direct path.
DETOUR_MS = 100.0 + 146.0 - 74.0
#: The counter functions' service time, which an LVI call adds to its RTO
#: (it may take the backup path).
SERVICE_MS = 20.0


@pytest.fixture
def sim():
    return Simulator()


def deployment(rpc_timeout_ms=RPC_TIMEOUT_MS, trace=False, server_proc_ms=0.0):
    return build_counter_deployment(
        config=RadicalConfig(
            service_jitter_sigma=0.0,
            followup_timeout_ms=5_000.0,
            rpc_timeout_ms=rpc_timeout_ms,
            server_proc_ms=server_proc_ms,
        ),
        trace=trace,
    )


def concurrently(dep, starts, fn="t.read", region=Region.CA):
    """Invoke ``fn`` once per offset in ``starts`` (ms from now); run until
    every invocation has ended and return their latencies in start order."""
    outcomes = {}

    def client(i, delay):
        yield dep.sim.timeout(delay)
        outcomes[i] = yield from dep.runtimes[region].invoke(fn, ["x"])

    for i, delay in enumerate(starts):
        dep.sim.spawn(client(i, delay))
    dep.sim.run(until=dep.sim.now + 5_000.0)
    return [outcomes[i].latency_ms for i in range(len(starts))]


def invoke(dep, fn, region=Region.CA):
    """Run one invocation to its end; the outcome, or ``"unavailable"``."""
    def watched():
        try:
            return (yield dep.sim.spawn(dep.runtimes[region].invoke(fn, ["x"])))
        except UnavailableError:
            return "unavailable"
    return dep.sim.run_process(watched())


def drop_first(dep, kind):
    """Lose the next message copy of type ``kind``, once."""
    left = [1]

    def eat(_src, _dst, payload):
        if isinstance(payload, kind) and left[0]:
            left[0] -= 1
            return True
        return False

    dep.net.add_drop_filter(eat)


def estimator(dep, region=Region.CA):
    return dep.runtimes[region]._rto[SERVER]


def state(est):
    return est.srtt_ms, est.rttvar_ms, est.rto_ms


def counters(dep, *names):
    return {name: dep.metrics.counter(name) for name in names}


class TestALostMessageCostsOneRto:
    def test_a_dropped_request_is_answered_one_rto_late(self):
        dep = deployment()
        clean = invoke(dep, "t.read").latency_ms
        rto = estimator(dep).rto_ms
        assert rto is not None and rto < RPC_TIMEOUT_MS / 5
        drop_first(dep, LVIRequest)
        outcome = invoke(dep, "t.read")
        assert outcome.path == "speculative"
        assert outcome.latency_ms == pytest.approx(clean + rto + SERVICE_MS + DETOUR_MS)
        assert counters(dep, "rpc.retransmit", "rpc.timeout", "rpc.retry") == {
            "rpc.retransmit": 1, "rpc.timeout": 0, "rpc.retry": 0,
        }

    def test_a_dropped_reply_is_recovered_by_a_replayed_answer(self):
        dep = deployment()
        clean = invoke(dep, "t.bump").latency_ms
        dep.sim.run(until=dep.sim.now + 1_000.0)  # the followup settles
        rto = estimator(dep).rto_ms
        drop_first(dep, LVIResponse)
        outcome = invoke(dep, "t.bump")
        # The re-sent copy finds the execution answered: the server replays
        # that answer without executing again, so it is back sooner than a
        # fresh round trip.
        assert outcome.path == "speculative" and outcome.result == 2
        late = rto + SERVICE_MS + DETOUR_MS
        assert clean + late - 20.0 < outcome.latency_ms < clean + late
        assert counters(dep, "rpc.retransmit", "lvi.replayed_reply", "rpc.timeout") == {
            "rpc.retransmit": 1, "lvi.replayed_reply": 1, "rpc.timeout": 0,
        }
        dep.sim.run(until=dep.sim.now + 1_000.0)
        assert dep.store.get("counters", "c:x").value == 2

    def test_a_dropped_followup_is_re_sent_without_the_breaker(self):
        dep = deployment()
        invoke(dep, "t.bump")
        dep.sim.run(until=dep.sim.now + 1_000.0)
        drop_first(dep, WriteFollowup)
        assert invoke(dep, "t.bump").path == "speculative"
        dep.sim.run(until=dep.sim.now + 1_000.0)
        assert counters(
            dep, "rpc.retransmit", "followup.applied", "followup.retry",
            "followup.lost", "reexecution.count",
        ) == {
            "rpc.retransmit": 1, "followup.applied": 2, "followup.retry": 0,
            "followup.lost": 0, "reexecution.count": 0,
        }
        assert dep.runtimes[Region.CA]._breaker.failures == 0


class TestOnlyALossIsReSent:
    def test_calls_queued_at_a_busy_server_are_not_re_sent(self):
        # Five reads at once behind 150 ms of server work each: the last
        # waits ~750 ms, far past the RTO, but no call sent later has been
        # answered — a queue, not a loss — so no copy joins the queue.
        dep = deployment(server_proc_ms=150.0)
        for _ in range(20):  # RTTVAR settles: the RTO nears SRTT + 200 ms
            invoke(dep, "t.read")
        rto = estimator(dep).rto_ms
        latencies = concurrently(dep, [0.0] * 5)
        assert max(latencies) > rto + 300.0
        assert dep.metrics.counter("rpc.retransmit") == 0
        assert dep.metrics.counter("lvi.duplicate_request") == 0

    def test_an_answered_later_call_marks_an_earlier_one_lost(self):
        dep = deployment()
        clean = invoke(dep, "t.read").latency_ms
        rto = estimator(dep).rto_ms
        drop_first(dep, LVIRequest)
        # The first read's request is lost; the second, sent 10 ms later,
        # is answered well before the first's RTO, so the expiry re-sends.
        first, second = concurrently(dep, [0.0, 10.0])
        assert second == pytest.approx(clean)
        assert first == pytest.approx(clean + rto + SERVICE_MS + DETOUR_MS)
        assert dep.metrics.counter("rpc.retransmit") == 1


class TestTheSlotOutlivesEachCopy:
    """At the network layer: an echo server that answers the first copy
    after ``service`` ms and stays silent on every later one, as the LVI
    server does for an execution it owns."""

    @staticmethod
    def _net(sim, service=200.0):
        net = Network(sim, paper_latency_table(), RandomStreams(7))
        seen = []

        def handler(payload, src):
            seen.append(sim.now)
            if len(seen) > 1:
                return NO_REPLY
            yield sim.timeout(service)
            return "first"

        net.serve("server", Region.VA, handler)
        net.register("client", Region.CA)
        return net, seen

    def test_the_first_copys_answer_after_a_re_send_completes_the_call(self, sim):
        net, seen = self._net(sim)
        call = net.rpc("client", "server", "x")
        assert sim.run_process(call.attempt(1_000.0, rto_ms=100.0)) == "first"
        # Copy 1 at 0, copy 2 at 100; copy 1's answer lands at 37 + 200 + 37.
        assert sim.now == 274.0 and seen == [37.0, 137.0]
        assert call.sends == 2 and call.rtt_ms() is None  # Karn: ambiguous

    def test_an_answer_to_attempt_one_ends_attempt_two(self, sim):
        net, seen = self._net(sim)
        call = net.rpc("client", "server", "x")

        def client():
            try:
                yield from call.attempt(150.0)
            except RpcTimeout:
                pass
            yield sim.timeout(10.0)
            return (yield from call.attempt(1_000.0))

        assert sim.run_process(client()) == "first"
        assert sim.now == 274.0 and seen == [37.0, 197.0]
        assert call.sends == 2

    def test_an_answer_between_attempts_ends_the_next_one_unsent(self, sim):
        net, seen = self._net(sim)
        call = net.rpc("client", "server", "x")

        def client():
            try:
                yield from call.attempt(150.0)
            except RpcTimeout:
                pass
            yield sim.timeout(200.0)
            return (yield from call.attempt(1_000.0))

        assert sim.run_process(client()) == "first"
        assert sim.now == 350.0 and seen == [37.0]
        # Answered by its only copy: an unambiguous sample.
        assert call.sends == 1 and call.rtt_ms() == 274.0

    def test_each_expiry_doubles_the_timeout_up_to_the_deadline(self, sim):
        net, _seen = self._net(sim)
        net.partition(Region.CA, Region.VA)
        call = net.rpc("client", "server", "x")
        copies = []

        def resend(call):
            copies.append((call.sends + 1, sim.now))
            return True

        def client():
            try:
                yield from call.attempt(1_000.0, rto_ms=100.0, resend=resend)
            except RpcTimeout:
                return sim.now

        # Re-sends after 100, 200 and 400 ms; the next (800) would pass the
        # deadline, so the attempt's timer is the deadline itself.
        assert sim.run_process(client()) == 1_000.0
        assert copies == [(2, 100.0), (3, 300.0), (4, 700.0)]
        assert call.sends == 4
        assert sim.run() == 1_000.0  # no timer outlives the attempt

    def test_a_withheld_copy_still_doubles_the_timeout(self, sim):
        net, _seen = self._net(sim)
        net.partition(Region.CA, Region.VA)
        call = net.rpc("client", "server", "x")
        asked = []

        def resend(call):
            asked.append(sim.now)
            return len(asked) == 2  # only the second expiry sends

        def client():
            try:
                yield from call.attempt(1_000.0, rto_ms=100.0, resend=resend)
            except RpcTimeout:
                return sim.now

        assert sim.run_process(client()) == 1_000.0
        assert asked == [100.0, 300.0, 700.0]
        assert call.sends == 2 and call.last_sent_at == 300.0

    def test_a_late_answer_to_a_plain_call_is_dropped(self, sim):
        # ``Network.call`` is one attempt of a fresh call: nobody waits on
        # its slot after the deadline, and the answer that lands there
        # later is dropped, not "triggered twice".
        net, seen = self._net(sim)

        def client():
            try:
                yield from net.call("client", "server", "x", timeout=100.0)
            except RpcTimeout:
                return sim.now

        assert sim.run_process(client()) == 100.0
        assert sim.run() == 274.0 and seen == [37.0]


class TestTheEstimator:
    def test_rfc6298_smoothing_with_the_floor_on_the_variance_term(self):
        est = RtoEstimator()
        assert state(est) == (None, 0.0, None)
        est.sample(100.0)
        assert state(est) == (100.0, 50.0, 300.0)  # 100 + max(200, 4 * 50)
        est.sample(300.0)
        # RTTVAR = 3/4 * 50 + 1/4 * |100 - 300|; SRTT = 7/8 * 100 + 1/8 * 300
        assert state(est) == (125.0, 87.5, 475.0)
        for _ in range(60):
            est.sample(125.0)
        assert est.srtt_ms == pytest.approx(125.0)
        assert est.rto_ms == pytest.approx(325.0)  # the floor, not 4 * RTTVAR

    def test_an_expiry_is_a_loss_only_on_evidence(self):
        est = RtoEstimator()
        assert est.may_resend(10.0)  # nothing answered since: silence
        est.answered(5.0, at=8.0)
        assert est.may_resend(10.0)  # that answer came before the copy
        est.answered(6.0, at=150.0)
        assert not est.may_resend(10.0)  # only older calls answered: a queue
        est.answered(12.0, at=160.0)
        est.answered(11.0, at=155.0)
        assert (est.answered_sent_at, est.answered_at) == (12.0, 160.0)
        assert est.may_resend(10.0)  # a later call answered: a loss

    def test_no_early_re_send_before_a_destinations_first_sample(self):
        dep = deployment()
        drop_first(dep, LVIRequest)
        outcome = invoke(dep, "t.read")
        assert outcome.path == "speculative"
        assert outcome.latency_ms > RPC_TIMEOUT_MS
        assert counters(dep, "rpc.retransmit", "rpc.timeout", "rpc.retry") == {
            "rpc.retransmit": 0, "rpc.timeout": 1, "rpc.retry": 1,
        }

    def test_a_re_sent_call_adds_no_sample(self):
        dep = deployment()
        invoke(dep, "t.read")
        est = estimator(dep)
        before = state(est)
        drop_first(dep, LVIRequest)
        invoke(dep, "t.read")
        assert dep.metrics.counter("rpc.retransmit") == 1
        assert state(est) == before
        # The relayed copy answered first, so the next call is hedged (two
        # copies: no sample), and its direct answer ends the suspicion.
        invoke(dep, "t.read")
        assert state(est) == before
        invoke(dep, "t.read")  # answered by its only copy: sampled
        assert state(est) != before

    def test_a_timeout_shorter_than_the_round_trip_still_completes(self):
        # Every attempt times out before its answer can land, so each
        # answer meets the next attempt: before the slot outlived its
        # attempt, all three timed out and the invocation failed.
        dep = deployment(rpc_timeout_ms=60.0)
        outcome = invoke(dep, "t.read")
        assert outcome != "unavailable" and outcome.path == "speculative"
        assert outcome.latency_ms < 2 * 74.0
        assert counters(dep, "rpc.timeout", "rpc.retry", "rpc.exhausted") == {
            "rpc.timeout": 1, "rpc.retry": 1, "rpc.exhausted": 0,
        }


def test_a_fault_free_closed_loop_never_fires_a_re_send(monkeypatch):
    fired = []
    retransmit = RpcCall._retransmit

    def spy(call):
        fired.append(call)
        retransmit(call)

    monkeypatch.setattr(RpcCall, "_retransmit", spy)
    dep = deployment()

    def client(region, fn):
        for _ in range(25):
            yield from dep.runtimes[region].invoke(fn, ["x"])

    for region in (Region.JP, Region.CA):
        for fn in ("t.bump", "t.read"):
            dep.sim.spawn(client(region, fn))
    dep.sim.run(until=60_000.0)
    assert dep.store.get("counters", "c:x").value == 50
    # Re-sends were armed (both runtimes have a sample) and none fired.
    assert all(rt._rto[SERVER].rto_ms is not None for rt in dep.runtimes.values())
    assert fired == [] and dep.metrics.counter("rpc.retransmit") == 0


def test_a_re_send_is_an_event_and_a_span_attribute():
    dep = deployment(trace=True)
    invoke(dep, "t.read")
    drop_first(dep, LVIRequest)
    invoke(dep, "t.read")
    spans = dep.sim.obs.spans
    events = [s for s in spans if s.name == "rpc.retransmit"]
    assert [(e.attrs["label"], e.attrs["send"]) for e in events] == [("lvi", 2)]
    assert events[0].attrs["execution_id"] == f"{dep.runtimes[Region.CA].name}:1"
    resent = [s for s in spans if s.name == "rpc" and "retransmits" in s.attrs]
    assert len(resent) == 1 and resent[0].attrs["retransmits"] == 1
    assert resent[0].attrs["status"] == "ok"
    # The critical paths ``trace summarize`` prints name the re-send.
    assert [name for name, _ms in critical_path(spans)] == [
        "phase.overhead", "phase.frw", "phase.spec_overlap/rpc",
        "phase.overhead", "phase.frw", "phase.spec_overlap/rpc+relay",
    ]
