"""The request pipeline's contracts that no other tier-1 test names.

* the *dirty-set settle table*: where the shard that owns a write settles
  the entry it enrolled in the router's dirty set — one row per way an
  invocation can end, a crash included;
* the server's *dedup prologue*, identical for every request-bearing
  message: in-flight duplicate, replayed reply, and redelivery to a
  restarted server before and after the execution settled;
* the two ways a server declines a request — a replica's forward to its
  primary and an admission shed — leave no dedup state behind, and a
  forward is filed under its own client at the primary;
* the *completion floor*: the server's dedup tables hold the executions in
  flight, not the run; a request below its runtime's floor is inert; and
  no runtime ever sends a floor past an execution that can still send.
"""

import pytest

from repro.analysis import KeyFact
from repro.core import (
    DirectExecRequest,
    FunctionRegistry,
    FunctionSpec,
    LVIRequest,
    LVIResponse,
    LVIServer,
    RadicalConfig,
    ShardDecision,
    ShardPrepare,
    WriteFollowup,
)
from repro.errors import OverloadedError, UnavailableError
from repro.obs import TraceCollector
from repro.sim import (
    NO_REPLY,
    Metrics,
    Network,
    RandomStreams,
    Region,
    RpcTimeout,
    Simulator,
    paper_latency_table,
)
from repro.storage import IdempotencyTable, KVStore
from repro.mesh import MeshSpec
from repro.topology import ConflictDetector, Deployment, TopologySpec

from conftest import build_counter_deployment

BUMP_SRC = '''
def bump(k):
    busy(2000)
    count = db_get("counters", k)
    if count is None:
        count = 0
    db_put("counters", k, count + 1)
    return count + 1
'''

READ_SRC = '''
def read(k):
    busy(2000)
    return db_get("counters", k)
'''

XFER_SRC = '''
def xfer(a, b):
    busy(2000)
    va = db_get("counters", a)
    vb = db_get("counters", b)
    db_put("counters", a, va + 1)
    db_put("counters", b, vb + 1)
    return va + vb
'''

# At two shards the hash places LOW on shard 0 and HIGH on shard 1.
LOW, HIGH = "c:a", "c:y"


def detecting_config(**overrides) -> RadicalConfig:
    base = dict(
        conflict_detection=True,
        service_jitter_sigma=0.0,
        followup_timeout_ms=400.0,
        rpc_timeout_ms=300.0,
        retry_max_attempts=2,
        retry_base_backoff_ms=10.0,
        retry_max_backoff_ms=50.0,
        retry_jitter_frac=0.0,
    )
    base.update(overrides)
    return RadicalConfig(**base)


def build(shards=1, **config):
    return Deployment.build(
        TopologySpec(
            regions=(Region.JP, Region.CA),
            shards=shards,
            seed=1,
            config=detecting_config(**config),
            network_jitter_sigma=0.0,
            warm_caches=True,
            persistent_caches=False,
            raft_prewarm_ms=0.0,
        ),
        functions=[
            FunctionSpec("t.bump", BUMP_SRC, 20.0),
            FunctionSpec("t.read", READ_SRC, 20.0),
            FunctionSpec("t.xfer", XFER_SRC, 20.0),
            FunctionSpec("t.opaque", BUMP_SRC, 20.0),
        ],
        seed_data=lambda store: (
            store.put("counters", LOW, 0),
            store.put("counters", HIGH, 0),
        ),
    )


def invoke(dep, region, fn, args):
    """Run one invocation to its end; the outcome, or ``"unavailable"``."""
    def watched():
        try:
            return (yield dep.sim.spawn(dep.runtimes[region].invoke(fn, args)))
        except UnavailableError:
            return "unavailable"
    return dep.sim.run_process(watched())


def quiesce(dep, ms=5_000.0):
    dep.sim.run(until=dep.sim.now + ms)


def dirty(dep):
    return dep.router.detector.dirty


def stats(enrolled=0, settled=0, depth=0):
    return {"enrolled": enrolled, "settled": settled, "depth": depth}


def first_eid(dep, region):
    """The execution id of ``region``'s runtime's first invocation."""
    return f"{dep.runtimes[region].name}:0"


def drop(dep, kind, dst=None):
    dep.net.add_drop_filter(
        lambda _src, to, payload: isinstance(payload, kind) and dst in (None, to)
    )


@pytest.fixture
def settle_point(monkeypatch):
    """Every dirty-set settle, as ``(server, execution id)``; one made
    anywhere but a server's ``_settle`` or ``crash``, or for more than the
    settling server's shard, fails the test."""
    calls = []
    inside = []

    def spying_exit(name):
        original = getattr(LVIServer, name)

        def spying(self, *args):
            inside.append(self)
            try:
                return original(self, *args)
            finally:
                inside.pop()

        monkeypatch.setattr(LVIServer, name, spying)

    settle = ConflictDetector.settle

    def spying_settle(self, execution_id, shard=None):
        assert inside, f"settle({execution_id}) outside a server's settle point"
        assert shard == inside[-1].shard, f"settle({execution_id}) beyond its shard"
        if execution_id in self.dirty.executions(shard):
            calls.append((inside[-1].name, execution_id))
        return settle(self, execution_id, shard)

    spying_exit("_settle")
    spying_exit("crash")
    monkeypatch.setattr(ConflictDetector, "settle", spying_settle)
    return calls


# -- (a) the dirty-set settle table ----------------------------------------------

@pytest.mark.usefixtures("settle_point")
class TestDirtySetFateTable:
    """After each way an invocation can end, the dirty set holds exactly
    the writes a shard still holds — and balances at quiescence.  Every
    entry is enrolled and settled by the shard that executes the write."""

    def test_cache_miss_settles_on_the_backup_response(self):
        dep = build()
        outcome = invoke(dep, Region.JP, "t.bump", ["c:cold"])  # never cached
        assert outcome.path == "miss"
        # The backup execution applied the write before replying.
        assert dirty(dep).stats() == stats(enrolled=1, settled=1)
        quiesce(dep)
        assert dirty(dep).balanced

    def test_backup_path_settles_on_the_response(self):
        dep = build()
        assert invoke(dep, Region.JP, "t.bump", [LOW]).path == "speculative"
        quiesce(dep)
        # CA's cache still holds LOW's warmed version: validation fails.
        outcome = invoke(dep, Region.CA, "t.bump", [LOW])
        assert outcome.path == "backup" and outcome.result == 2
        assert dirty(dep).stats() == stats(enrolled=2, settled=2)
        quiesce(dep)
        assert dirty(dep).balanced

    def test_read_only_speculative_success_never_enrolls(self):
        dep = build()
        outcome = invoke(dep, Region.JP, "t.read", [LOW])
        assert outcome.path == "speculative"
        assert dirty(dep).stats() == stats()
        quiesce(dep)
        assert dirty(dep).balanced

    def test_write_success_is_settled_by_the_followup_ack(self):
        dep = build()
        assert invoke(dep, Region.JP, "t.bump", [LOW]).path == "speculative"
        # The client is answered; the followup is still in flight, and the
        # shard still holds the write — a reader probing now must see it.
        assert dirty(dep).stats() == stats(enrolled=1, depth=1)
        quiesce(dep)
        assert dep.metrics.counter("followup.applied") == 1
        assert dirty(dep).stats() == stats(enrolled=1, settled=1)
        assert dirty(dep).balanced

    def test_lost_followup_is_settled_by_the_intent_timer(self):
        dep = build()
        drop(dep, WriteFollowup)
        assert invoke(dep, Region.JP, "t.bump", [LOW]).path == "speculative"
        assert dirty(dep).stats() == stats(enrolled=1, depth=1)
        quiesce(dep)
        # Every followup attempt died; the intent timer applied the write,
        # and the shard settled the entry as it did.
        assert dep.metrics.counter("followup.lost") == 1
        assert dep.metrics.counter("reexecution.count") == 1
        assert dirty(dep).stats() == stats(enrolled=1, settled=1)

    def test_unavailable_lvi_call_is_settled_by_the_intent_timer(self):
        dep = build()
        drop(dep, LVIResponse)
        assert invoke(dep, Region.JP, "t.bump", [LOW]) == "unavailable"
        # The shard validated and held the intent while the client, never
        # hearing back, retried; the intent timer applied the write.
        assert dep.metrics.counter("reexecution.count") == 1
        assert dep.store.get("counters", LOW).value == 1
        assert dirty(dep).stats() == stats(enrolled=1, settled=1)

    def test_direct_execution_enrolls_and_settles_itself(self, settle_point):
        dep = build()
        dep.registry.get("t.opaque").analyzed.analyzable = False
        outcome = invoke(dep, Region.JP, "t.opaque", [LOW])
        assert outcome.path == "direct" and outcome.result == 1
        assert dirty(dep).stats() == stats(enrolled=1, settled=1)
        assert settle_point == [("lvi-server", first_eid(dep, Region.JP))]
        quiesce(dep)
        assert dirty(dep).balanced

    def test_unavailable_direct_execution_settles_at_the_shard(self, settle_point):
        dep = build()
        dep.registry.get("t.opaque").analyzed.analyzable = False
        drop(dep, LVIResponse)
        assert invoke(dep, Region.JP, "t.opaque", [LOW]) == "unavailable"
        assert dep.metrics.counter("path.direct") == 1
        # It ran (once: the retry got the cached reply) and settled.
        assert dep.store.get("counters", LOW).value == 1
        assert dirty(dep).stats() == stats(enrolled=1, settled=1)
        assert settle_point == [("lvi-server", first_eid(dep, Region.JP))]

    def test_cross_shard_commit_settles_every_shard(self):
        dep = build(shards=2)
        assert invoke(dep, Region.JP, "t.xfer", [LOW, HIGH]).path == "speculative"
        assert dep.metrics.counter("xshard.commit") == 1
        assert dirty(dep).stats() == stats(enrolled=2, settled=2)
        quiesce(dep)
        assert dirty(dep).balanced

    def test_cross_shard_abort_settles_then_the_restart_enrolls_afresh(self):
        dep = build(shards=2)
        assert invoke(dep, Region.JP, "t.bump", [HIGH]).result == 1
        quiesce(dep)
        assert dirty(dep).stats() == stats(enrolled=1, settled=1)
        # CA's cached HIGH is stale: shard 1 votes no, the attempt aborts
        # (each shard settles its slice), and the restart (2 fresh
        # entries) commits.
        outcome = invoke(dep, Region.CA, "t.xfer", [LOW, HIGH])
        assert outcome.path == "speculative" and outcome.result == 1
        assert dep.metrics.counter("xshard.prepare_abort") == 1
        assert dep.metrics.counter("xshard.restart") == 1
        quiesce(dep)
        assert dirty(dep).stats() == stats(enrolled=5, settled=5)

    def test_cross_shard_lost_decision_is_settled_by_the_lease(self):
        dep = build(shards=2)
        drop(dep, ShardDecision, dst="lvi-server-1")
        # The commit record landed at the coordinator, so the client is
        # answered; the participant held its slice until its lease learned
        # the decision from the coordinator.
        assert invoke(dep, Region.JP, "t.xfer", [LOW, HIGH]).path == "speculative"
        assert dep.metrics.counter("xshard.decision_lost") == 1
        assert dep.metrics.counter("xshard.lease_query") == 1
        assert dep.metrics.counter("xshard.applied") == 2
        assert dirty(dep).stats() == stats(enrolled=2, settled=2)

    def test_a_crash_keeps_only_a_pending_intents_entry(self, settle_point):
        dep = build()
        drop(dep, WriteFollowup)
        assert invoke(dep, Region.JP, "t.bump", [LOW]).path == "speculative"
        # A second writer dies mid-validation with the server.
        def second():
            try:
                return (yield from dep.runtimes[Region.CA].invoke("t.bump", [HIGH]))
            except UnavailableError:
                return "unavailable"

        dep.sim.spawn(second())
        while dirty(dep).depth(0) < 2:
            dep.sim.run(until=dep.sim.now + 0.5)
        dep.server.crash()
        # The dead validation's entry goes; the pending intent's stays ...
        assert dirty(dep).executions(0) == (first_eid(dep, Region.JP),)
        assert settle_point == [("lvi-server", first_eid(dep, Region.CA))]
        dep.server.restart()
        quiesce(dep)
        # ... until recovery re-executes the intent and settles it.
        assert dep.metrics.counter("recovery.intents") == 1
        assert ("lvi-server", first_eid(dep, Region.JP)) in settle_point
        assert dirty(dep).balanced


# -- (b) the dedup prologue ----------------------------------------------------

KEY = ("counters", "c:k")


class _Server:
    """One stand-alone LVI server with a seeded counter, driven by calling
    its handlers directly (no runtime, no network hop)."""

    def __init__(self, config=None, trace=False):
        self.sim = Simulator()
        if trace:
            self.sim.obs = TraceCollector(self.sim)
        streams = RandomStreams(5)
        self.net = Network(self.sim, paper_latency_table(), streams)
        self.metrics = Metrics()
        self.store = KVStore()
        self.store.put(*KEY, 0)
        registry = FunctionRegistry()
        registry.register(FunctionSpec("t.bump", BUMP_SRC, 20.0))
        self.server = LVIServer(
            self.sim, self.net, registry, self.store,
            config or RadicalConfig(service_jitter_sigma=0.0,
                                    followup_timeout_ms=60_000.0),
            streams, self.metrics,
        )

    def run(self, gen):
        return self.sim.run_process(gen)

    def add_replica(self) -> LVIServer:
        """A read replica in front of this server (sharing its store), and
        the conflict detector both probe."""
        replica = LVIServer(
            self.sim, self.net, self.server.registry, self.store, self.server.config,
            RandomStreams(5), self.metrics, name="lvi-server-r1",
            primary=self.server.name,
        )
        self.server.detector = replica.detector = ConflictDetector(metrics=self.metrics)
        return replica

    def call(self, client, dst, request):
        """``request`` sent from endpoint ``client`` through the network:
        its reply, or the exception the call raised."""
        if client not in self.net._endpoints:
            self.net.register(client, Region.JP)

        def caller():
            try:
                return (yield from self.net.call(client, dst, request, timeout=60_000.0))
            except (RpcTimeout, OverloadedError) as exc:
                return exc

        return self.run(caller())


def _lvi(eid):
    return LVIRequest(
        execution_id=eid, function_id="t.bump", args=("c:k",),
        read_keys=(KEY,), write_keys=(KEY,), versions={KEY: 1},
    )


def _prepare(eid):
    return ShardPrepare(
        execution_id=eid, function_id="t.bump", read_keys=(KEY,),
        write_keys=(KEY,), versions={KEY: 1}, writes=((*KEY, 1),),
        shard=0, coordinator="lvi-server",
    )


def _direct(eid):
    return DirectExecRequest(
        execution_id=eid, function_id="t.bump", args=("c:k",),
    )


def _settle_lvi(w, eid):
    assert w.run(w.server._handle_followup(WriteFollowup(eid, ((*KEY, 1),)))) == "applied"


def _settle_prepare(w, eid):
    decision = ShardDecision(eid, commit=True, record_decision=True)
    assert w.run(w.server._handle_decision(decision)) == "applied"


KINDS = {
    "lvi": ("_handle_lvi", _lvi),
    "prepare": ("_handle_prepare", _prepare),
    "direct": ("_handle_direct", _direct),
}
DURABLE = {"lvi": _settle_lvi, "prepare": _settle_prepare}


@pytest.mark.parametrize("kind", sorted(KINDS))
class TestDedupPrologue:
    def test_duplicate_while_in_flight_stays_silent(self, kind):
        handler, make = KINDS[kind]
        w = _Server()
        first = w.sim.spawn(getattr(w.server, handler)(make("e")))
        w.sim.run(until=0.5)          # past the prologue, mid-handler
        assert not first.done
        assert w.run(getattr(w.server, handler)(make("e"))) is NO_REPLY
        assert w.metrics.counter("lvi.duplicate_request") == 1
        # The original handler still owns the execution and answers.
        w.sim.run(until_event=first.done_event)
        assert first.result.execution_id == "e"
        assert w.store.get(*KEY).version == (2 if kind == "direct" else 1)

    def test_redelivery_after_the_reply_gets_the_same_object(self, kind):
        handler, make = KINDS[kind]
        w = _Server()
        first = w.run(getattr(w.server, handler)(make("e")))
        again = w.run(getattr(w.server, handler)(make("e")))
        assert again is first
        assert w.metrics.counter("lvi.replayed_reply") == 1
        assert w.metrics.counter("lvi.duplicate_request") == 0


@pytest.mark.parametrize("kind", sorted(DURABLE))
class TestDedupAcrossARestart:
    def test_pending_intent_silences_the_redelivery(self, kind):
        handler, make = KINDS[kind]
        w = _Server()
        assert w.run(getattr(w.server, handler)(make("e"))).ok
        w.server.crash()
        w.server.restart()
        # The reply cache died with the process; the durable intent proves
        # a prior incarnation validated this id.
        assert w.run(getattr(w.server, handler)(make("e"))) is NO_REPLY
        assert w.metrics.counter("lvi.replay_after_crash") == 1
        assert w.metrics.counter("lvi.settled_replay") == 0

    def test_settled_execution_silences_the_redelivery(self, kind):
        handler, make = KINDS[kind]
        w = _Server()
        assert w.run(getattr(w.server, handler)(make("e"))).ok
        DURABLE[kind](w, "e")
        w.server.crash()
        w.server.restart()
        # The intent is gone, but the durable claim remains: validating
        # afresh would mint a second intent and double-apply.
        assert w.run(getattr(w.server, handler)(make("e"))) is NO_REPLY
        assert w.metrics.counter("lvi.settled_replay") == 1
        assert w.metrics.counter("lvi.replay_after_crash") == 0
        assert w.store.get(*KEY).value == 1


def test_direct_redelivery_after_a_restart_hits_the_durable_claim():
    w = _Server()
    assert w.run(w.server._handle_direct(_direct("e"))).result == 1
    w.server.crash()
    w.server.restart()
    assert w.run(w.server._handle_direct(_direct("e"))) is NO_REPLY
    assert w.metrics.counter("lvi.duplicate_claim") == 1
    assert w.store.get(*KEY).value == 1  # executed exactly once


# -- (c) a declined request leaves no dedup state ------------------------------

class TestDeclinedRequestsLeaveNoTrace:
    def _assert_untouched(self, server):
        assert server._executions == {}
        assert not server.locks.held_owners()

    def _skipping(self, eid="e"):
        fact = KeyFact("counters", "exact", "c:k")
        return LVIRequest(
            execution_id=eid, function_id="t.bump", args=("c:k",),
            read_keys=(KEY,), write_keys=(), versions={KEY: 1},
            skip_locks=True, read_facts=(fact,),
        )

    def test_replica_bounces_a_locked_request(self):
        w = _Server()
        replica = w.add_replica()
        response = w.call("runtime-jp", replica.name, _lvi("e"))
        # The primary validated it (and holds its intent); the replica only
        # handed it over.
        assert response.ok and w.server.intents.get("e") is not None
        assert w.metrics.counter("router.replica_bounce") == 1
        self._assert_untouched(replica)

    def test_replica_bounces_a_lock_skipped_request_on_a_probe_hit(self):
        w = _Server()
        replica = w.add_replica()
        replica.detector.enroll(0, "writer", (KeyFact("counters", "exact", "c:k"),))
        response = w.call("runtime-jp", replica.name, self._skipping())
        assert response.ok
        assert w.metrics.counter("router.replica_bounce") == 1
        assert w.metrics.counter("router.lock_skipped") == 0
        self._assert_untouched(replica)

    def test_a_forward_is_filed_under_its_own_client(self):
        # Two runtimes' seqs interleave through one replica.  Filed under
        # the replica, the lower seqs would fall below the other runtime's
        # floor and be dropped as stale.
        w = _Server()
        replica = w.add_replica()
        for client, seq in (("rt-a", 5), ("rt-b", 1), ("rt-a", 6), ("rt-b", 2)):
            request = LVIRequest(
                execution_id=f"{client}:{seq}", function_id="t.bump", args=("c:k",),
                read_keys=(KEY,), write_keys=(), versions={KEY: 1}, seq=seq, floor=seq,
            )
            assert w.call(client, replica.name, request).ok
        assert w.metrics.counter("lvi.stale_request") == 0
        assert w.metrics.counter("router.replica_bounce") == 4
        assert {c: w.server._clients[c].floor for c in w.server._clients} == {
            "rt-a": 6, "rt-b": 2}
        assert sorted(w.server._executions) == ["rt-a:6", "rt-b:2"]

    def test_a_forward_to_a_crashed_primary_is_a_timeout(self):
        w = _Server()
        replica = w.add_replica()
        w.server.crash()
        # The forward's own timeout ends the replica's handler in silence,
        # not in a failure: its caller times out as on a dead replica.
        assert w.run(replica._handle_lvi(_lvi("e"), "runtime-jp")) is NO_REPLY
        assert isinstance(w.call("runtime-jp", replica.name, _lvi("e")), RpcTimeout)
        assert w.metrics.counter("router.replica_bounce") == 2
        self._assert_untouched(replica)

    def test_a_forward_the_primary_sheds_is_shed(self):
        w = _Server(config=RadicalConfig(
            service_jitter_sigma=0.0, server_proc_ms=5.0, admission_queue_depth=4,
            admission_sojourn_ms=50.0,
        ))
        replica = w.add_replica()
        w.server._proc_free_at = w.sim.now + 500.0  # the primary's backlog
        outcome = w.call("runtime-jp", replica.name, _lvi("e"))
        assert isinstance(outcome, OverloadedError) and outcome.retry_after_ms > 400.0
        assert w.metrics.counter("admission.shed") == 1
        self._assert_untouched(replica)
        self._assert_untouched(w.server)

    @pytest.mark.parametrize("make", [_lvi, _prepare, _direct])
    def test_admission_shed(self, make):
        w = _Server(config=RadicalConfig(
            service_jitter_sigma=0.0, server_proc_ms=5.0, admission_queue_depth=4,
            admission_sojourn_ms=50.0,
        ))
        w.server._proc_free_at = w.sim.now + 500.0  # CPU backlog >> sojourn
        with pytest.raises(OverloadedError):
            w.server._handle(make("e"), "runtime-jp")
        assert w.metrics.counter("admission.shed") == 1
        self._assert_untouched(w.server)

    def test_admission_shed_with_tracing_on(self):
        # Regression: the ``server.shed`` event passed ``kind=`` twice, so a
        # *traced* server raised TypeError instead of OverloadedError.
        w = _Server(trace=True, config=RadicalConfig(
            service_jitter_sigma=0.0, server_proc_ms=5.0, admission_queue_depth=4,
            admission_sojourn_ms=50.0,
        ))
        w.server._proc_free_at = w.sim.now + 500.0
        with pytest.raises(OverloadedError):
            w.server._handle(_lvi("e"), "runtime-jp")
        shed = [s for s in w.sim.obs.spans if s.name == "server.shed"]
        assert len(shed) == 1 and shed[0].attrs["request"] == "LVIRequest"
        self._assert_untouched(w.server)


# -- (d) the completion floor ----------------------------------------------------

FLOORED = (LVIRequest, ShardPrepare, ShardDecision, DirectExecRequest)


def record_calls(dep):
    """Wrap ``net.rpc`` to keep ``(src, payload)`` for every RPC, in send
    order (every copy of a call carries the same payload)."""
    sent = []
    rpc = dep.net.rpc

    def recording(src, dst, payload):
        sent.append((src, payload))
        return rpc(src, dst, payload)

    dep.net.rpc = recording
    return sent


def assert_floor_never_passed(dep, sent):
    """No message carries a seq below its own floor or below a floor its
    runtime had already sent, and no server ever saw a stale request."""
    highest = {}
    for src, msg in sent:
        if isinstance(msg, FLOORED):
            floor = max(msg.floor, highest.get(src, 0))
            assert msg.seq >= floor, (
                f"{type(msg).__name__} of {src}:{msg.seq} sent after floor {floor}"
            )
            highest[src] = floor
    assert dep.metrics.counter("lvi.stale_request") == 0


class TestDedupTablesHoldTheInFlight:
    def test_sequential_invocations_leave_one_entry(self):
        dep = build()
        runtime = dep.runtimes[Region.JP]

        def driver():
            for _ in range(500):
                yield from runtime.invoke("t.bump", [LOW])

        dep.sim.run_process(driver())
        quiesce(dep)
        server = dep.server
        assert dep.store.get("counters", LOW).value == 500
        # Nothing is in flight; the last reply stays until a higher floor
        # arrives (it was 500 + 500 when nothing was ever dropped).
        assert len(server._executions) <= 1

    def test_a_request_below_the_floor_is_inert(self):
        dep = build()
        runtime, server = dep.runtimes[Region.JP], dep.server
        sent = record_calls(dep)
        assert invoke(dep, Region.JP, "t.read", [LOW]).path == "speculative"
        assert invoke(dep, Region.JP, "t.bump", [HIGH]).path == "speculative"
        quiesce(dep)
        first = sent[0][1]
        assert isinstance(first, LVIRequest) and first.seq == 0
        released = dep.metrics.counter("locks.released")
        # Redelivered after the runtime's floor passed it: silence, and no
        # lock, intent or claim.
        reply = dep.sim.run_process(server._handle(first, runtime.name))
        assert reply is NO_REPLY
        assert dep.metrics.counter("lvi.stale_request") == 1
        assert dep.metrics.counter("lvi.replayed_reply") == 0
        assert dep.metrics.counter("locks.released") == released
        assert not server.locks.held_owners()
        assert server.intents.get(first.execution_id) is None
        assert not server.idem.claimed(first.execution_id, IdempotencyTable.NEAR_STORAGE)

    def test_a_crash_forgets_the_floors_and_the_durable_checks_answer(self):
        dep = build()
        runtime, server = dep.runtimes[Region.JP], dep.server
        sent = record_calls(dep)
        assert invoke(dep, Region.JP, "t.bump", [LOW]).path == "speculative"
        assert invoke(dep, Region.JP, "t.bump", [LOW]).path == "speculative"
        quiesce(dep)
        assert {name: c.floor for name, c in server._clients.items()} == {runtime.name: 1}
        server.crash()
        assert server._clients == {} and server._executions == {}
        server.restart()
        quiesce(dep)
        # The first bump is below the floor the crash forgot; its settled
        # claim keeps the redelivery silent, exactly as without floors.
        first = sent[0][1]
        assert isinstance(first, LVIRequest) and first.seq == 0
        assert dep.sim.run_process(server._handle(first, runtime.name)) is NO_REPLY
        assert dep.metrics.counter("lvi.stale_request") == 0
        assert dep.metrics.counter("lvi.settled_replay") == 1
        assert dep.store.get("counters", LOW).value == 2


class TestTheFloorNeverPassesAnExecutionThatCanStillSend:
    def test_an_invocation_waiting_at_the_limiter(self):
        # A runs alone; B queues at the limiter; the window then lets C
        # past B (AIMD growth admits a newcomer without waking the queue)
        # and shrinks again, so A's release leaves B waiting.  C sends
        # after A has finished: its floor must stay at B's seq.
        dry = build(limiter_max_inflight=2)
        latency = invoke(dry, Region.JP, "t.read", [LOW]).latency_ms

        dep = build(limiter_max_inflight=2)
        runtime = dep.runtimes[Region.JP]
        limiter = runtime._limiter
        sent = record_calls(dep)
        outcomes = {}

        def client(label, fn, key):
            outcomes[label] = yield from runtime.invoke(fn, [key])

        def scenario():
            limiter._window = 1.0
            dep.sim.spawn(client("A", "t.read", LOW))
            yield dep.sim.timeout(1.0)
            dep.sim.spawn(client("B", "t.bump", HIGH))
            yield dep.sim.timeout(latency - 3.0)
            assert limiter._waiters and "A" not in outcomes
            limiter._window = 2.0
            dep.sim.spawn(client("C", "t.read", LOW))
            yield dep.sim.timeout(0.5)
            limiter._window = 1.0

        dep.sim.spawn(scenario())
        quiesce(dep)
        assert sorted(outcomes) == ["A", "B", "C"]
        assert outcomes["B"].result == 1
        # A, then C, then B: C was built after A finished, with B open.
        floors = [(msg.seq, msg.floor) for _src, msg in sent if isinstance(msg, FLOORED)]
        assert floors == [(0, 0), (2, 1), (1, 1)]
        assert_floor_never_passed(dep, sent)

    def test_a_detached_abort_fan_out_outlives_invoke(self):
        dep = build(shards=2, cross_shard_max_restarts=0)
        assert invoke(dep, Region.JP, "t.bump", [HIGH]).result == 1
        quiesce(dep)
        sent = record_calls(dep)
        # CA's cached HIGH is stale: shard 1 votes no, and with no restart
        # allowed invoke returns while its abort fan-out is still on the
        # wire; the next invocations must not pass it.
        assert invoke(dep, Region.CA, "t.xfer", [LOW, HIGH]) == "unavailable"
        assert dep.metrics.counter("xshard.aborted") == 0
        for _ in range(3):
            assert invoke(dep, Region.CA, "t.read", [LOW]).path == "speculative"
        quiesce(dep)
        assert dep.metrics.counter("xshard.aborted") == 2
        assert sum(isinstance(msg, ShardDecision) for _src, msg in sent) == 2
        assert_floor_never_passed(dep, sent)
        for server in dep.servers:
            assert not server.locks.held_owners()

    def test_a_pop_crash_mid_invocation(self):
        dep = build_counter_deployment(mesh=MeshSpec(gossip_interval_ms=50.0))
        runtime, pop = dep.runtimes[Region.JP], dep.mesh.pop(Region.JP)
        sent = record_calls(dep)
        outcomes = []

        def client():
            for _ in range(6):
                try:
                    outcomes.append((yield from runtime.invoke("t.bump", ["x"])).path)
                except UnavailableError:
                    outcomes.append("unavailable")
                    yield dep.sim.timeout(100.0)

        def crash_midway():
            yield dep.sim.timeout(30.0)  # every client's first request is in flight
            pop.crash()
            yield dep.sim.timeout(400.0)
            pop.restart()

        for _ in range(3):
            dep.sim.spawn(client())
        dep.sim.spawn(crash_midway())
        quiesce(dep)
        # The three invocations caught by the crash still finish; the ones
        # refused while the PoP is down send nothing; later ones run.
        assert outcomes[:3] != ["unavailable"] * 3 and "unavailable" in outcomes
        assert outcomes[-3:] != ["unavailable"] * 3
        assert len(sent) > 3
        assert_floor_never_passed(dep, sent)
        assert runtime._open == {}
        assert dep.store.get("counters", "c:x").value == len(outcomes) - outcomes.count("unavailable")
