"""The request pipeline's contracts that no other tier-1 test names.

* the *dirty-set fate table*: which path settles, leaks, or hands off the
  entry a writer enrolled in the router's dirty set — one row per way an
  invocation can end;
* the server's *dedup prologue*, identical for every request-bearing
  message: in-flight duplicate, replayed reply, and redelivery to a
  restarted server before and after the execution settled;
* the two ways a server declines a request — a replica's bounce and an
  admission shed — leave no dedup state behind.
"""

import pytest

from repro.analysis import KeyFact
from repro.core import (
    DirectExecRequest,
    FunctionRegistry,
    FunctionSpec,
    LVIRequest,
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
    Simulator,
    paper_latency_table,
)
from repro.storage import KVStore
from repro.topology import ConflictDetector, Deployment, RangeShardMap, TopologySpec

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

# Under RangeShardMap([("counters", "c:m")]): LOW -> shard 0, HIGH -> shard 1.
LOW, HIGH = "c:a", "c:z"


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


def build(shards=1):
    return Deployment.build(
        TopologySpec(
            regions=(Region.JP, Region.CA),
            shards=shards,
            seed=1,
            config=detecting_config(),
            network_jitter_sigma=0.0,
            warm_caches=True,
            persistent_caches=False,
            raft_prewarm_ms=0.0,
            shard_map=RangeShardMap([("counters", "c:m")]) if shards == 2 else None,
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


def stats(enrolled=0, settled=0, leaked=0, depth=0):
    return {"enrolled": enrolled, "settled": settled, "leaked": leaked, "depth": depth}


def drop(dep, kind, dst=None):
    dep.net.add_drop_filter(
        lambda _src, to, payload: isinstance(payload, kind) and dst in (None, to)
    )


# -- (a) the dirty-set fate table ---------------------------------------------

class TestDirtySetFateTable:
    """After each way an invocation can end, the dirty set holds exactly
    what the outcome's fate dictates — and balances at quiescence."""

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
        # The client is answered; the followup is still in flight, and so
        # is the entry — a reader probing now must still see the writer.
        assert dirty(dep).stats() == stats(enrolled=1, depth=1)
        quiesce(dep)
        assert dep.metrics.counter("followup.applied") == 1
        assert dirty(dep).stats() == stats(enrolled=1, settled=1)
        assert dirty(dep).balanced

    def test_lost_followup_leaks_the_entry(self):
        dep = build()
        drop(dep, WriteFollowup)
        assert invoke(dep, Region.JP, "t.bump", [LOW]).path == "speculative"
        quiesce(dep)
        # Every followup attempt died; the intent timer applied the write at
        # a time the runtime cannot know, so the entry stays forever.
        assert dep.metrics.counter("followup.lost") == 1
        assert dep.metrics.counter("reexecution.count") == 1
        assert dirty(dep).stats() == stats(enrolled=1, leaked=1, depth=1)
        assert dirty(dep).balanced

    def test_unavailable_lvi_call_leaks_the_entry(self):
        dep = build()
        drop(dep, LVIRequest)
        assert invoke(dep, Region.JP, "t.bump", [LOW]) == "unavailable"
        assert dirty(dep).stats() == stats(enrolled=1, leaked=1, depth=1)
        quiesce(dep)
        assert dirty(dep).balanced

    def test_direct_execution_enrolls_and_settles_itself(self):
        dep = build()
        dep.registry.get("t.opaque").analyzed.analyzable = False
        outcome = invoke(dep, Region.JP, "t.opaque", [LOW])
        assert outcome.path == "direct" and outcome.result == 1
        assert dirty(dep).stats() == stats(enrolled=1, settled=1)
        quiesce(dep)
        assert dirty(dep).balanced

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
        # (2 entries settle), and the restart (2 fresh entries) commits.
        outcome = invoke(dep, Region.CA, "t.xfer", [LOW, HIGH])
        assert outcome.path == "speculative" and outcome.result == 1
        assert dep.metrics.counter("xshard.prepare_abort") == 1
        assert dep.metrics.counter("xshard.restart") == 1
        assert dirty(dep).stats() == stats(enrolled=5, settled=5)
        quiesce(dep)
        assert dirty(dep).balanced

    def test_cross_shard_lost_decision_ack_leaks_every_shard(self):
        dep = build(shards=2)
        drop(dep, ShardDecision, dst="lvi-server-1")
        # The commit record landed at the coordinator, so the client is
        # answered; the participant applies via its lease, unknowably later.
        assert invoke(dep, Region.JP, "t.xfer", [LOW, HIGH]).path == "speculative"
        assert dep.metrics.counter("xshard.decision_lost") == 1
        assert dirty(dep).stats() == stats(enrolled=2, leaked=2, depth=2)
        quiesce(dep)
        assert dep.metrics.counter("xshard.applied") == 2
        assert dirty(dep).balanced


# -- (b) the dedup prologue ----------------------------------------------------

KEY = ("counters", "c:k")


class _Server:
    """One stand-alone LVI server with a seeded counter, driven by calling
    its handlers directly (no runtime, no network hop)."""

    def __init__(self, config=None, replica=False, trace=False):
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
            streams, self.metrics, replica=replica,
        )

    def run(self, gen):
        return self.sim.run_process(gen)


def _lvi(eid):
    return LVIRequest(
        execution_id=eid, function_id="t.bump", args=("c:k",),
        read_keys=(KEY,), write_keys=(KEY,), versions={KEY: 1},
        origin_region=Region.JP,
    )


def _prepare(eid):
    return ShardPrepare(
        execution_id=eid, function_id="t.bump", read_keys=(KEY,),
        write_keys=(KEY,), versions={KEY: 1}, writes=((*KEY, 1),),
        origin_region=Region.JP, shard=0, coordinator="lvi-server", nshards=2,
    )


def _direct(eid):
    return DirectExecRequest(
        execution_id=eid, function_id="t.bump", args=("c:k",),
        origin_region=Region.JP,
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
        assert server._seen_requests == set()
        assert server._reply_cache == {}
        assert not server.locks.held_owners()

    def _skipping(self, eid="e"):
        fact = KeyFact("counters", "exact", "c:k")
        return LVIRequest(
            execution_id=eid, function_id="t.bump", args=("c:k",),
            read_keys=(KEY,), write_keys=(), versions={KEY: 1},
            origin_region=Region.JP, skip_locks=True, read_facts=(fact,),
        )

    def test_replica_bounces_a_locked_request(self):
        w = _Server(replica=True)
        response = w.run(w.server._handle_lvi(_lvi("e")))
        assert response.bounced and not response.ok
        assert w.metrics.counter("router.replica_bounce") == 1
        self._assert_untouched(w.server)

    def test_replica_bounces_a_lock_skipped_request_on_a_probe_hit(self):
        w = _Server(replica=True)
        w.server.detector = ConflictDetector(metrics=w.metrics)
        w.server.detector.enroll([0], "writer", (KeyFact("counters", "exact", "c:k"),))
        response = w.run(w.server._handle_lvi(self._skipping()))
        assert response.bounced and not response.ok
        assert w.metrics.counter("router.replica_bounce") == 1
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
