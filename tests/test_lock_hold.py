"""A lock is held for the data dependency, never for a wait.

Two places in the LVI server follow the rule.  A backup execution predicted
to write nothing runs *on the validation fetch* and drops its read locks
before its service time is charged; a pending intent that somebody queues
behind settles by deterministic re-execution at once instead of after the
followup's WAN round trip.  Every test drives one hand-built server with
messages handed to ``LVIServer._handle`` (the network's entry point) at
chosen instants, so the timelines below are exact: storage round trip 2 ms,
``t.bump`` 20 ms, every read-only function 40 ms, no jitter.
"""

import pytest

from repro.core import FunctionSpec, RadicalConfig
from repro.core.messages import DirectExecRequest, LVIRequest, WriteFollowup
from repro.sim import Region, Simulator
from repro.storage import LockManager
from repro.topology import Deployment, TopologySpec

from conftest import COUNTER_SRC, READ_SRC

KEY = ("counters", "c:x")
OTHER = ("counters", "c:y")
PTR = ("ptrs", "p:k")

FOLLOW_SRC = '''
def follow(k):
    busy(2000)
    target = db_get("ptrs", f"p:{k}")
    return db_get("counters", f"c:{target}")
'''

DRAIN_SRC = '''
def drain(k):
    busy(2000)
    count = db_get("counters", f"c:{k}")
    if count > 0:
        db_put("counters", f"c:{k}", 0)
    return count
'''


def build(trace=False):
    def seed(store):
        store.put(*KEY, 0)
        store.put(*OTHER, 7)
        store.put(*PTR, "x")

    return Deployment.build(
        TopologySpec(
            regions=(Region.JP, Region.CA), seed=1, trace=trace,
            config=RadicalConfig(service_jitter_sigma=0.0, followup_timeout_ms=5_000.0),
            network_jitter_sigma=0.0, warm_caches=True, persistent_caches=False,
            raft_prewarm_ms=0.0,
        ),
        functions=[
            FunctionSpec("t.bump", COUNTER_SRC, 20.0),
            FunctionSpec("t.read", READ_SRC, 40.0),
            FunctionSpec("t.follow", FOLLOW_SRC, 40.0),
            FunctionSpec("t.drain", DRAIN_SRC, 40.0),
        ],
        seed_data=seed,
    )


def lvi(eid, function_id, reads, writes=(), versions=None, args=("x",)):
    return LVIRequest(
        execution_id=eid, function_id=function_id, args=args,
        read_keys=tuple(reads), write_keys=tuple(writes),
        versions=versions if versions is not None else {k: 1 for k in reads},
        origin_region=Region.JP,
    )


def bump(eid, version=1):
    return lvi(eid, "t.bump", (KEY,), (KEY,), {KEY: version})


def read(eid, version=1):
    return lvi(eid, "t.read", (KEY,), (), {KEY: version})


def followup(eid, value=1):
    return WriteFollowup(eid, ((KEY[0], KEY[1], value),))


def arrive(dep, at, payload, ctx=None):
    """Deliver ``payload`` to the server at virtual time ``at``; the
    returned dict gains ``reply`` and the instant ``at`` it was sent."""
    out = {}

    def flow():
        if at > dep.sim.now:
            yield dep.sim.timeout(at - dep.sim.now)
        out["reply"] = yield from dep.server._handle(payload, "test")
        out["at"] = dep.sim.now

    prev = dep.sim.obs.activate(ctx)
    dep.sim.spawn(flow(), name=f"arrive({at})")
    dep.sim.obs.activate(prev)
    return out


def stored(dep, key=KEY):
    item = dep.store.get_or_none(*key)
    return item.value, item.version


class TestValidationFetchIsTheSnapshot:
    def test_writer_is_granted_at_the_readers_validation_instant(self):
        dep = build()
        # Both arrive with a stale cached version, so both run near storage.
        r = arrive(dep, 0.0, read("r", version=0))
        w = arrive(dep, 1.0, bump("w", version=0))
        dep.sim.run(until=1_000.0)
        # Reader: locks at 0, validation fetch at 2 — that is the snapshot,
        # and the instant its read lock goes.  Writer: granted at 2 (not at
        # 42), validates at 4, writes when its 20 ms computation ends.
        assert w["at"] == pytest.approx(24.0)
        assert w["reply"].result == 1
        assert w["reply"].backup_write_versions == {KEY: 2}
        assert dep.metrics.samples_tagged("lock.wait", server=dep.server.name) == [
            pytest.approx(0.0), pytest.approx(1.0)
        ]
        # The reader's answer still takes its service time, and is the
        # state of the validation instant — not the writer's, which landed
        # eighteen milliseconds before the reply left.
        assert r["at"] == pytest.approx(42.0)
        assert not r["reply"].ok
        assert r["reply"].result == 0
        assert r["reply"].backup_read_versions == {KEY: 1}
        assert r["reply"].backup_write_versions == {}
        fresh = r["reply"].fresh[KEY]
        assert (fresh.value, fresh.version) == (0, 1)
        assert stored(dep) == (1, 2)
        assert dep.metrics.counter("backup.snapshot") == 1
        assert dep.metrics.counter("backup.escaped") == 0
        assert dep.server.locks.held_owners() == []

    def test_dependent_read_escapes_and_takes_the_locked_path(self):
        dep = build()
        # The cache said p:k -> "x"; the store has moved on to "y", so the
        # fresh execution reads c:y, which the request never locked.
        dep.store.put(*PTR, "y")
        f = arrive(dep, 0.0, lvi("f", "t.follow", (PTR, KEY), args=("k",)))
        held_mid_service = []
        dep.sim.schedule(
            20.0, lambda: held_mid_service.extend(dep.server.locks.held_by("f"))
        )
        dep.sim.run(until=1_000.0)
        assert dep.metrics.counter("backup.escaped") == 1
        assert dep.metrics.counter("backup.snapshot") == 0
        # Exactly the parent tree's reply: executed after the service time,
        # under the locks, on whatever the store held then.
        assert f["at"] == pytest.approx(42.0)
        assert (PTR, "read") in held_mid_service and (KEY, "read") in held_mid_service
        assert f["reply"].result == 7
        assert f["reply"].backup_read_versions == {PTR: 2, OTHER: 1}
        assert set(f["reply"].fresh) == {PTR}
        assert f["reply"].fresh[PTR].value == "y"
        assert dep.server.locks.held_owners() == []

    def test_writing_branch_on_fresh_data_escapes(self):
        dep = build()
        # The cache said c:x == 0, so f^rw predicted no write; the store
        # says 3 and the fresh execution takes the writing branch.
        dep.store.put(*KEY, 3)
        d = arrive(dep, 0.0, lvi("d", "t.drain", (KEY,)))
        w = arrive(dep, 1.0, bump("w", version=0))
        dep.sim.run(until=1_000.0)
        assert dep.metrics.counter("backup.escaped") == 1
        assert d["at"] == pytest.approx(42.0)
        assert d["reply"].result == 3
        assert d["reply"].backup_write_versions == {KEY: 3}
        assert d["reply"].fresh[KEY].value == 0
        # The trial wrote nothing, and the locks covered the service time:
        # the writer behind it was granted at 42 and saw the drained value.
        assert w["at"] == pytest.approx(64.0)
        assert w["reply"].result == 1
        assert stored(dep) == (1, 4)


class TestIntentTimerFiresOnDemand:
    def test_waiter_starts_the_reexecution_at_its_enqueue_instant(self):
        dep = build()
        w = arrive(dep, 0.0, bump("w"))
        r = arrive(dep, 100.0, read("r"))
        late = arrive(dep, 200.0, followup("w"))
        dep.sim.run(until=50.0)
        assert w["at"] == pytest.approx(4.0) and w["reply"].ok
        assert w["reply"].new_versions == {KEY: 2}
        # Re-execution runs 100 -> 122 (20 ms + the conditional apply).
        dep.sim.run(until=121.5)
        assert stored(dep) == (0, 1)
        dep.sim.run(until=122.5)
        assert stored(dep) == (1, 2)
        # Past the followup timeout: the backstop timer finds nothing to do.
        dep.sim.run(until=10_000.0)
        assert late["reply"] == "discarded"
        # The reader got the lock at 122 and saw the promised version.
        assert r["at"] == pytest.approx(164.0)
        assert r["reply"].result == 1
        assert r["reply"].backup_read_versions == {KEY: 2}
        assert stored(dep) == (1, 2)
        assert dep.metrics.counter("intent.expedited") == 1
        assert dep.metrics.counter("reexecution.count") == 1
        assert dep.metrics.counter("followup.discarded") == 1
        assert dep.server.locks.held_owners() == []
        assert dep.pending_intents() == []
        assert dep.server._pending_exec == {}

    def test_followup_landing_during_the_reexecution_applies_once(self):
        dep = build(trace=True)
        arrive(dep, 0.0, bump("w"))
        r = arrive(dep, 100.0, read("r"))
        f = arrive(dep, 105.0, followup("w"))
        dep.sim.run(until=10_000.0)
        # The followup wins the intent CAS at 107; the re-execution wakes
        # at 122, loses it, and applies nothing.
        assert f["reply"] == "applied" and f["at"] == pytest.approx(107.0)
        assert r["at"] == pytest.approx(107.0 + 2.0 + 40.0)
        assert stored(dep) == (1, 2)
        assert dep.metrics.counter("intent.expedited") == 1
        assert dep.metrics.counter("reexecution.count") == 0
        assert dep.metrics.counter("followup.applied") == 1
        (reexec,) = [s for s in dep.sim.obs.spans if s.name == "server.reexec"]
        assert reexec.attrs["status"] == "lost_race"
        assert (reexec.start_ms, reexec.end_ms) == (pytest.approx(100.0), pytest.approx(122.0))
        assert dep.server.locks.held_owners() == []
        assert dep.pending_intents() == []

    def test_waiter_arriving_during_the_intent_write_is_caught(self):
        dep = build()
        w = arrive(dep, 0.0, bump("w"))
        # Validation ends at 2, the intent is durable at 4: at 3 there is
        # no intent to fire yet.
        arrive(dep, 3.0, read("r"))
        dep.sim.run(until=3.5)
        assert dep.metrics.counter("intent.expedited") == 0
        dep.sim.run(until=25.5)
        assert w["at"] == pytest.approx(4.0) and w["reply"].ok
        assert dep.metrics.counter("intent.expedited") == 1
        assert stored(dep) == (0, 1)
        dep.sim.run(until=26.5)
        assert stored(dep) == (1, 2)
        assert dep.metrics.counter("reexecution.count") == 1

    def test_no_waiter_no_expedite(self):
        dep = build()
        rt = dep.runtimes[Region.JP]
        proc = dep.sim.spawn(rt.invoke("t.bump", ["x"]))
        dep.sim.run(until=2_000.0)
        assert proc.result.path == "speculative"
        assert stored(dep) == (1, 2)
        assert dep.metrics.counter("followup.applied") == 1
        assert dep.metrics.counter("intent.expedited") == 0
        assert dep.metrics.counter("reexecution.count") == 0

    def test_waiter_on_the_direct_barrier_alone_expedites_nothing(self):
        dep = build()
        arrive(dep, 0.0, bump("w"))
        direct = arrive(dep, 100.0, DirectExecRequest(
            execution_id="dir", function_id="t.bump", args=("x",),
            origin_region=Region.JP,
        ))
        dep.sim.run(until=1_000.0)
        assert "reply" not in direct  # held behind the pending intent
        assert dep.metrics.counter("intent.expedited") == 0
        arrive(dep, 1_000.0, followup("w"))
        dep.sim.run(until=2_000.0)
        assert direct["reply"].backup_write_versions == {KEY: 3}
        assert stored(dep) == (2, 3)
        assert dep.metrics.counter("intent.expedited") == 0
        assert dep.metrics.counter("reexecution.count") == 0

    def test_crash_between_expedite_and_settle_applies_once(self):
        dep = build()
        server = dep.server
        arrive(dep, 0.0, bump("w"))
        arrive(dep, 100.0, read("r"))
        dep.sim.run(until=110.0)
        assert dep.metrics.counter("intent.expedited") == 1
        server.crash()  # the re-execution dies mid service time
        assert server._pending_exec == {}
        dep.sim.run(until=150.0)
        assert stored(dep) == (0, 1)
        server.restart()
        dep.sim.run(until=1_000.0)
        assert stored(dep) == (1, 2)
        assert dep.metrics.counter("reexecution.count") == 1
        late = arrive(dep, 1_000.0, followup("w"))
        dep.sim.run(until=2_000.0)
        assert late["reply"] == "discarded"
        assert stored(dep) == (1, 2)
        assert dep.pending_intents() == []
        assert server.locks.held_owners() == []
        # The lock table that crash() installed reports contention too.
        arrive(dep, 2_000.0, bump("w2", version=2))
        arrive(dep, 2_100.0, read("r2", version=2))
        dep.sim.run(until=10_000.0)
        assert dep.metrics.counter("intent.expedited") == 2
        assert stored(dep) == (2, 3)
        assert server.locks.held_owners() == []

    def test_contention_reexec_span_joins_the_intents_trace(self):
        dep = build(trace=True)
        obs = dep.sim.obs
        root_w = obs.start("invocation", kind="invocation", new_trace=True)
        root_r = obs.start("invocation", kind="invocation", new_trace=True)
        arrive(dep, 0.0, bump("w"), ctx=root_w.context)
        arrive(dep, 100.0, read("r"), ctx=root_r.context)
        dep.sim.run(until=1_000.0)
        (reexec,) = [s for s in obs.spans if s.name == "server.reexec"]
        # Spawned from inside the reader's lock acquisition, attributed to
        # the writer whose intent it settles.
        assert reexec.trace_id == root_w.trace_id != root_r.trace_id
        assert reexec.attrs["trigger"] == "contention"
        assert reexec.attrs["recovered"] is False
        (wait,) = [s for s in obs.spans if s.name == "lock.wait"]
        assert wait.trace_id == root_r.trace_id
        assert wait.attrs["holder"] == "w"
        assert (wait.start_ms, wait.end_ms) == (pytest.approx(100.0), pytest.approx(122.0))


class TestLockManagerReportsContention:
    def test_enqueue_reports_sorted_holders_once_per_contended_key(self):
        sim = Simulator()
        seen = []
        locks = LockManager(sim, on_contention=lambda key, holders: seen.append((key, holders)))
        for owner in ("r-b", "r-c", "r-a"):
            sim.spawn(locks.acquire_all(owner, [KEY], []))
        sim.run()
        assert seen == []  # shared readers never queue
        sim.spawn(locks.acquire_all("w", [], [KEY, OTHER]))
        sim.run()
        assert seen == [(KEY, ["r-a", "r-b", "r-c"])]
        assert locks.contended_keys("r-a") == [KEY]
        assert locks.contended_keys("w") == []  # queued, holds nothing yet
        for owner in ("r-a", "r-b", "r-c"):
            locks.release_all(owner)
        sim.run()
        assert locks.holders_of(KEY) == ["w"] and locks.contended_keys("w") == []
        sim.spawn(locks.acquire_all("late", [OTHER], []))
        sim.run()
        assert seen[-1] == (OTHER, ["w"])
        assert locks.contended_keys("w") == [OTHER]
