"""In-network conflict detection: predicates, dirty set, router, sanitizer.

Covers the precision-upgraded static analysis (argument-sensitive key
constraints, the read-only/commutative classifier) and its consumer — the
shard router's dirty-set fast path — end to end:

* KeyFact overlap semantics and predicate instantiation;
* classifier verdicts on synthetic sources (interval keys via the
  ``int(x) % c`` idiom, commutative increments, static keys);
* DirtySet lifecycle: enroll/settle balance, including across a server
  crash/restart chaos case, and two planted lifecycle mutants (settle too
  early, never enroll) that a lock-free reader must expose;
* zero-cost metrics convention on the detector;
* the runtime sanitizer hard-failing a *planted unsound summary* — a
  lock-skipped request whose static constraints are narrower than what
  the function actually touches must raise, never answer.
"""

import pytest

from repro.analysis import KeyFact
from repro.core import FunctionRegistry, FunctionSpec, LVIServer, RadicalConfig
from repro.core.messages import LVIRequest
from repro.errors import ProtocolError
from repro.sim import (
    Metrics,
    Network,
    RandomStreams,
    Region,
    Simulator,
    paper_latency_table,
)
from repro.sim.core import SimulationError
from repro.storage import KVStore
from repro.topology import ConflictDetector, Deployment, DirtySet, TopologySpec


INTERVAL_SRC = '''
def route(uid):
    b = int(uid) % 8
    return db_get("buckets", f"b:{b}")
'''

BUMP_SRC = '''
def bump(k):
    n = db_get("counters", k)
    if n is None:
        n = 0
    db_put("counters", k, n + 1)
    return n + 1
'''

BANNER_SRC = '''
def banner():
    return db_get("site", "banner")
'''

# Reads two keys, but the planted summary below only admits to one.
PAIR_SRC = '''
def pair(k):
    a = db_get("t", f"a:{k}")
    b = db_get("t", f"b:{k}")
    return (a or 0) + (b or 0)
'''


def _summary(source, name="t.fn"):
    record = FunctionRegistry().register(FunctionSpec(name, source, 10.0))
    assert record.analyzed.analyzable
    return record.analyzed.summary


# -- KeyFact overlap semantics ------------------------------------------------

class TestKeyFactOverlap:
    def test_exact_vs_exact(self):
        a = KeyFact("t", "exact", "k:1")
        assert a.overlaps(KeyFact("t", "exact", "k:1"))
        assert not a.overlaps(KeyFact("t", "exact", "k:2"))
        assert not a.overlaps(KeyFact("u", "exact", "k:1"))

    def test_prefix_vs_exact(self):
        p = KeyFact("t", "prefix", "user:")
        assert p.overlaps(KeyFact("t", "exact", "user:9"))
        assert not p.overlaps(KeyFact("t", "exact", "item:9"))

    def test_interval_vs_exact(self):
        span = KeyFact("t", "interval", "b:", lo=0, hi=7)
        assert span.overlaps(KeyFact("t", "exact", "b:5"))
        assert not span.overlaps(KeyFact("t", "exact", "b:8"))
        assert not span.overlaps(KeyFact("t", "exact", "c:5"))

    def test_interval_vs_interval(self):
        a = KeyFact("t", "interval", "b:", lo=0, hi=3)
        assert a.overlaps(KeyFact("t", "interval", "b:", lo=3, hi=9))
        assert not a.overlaps(KeyFact("t", "interval", "b:", lo=4, hi=9))

    def test_any_overlaps_everything(self):
        top = KeyFact(None, "any")
        assert top.overlaps(KeyFact("t", "exact", "k:1"))
        assert KeyFact("t", "exact", "k:1").overlaps(top)

    def test_unknown_table_is_conservative(self):
        assert KeyFact(None, "exact", "k:1").overlaps(KeyFact("t", "exact", "k:1"))


# -- classifier + predicate instantiation ------------------------------------

class TestClassifier:
    def test_modulo_key_becomes_interval_constraint(self):
        summary = _summary(INTERVAL_SRC)
        assert summary.read_only
        assert summary.lock_skippable
        assert summary.predicate.kind_counts()["interval"] == 1
        facts = summary.predicate.instantiate(["17"])
        (fact,) = facts.reads
        assert (fact.table, fact.kind, fact.key, fact.lo, fact.hi) == (
            "buckets", "interval", "b:", 0, 7)
        assert fact.covers("buckets", "b:1")
        assert not fact.covers("buckets", "b:9")

    def test_argument_bound_constraint_instantiates_exact(self):
        summary = _summary(BUMP_SRC)
        facts = summary.predicate.instantiate(["c:7"])
        assert all(f.kind == "exact" and f.key == "c:7"
                   for f in facts.reads + facts.writes)
        assert facts.precise
        assert facts.covers_writes([("counters", "c:7")])
        assert not facts.covers_writes([("counters", "c:8")])

    def test_increment_write_is_commutative_not_skippable(self):
        summary = _summary(BUMP_SRC)
        assert summary.commutative_writes
        assert not summary.read_only
        assert not summary.lock_skippable

    def test_increment_between_two_opaque_keys_is_not_commutative(self):
        # Read a[0], write a[1]: both keys are opaque, so they may differ,
        # and the write is not an increment of its own key.
        summary = _summary(
            "def bump2(a):\n"
            "    v = db_get(\"t\", a[0])\n"
            "    if v is None:\n"
            "        v = 0\n"
            "    db_put(\"t\", a[1], v + 1)\n"
            "    return v\n"
        )
        assert not summary.commutative_writes

    def test_constant_key_reports_static_key(self):
        summary = _summary(BANNER_SRC)
        assert summary.static_key == ("site", "banner")
        assert summary.lock_skippable
        assert summary.predicate.kind_counts()["const"] == 1

    def test_instantiated_requests_conflict_only_on_same_key(self):
        predicate = _summary(BUMP_SRC).predicate
        a, b, c = (predicate.instantiate([k]) for k in ("c:1", "c:1", "c:2"))
        assert a.conflicts_with(b)
        assert not a.conflicts_with(c)


# -- DirtySet lifecycle -------------------------------------------------------

class TestDirtySet:
    def test_enroll_probe_settle(self):
        ds = DirtySet()
        ds.enroll(0, "e1", (KeyFact("t", "exact", "k:1"),))
        assert ds.probe(0, (KeyFact("t", "exact", "k:1"),))
        assert not ds.probe(0, (KeyFact("t", "exact", "k:2"),))
        assert not ds.probe(1, (KeyFact("t", "exact", "k:1"),))  # other shard
        assert ds.settle("e1") == 1
        assert not ds.probe(0, (KeyFact("t", "exact", "k:1"),))
        assert ds.balanced

    def test_multi_shard_writer_settles_every_entry(self):
        ds = DirtySet()
        for shard in (0, 1):
            ds.enroll(shard, "e1", (KeyFact("t", "any"),))
        assert ds.enrolled_total == 2
        assert ds.settle("e1") == 2
        assert ds.balanced

    def test_shard_settle_drops_only_that_shards_entry(self):
        # A cross-shard writer's shards each settle their own slice.
        ds = DirtySet()
        fact = (KeyFact("t", "exact", "k:1"),)
        for shard in (0, 1):
            ds.enroll(shard, "e1", fact)
        assert ds.executions(0) == ("e1",) and ds.depth(1) == 1
        assert ds.settle("e1", 0) == 1
        assert not ds.probe(0, fact) and ds.probe(1, fact)
        assert ds.settle("e1", 0) == 0          # already settled there
        assert not ds.balanced
        assert ds.settle("e1", 1) == 1
        assert ds.balanced
        assert ds.stats() == {"enrolled": 2, "settled": 2, "depth": 0}

    def test_unsettled_entry_is_unbalanced(self):
        ds = DirtySet()
        ds.enroll(0, "e1", (KeyFact("t", "exact", "k:1"),))
        assert not ds.balanced

    def test_settle_unknown_execution_is_zero(self):
        assert DirtySet().settle("nope") == 0


# -- planted lifecycle mutants ------------------------------------------------

READ_SRC = '''
def read(k):
    return db_get("counters", k)
'''


def _settle_when_the_intent_is_written(monkeypatch):
    write_intent = LVIServer._write_intent

    def early(self, eid, *args, **kwargs):
        yield from write_intent(self, eid, *args, **kwargs)
        self.detector.settle(eid, self.shard)

    monkeypatch.setattr(LVIServer, "_write_intent", early)


def _never_enroll(monkeypatch):
    monkeypatch.setattr(ConflictDetector, "enroll", lambda self, shard, eid, facts: None)


class TestPlantedLifecycleMutants:
    """One shard with two read replicas.  A writer from JP is answered
    while its followup still crosses the WAN; then a reader from CA,
    eligible to skip locks, starts.  The shard still holds the write, so
    the reader must see it.  A mutant of the shard's dirty-set lifecycle
    lets the reader validate lock-free at a replica and return the
    pre-write value: each mutant is killed by that answer."""

    def _reader_result(self):
        dep = Deployment.build(
            TopologySpec(
                regions=(Region.JP, Region.CA), seed=1,
                config=RadicalConfig(
                    conflict_detection=True, read_replicas=3,
                    service_jitter_sigma=0.0,
                ),
                persistent_caches=False, raft_prewarm_ms=0.0,
            ),
            functions=[
                FunctionSpec("t.bump", BUMP_SRC, 20.0),
                FunctionSpec("t.read", READ_SRC, 20.0),
            ],
            seed_data=lambda store: store.put("counters", "c:k", 0),
        )
        assert dep.registry.get("t.read").analyzed.summary.lock_skippable
        writer = dep.sim.run_process(dep.runtimes[Region.JP].invoke("t.bump", ["c:k"]))
        assert writer.path == "speculative" and writer.result == 1
        assert dep.metrics.counter("followup.applied") == 0
        reader = dep.sim.run_process(dep.runtimes[Region.CA].invoke("t.read", ["c:k"]))
        dep.sim.run(until=dep.sim.now + 5_000.0)
        assert dep.get_or_none("counters", "c:k").value == 1
        return reader.result, dep.metrics.counter("router.lock_skipped")

    def test_the_shard_holds_the_write_until_it_applies(self):
        assert self._reader_result() == (1, 0)

    @pytest.mark.parametrize("plant", [_settle_when_the_intent_is_written, _never_enroll])
    def test_mutant_is_killed(self, plant, monkeypatch):
        plant(monkeypatch)
        assert self._reader_result() == (0, 1)


# -- zero-cost metrics convention ---------------------------------------------

class TestDetectorMetrics:
    def _exercise(self, detector):
        detector.enroll(0, "e1", (KeyFact("t", "exact", "k:1"),))
        assert detector.probe(0, (KeyFact("t", "exact", "k:1"),))
        detector.settle("e1")
        detector.enroll(0, "e2", (KeyFact("t", "exact", "k:2"),))
        detector.settle("e2", 1)    # another shard's settle: not this entry

    def test_disabled_metrics_record_nothing(self):
        metrics = Metrics(enabled=False)
        detector = ConflictDetector(metrics=metrics)
        self._exercise(detector)
        assert metrics.counter("router.enrolled") == 0
        assert metrics.counter("router.conflict_hit") == 0
        assert metrics.counter("router.settled") == 0
        assert not metrics._samples and not metrics._tagged
        # ...but the detector's answers are identical to the enabled case.
        assert detector.dirty.stats() == {"enrolled": 2, "settled": 1, "depth": 1}

    def test_none_metrics_is_fine(self):
        detector = ConflictDetector(metrics=None)
        self._exercise(detector)
        assert detector.dirty.stats() == {"enrolled": 2, "settled": 1, "depth": 1}

    def test_enabled_metrics_count(self):
        metrics = Metrics()
        detector = ConflictDetector(metrics=metrics)
        self._exercise(detector)
        assert metrics.counter("router.enrolled") == 2
        assert metrics.counter("router.conflict_hit") == 1
        assert metrics.counter("router.settled") == 1
        assert metrics.samples_tagged("router.dirty_depth") == [1, 1]


# -- the server-side fast path and the sanitizer backstop ---------------------

class _ServerWorld:
    """A shard primary, and with ``replica`` a read replica in front of
    it (``server``: the one the test drives)."""

    def __init__(self, replica=False):
        self.sim = Simulator()
        streams = RandomStreams(3)
        self.net = Network(self.sim, paper_latency_table(), streams)
        self.metrics = Metrics()
        self.store = KVStore()
        registry = FunctionRegistry()
        registry.register(FunctionSpec("t.pair", PAIR_SRC, 10.0))
        cfg = RadicalConfig(service_jitter_sigma=0.0, conflict_detection=True)
        detector = ConflictDetector(metrics=self.metrics)
        self.primary = self.server = LVIServer(
            self.sim, self.net, registry, self.store, cfg, streams, self.metrics,
        )
        if replica:
            self.server = LVIServer(
                self.sim, self.net, registry, self.store, cfg, streams,
                self.metrics, name="lvi-server-r1", primary=self.primary.name,
            )
        self.primary.detector = self.server.detector = detector

    def request(self, versions, execution_id="e1", skip=True):
        return LVIRequest(
            execution_id=execution_id, function_id="t.pair", args=("1",),
            read_keys=(("t", "a:1"),), write_keys=(),
            versions=versions,
            skip_locks=skip,
            # The planted (unsound) claim: "pair only ever reads a:1".
            read_facts=(KeyFact("t", "exact", "a:1"),),
        )


class TestSanitizerHardFail:
    def test_planted_unsound_summary_raises(self):
        w = _ServerWorld()
        w.store.put("t", "a:1", 5)
        w.store.put("t", "a:1", 6)   # version 2: cached version 1 is stale
        w.store.put("t", "b:1", 7)
        with pytest.raises(SimulationError) as excinfo:
            w.sim.run_process(w.server._handle_lvi(
                w.request({("t", "a:1"): 1})
            ))
        cause = excinfo.value.__cause__
        assert isinstance(cause, ProtocolError)
        assert "escaped its static key constraints" in str(cause)
        assert w.metrics.counter("analysis.unsound") == 1

    def test_fresh_lock_skipped_read_validates_without_locks(self):
        w = _ServerWorld()
        w.store.put("t", "a:1", 5)
        response = w.sim.run_process(w.server._handle_lvi(
            w.request({("t", "a:1"): 1})
        ))
        assert response.ok
        assert w.metrics.counter("router.lock_skipped") == 1
        assert w.metrics.counter("analysis.unsound") == 0
        # No lock state was created anywhere on the path.
        assert not w.server.locks.held_owners()

    def test_server_reprobe_falls_back_to_locked_path(self):
        w = _ServerWorld()
        w.store.put("t", "a:1", 5)
        # A writer enrolled between the runtime's probe and arrival.
        w.server.detector.enroll(
            0, "writer", (KeyFact("t", "exact", "a:1"),))
        response = w.sim.run_process(w.server._handle_lvi(
            w.request({("t", "a:1"): 1})
        ))
        assert response.ok                      # served by the full LVI path
        assert w.metrics.counter("router.skip_fallback") == 1
        assert w.metrics.counter("router.lock_skipped") == 0

    def test_replica_bounces_locked_requests_untouched(self):
        w = _ServerWorld(replica=True)
        w.store.put("t", "a:1", 5)
        response = w.sim.run_process(w.server._handle_lvi(
            w.request({("t", "a:1"): 1}, skip=False)
        ))
        # The replica handed the request to its primary, which served it
        # through the locked path under the same execution id; the replica
        # itself kept nothing.
        assert response.ok and response.execution_id == "e1"
        assert "e1" not in w.server._executions
        assert "e1" in w.primary._executions
        assert not w.primary.locks.held_owners()
        assert w.metrics.counter("router.replica_bounce") == 1
        assert w.metrics.counter("router.lock_skipped") == 0


# -- dirty-set balance across crash/restart (chaos) ---------------------------

class TestDirtyBalanceUnderFaults:
    def _run(self, plan_name, seed=0):
        from repro.faults import builtin_plans, run_chaos_case

        return run_chaos_case(
            builtin_plans()[plan_name], seed=seed, detect=True)

    def test_baseline_settles_every_enrollment(self):
        result = self._run("baseline")
        assert result.ok
        assert result.verdicts["dirty_set_balanced"] == ""
        assert result.dirty["depth"] == 0
        assert result.dirty["enrolled"] == result.dirty["settled"] > 0

    def test_crash_restart_settles_every_enrollment(self):
        result = self._run("server-crash")
        assert result.ok and result.verdicts["strict_serializability"] == ""
        assert result.verdicts["analysis_sound"] == ""
        assert result.counters["server.crashes"] == 1
        # The crash settled the entries of the executions it killed, and
        # recovery those of the intents it found pending: none is left.
        assert result.verdicts["dirty_set_balanced"] == ""
        assert result.dirty["depth"] == 0
        assert result.dirty["enrolled"] == result.dirty["settled"]

    def test_detection_off_reports_no_dirty_fields(self):
        from repro.faults import builtin_plans, run_chaos_case

        result = run_chaos_case(builtin_plans()["baseline"], seed=0)
        assert "dirty_set_balanced" not in result.verdicts
        assert result.dirty is None
        assert "dirty" not in result.to_dict()
