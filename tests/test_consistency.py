"""Tests for the strict-serializability checker and register checker."""

import random

import pytest

from conftest import build_counter_deployment

from repro.consistency import (
    HistoryRecorder,
    Recorder,
    RegisterOp,
    TxnRecord,
    check_register_linearizable,
    check_strict_serializability,
    verdicts,
)
from repro.consistency.checker import build_dependency_graph
from repro.errors import ConsistencyViolation

K = ("t", "x")
K2 = ("t", "y")


def txn(txn_id, invoked, responded, reads=None, writes=None, fn="f"):
    return TxnRecord(
        txn_id=txn_id,
        function=fn,
        invoked_at=invoked,
        responded_at=responded,
        reads=dict(reads or {}),
        writes=dict(writes or {}),
    )


class TestRecorder:
    def test_begin_finish_cycle(self):
        rec = HistoryRecorder()
        r = rec.begin("social.post", now=1.0)
        rec.finish(r, now=5.0, reads={K: 1}, writes={K: 2})
        records = rec.records()
        assert len(records) == 1
        assert records[0].reads == {K: 1}
        assert not records[0].is_read_only

    def test_overlap_detection(self):
        a = txn(0, 0.0, 10.0)
        b = txn(1, 5.0, 15.0)
        c = txn(2, 11.0, 20.0)
        assert a.overlaps(b)
        assert not a.overlaps(c)


class TestVerdicts:
    """The one suite on a built deployment, with the broken state planted
    by hand."""

    def test_recorder_keeps_one_row_and_one_record_per_ack(self):
        dep = build_counter_deployment()
        recorder = Recorder()
        runtime = dep.runtimes["jp"]
        outcome = dep.sim.run_process(recorder.invoke(runtime, "t.bump", ["x"]))
        (row,) = recorder.requests
        assert (row.function, row.args, row.region, row.path, row.probe) == (
            "t.bump", ["x"], "jp", outcome.path, True)
        assert row.took_ms == row.ended - row.started > 0
        (record,) = recorder.history.records()
        assert record.writes == outcome.write_versions

    def test_clean_deployment_passes_every_verdict(self):
        judged = verdicts(build_counter_deployment(), Recorder(), ["c:x"], "t.bump")
        assert judged == {
            "strict_serializability": "", "exactly_once": "", "no_pending_intents": "",
            "no_held_locks": "", "analysis_sound": "",
        }

    def test_held_lock_and_pending_intent_are_reported(self):
        dep = build_counter_deployment()
        dep.sim.spawn(dep.server.locks.acquire_all("leaker", [], [("counters", "c:x")]))
        dep.sim.run(until=dep.sim.now + 10.0)
        dep.server.intents.create("stuck", "t.bump", dep.sim.now, args=("x",))
        judged = verdicts(dep, Recorder(), ["c:x"], "t.bump")
        assert judged["no_held_locks"] == "1 owners still hold locks"
        assert judged["no_pending_intents"] == "1 intents still pending"
        assert judged["exactly_once"] == ""

    def test_unrecorded_write_breaks_exactly_once(self):
        dep = build_counter_deployment()
        dep.store.put("counters", "c:x", 1)
        judged = verdicts(dep, Recorder(), ["c:x"], "t.bump")
        assert judged["exactly_once"] == "c:x: value 1 outside [0, 0]"

    def test_version_out_of_step_with_value_breaks_exactly_once(self):
        dep = build_counter_deployment()
        dep.store.put("counters", "c:x", 0)   # a write that is not a bump
        judged = verdicts(dep, Recorder(), ["c:x"], "t.bump")
        assert judged["exactly_once"] == "c:x: version 2 does not match value 0"


class TestStrictSerializability:
    def test_empty_history_ok(self):
        check_strict_serializability([])

    def test_sequential_writes_ok(self):
        history = [
            txn(0, 0.0, 1.0, writes={K: 1}),
            txn(1, 2.0, 3.0, reads={K: 1}, writes={K: 2}),
            txn(2, 4.0, 5.0, reads={K: 2}),
        ]
        check_strict_serializability(history)

    def test_concurrent_reads_ok(self):
        history = [
            txn(0, 0.0, 1.0, writes={K: 1}),
            txn(1, 2.0, 9.0, reads={K: 1}),
            txn(2, 2.5, 8.0, reads={K: 1}),
        ]
        check_strict_serializability(history)

    def test_stale_read_after_write_violates(self):
        # T2 responds before T3 starts, yet T3 reads the pre-T2 version:
        # the real-time edge and the rw edge form a cycle.
        history = [
            txn(0, 0.0, 1.0, writes={K: 1}),
            txn(1, 2.0, 3.0, reads={K: 1}, writes={K: 2}),   # committed write
            txn(2, 4.0, 5.0, reads={K: 1}),                  # stale!
        ]
        with pytest.raises(ConsistencyViolation, match="cycle"):
            check_strict_serializability(history)

    def test_concurrent_stale_read_is_fine(self):
        # Same as above but T2 overlaps the writer: it may be ordered first.
        history = [
            txn(0, 0.0, 1.0, writes={K: 1}),
            txn(1, 2.0, 5.0, reads={K: 1}, writes={K: 2}),
            txn(2, 4.0, 6.0, reads={K: 1}),   # overlaps the writer: OK
        ]
        check_strict_serializability(history)

    def test_write_skew_style_cycle_detected(self):
        # T1 reads x@1 writes y@2; T2 reads y@1 writes x@2; each must
        # precede the other (rw both ways) -> cycle, not serializable.
        history = [
            txn(0, 0.0, 1.0, writes={K: 1, K2: 1}),
            txn(1, 2.0, 9.0, reads={K: 1}, writes={K2: 2}),
            txn(2, 2.0, 9.0, reads={K2: 1}, writes={K: 2}),
        ]
        with pytest.raises(ConsistencyViolation):
            check_strict_serializability(history)

    def test_duplicate_write_application_detected(self):
        # Two transactions claiming the same (key, version): the §3.6
        # "followup raced with re-execution and both applied" bug.
        history = [
            txn(0, 0.0, 1.0, writes={K: 1}),
            txn(1, 0.5, 2.0, writes={K: 1}),
        ]
        with pytest.raises(ConsistencyViolation, match="duplicate"):
            check_strict_serializability(history)

    def test_read_of_initial_version_ok(self):
        check_strict_serializability([txn(0, 0.0, 1.0, reads={K: 0})])

    def test_long_chain_performance_smoke(self):
        history = []
        for i in range(300):
            history.append(
                txn(i, float(2 * i), float(2 * i + 1), reads={K: i}, writes={K: i + 1})
            )
        check_strict_serializability(history)

    @staticmethod
    def bump_chain(n):
        # Every bump is in flight at once, so the chain is all dependency
        # edges and no real-time ones (those are all-pairs, ROADMAP 1(b)).
        return [
            txn(i, 0.0, 1e9, reads={K: i}, writes={K: i + 1}) for i in range(n)
        ]

    def test_long_dependency_chain_checks_without_recursion(self):
        check_strict_serializability(self.bump_chain(1500))

    def test_long_dependency_chain_with_a_back_edge_reports_the_cycle(self):
        history = self.bump_chain(1500)
        history[0].reads[K2] = 1
        history[-1].writes[K2] = 1
        with pytest.raises(ConsistencyViolation) as err:
            check_strict_serializability(history)
        message = str(err.value)
        assert message.startswith("dependency cycle: T0 --[ww ('t', 'x')@v1->v2]--> T1; ")
        assert message.endswith("; T1499 --[wr ('t', 'y')@v1]--> T0")
        assert message.count("-->") == 1500


def recursive_find_cycle(graph):
    """The recursive search ``DependencyGraph.find_cycle`` replaced, kept as
    the reference for the iterative one on graphs shallow enough for it."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {n: WHITE for n in graph.edges}
    stack = []

    def dfs(node):
        color[node] = GRAY
        stack.append(node)
        for nxt in sorted(graph.edges.get(node, ())):
            if color.get(nxt, WHITE) == GRAY:
                i = stack.index(nxt)
                return stack[i:] + [nxt]
            if color.get(nxt, WHITE) == WHITE:
                found = dfs(nxt)
                if found:
                    return found
        stack.pop()
        color[node] = BLACK
        return None

    for node in sorted(graph.edges):
        if color[node] == WHITE:
            found = dfs(node)
            if found:
                return found
    return None


def random_history(rng):
    """Up to 12 transactions over three keys: each written version has one
    writer, reads pick any version, intervals overlap at random."""
    n = rng.randint(2, 12)
    records = [
        txn(i, float(start), float(start + rng.randint(0, 20)))
        for i, start in enumerate(rng.choices(range(20), k=n))
    ]
    for key in (K, K2, ("t", "z")):
        writers = rng.sample(range(n), rng.randint(0, n))
        for version, writer in enumerate(writers, start=1):
            records[writer].writes[key] = version
        for record in rng.sample(records, rng.randint(0, n // 2)):
            record.reads[key] = rng.randint(0, len(writers))
    return records


def test_iterative_cycle_search_matches_the_recursive_one():
    rng = random.Random(2024)
    cyclic = 0
    for _ in range(200):
        graph = build_dependency_graph(random_history(rng))
        found = graph.find_cycle()
        assert found == recursive_find_cycle(graph)
        cyclic += found is not None
    assert 20 < cyclic < 180  # both verdicts are exercised


class TestRegisterChecker:
    def test_trivial_sequential(self):
        ops = [
            RegisterOp(0, "write", "a", 0.0, 1.0),
            RegisterOp(1, "read", "a", 2.0, 3.0),
        ]
        assert check_register_linearizable(ops)

    def test_read_of_never_written_value_fails(self):
        ops = [
            RegisterOp(0, "write", "a", 0.0, 1.0),
            RegisterOp(1, "read", "b", 2.0, 3.0),
        ]
        assert not check_register_linearizable(ops)

    def test_stale_read_fails(self):
        ops = [
            RegisterOp(0, "write", "a", 0.0, 1.0),
            RegisterOp(1, "write", "b", 2.0, 3.0),
            RegisterOp(2, "read", "a", 4.0, 5.0),
        ]
        assert not check_register_linearizable(ops)

    def test_concurrent_write_read_either_order(self):
        ops = [
            RegisterOp(0, "write", "a", 0.0, 10.0),
            RegisterOp(1, "read", None, 1.0, 2.0),   # may linearize before
        ]
        assert check_register_linearizable(ops, initial=None)

    def test_overlapping_writes_any_order(self):
        ops = [
            RegisterOp(0, "write", "a", 0.0, 10.0),
            RegisterOp(1, "write", "b", 0.0, 10.0),
            RegisterOp(2, "read", "a", 11.0, 12.0),
        ]
        assert check_register_linearizable(ops)

    def test_empty_history(self):
        assert check_register_linearizable([])

    def test_initial_value_read(self):
        ops = [RegisterOp(0, "read", None, 0.0, 1.0)]
        assert check_register_linearizable(ops, initial=None)


class TestAbdStoreIsLinearizable:
    """End-to-end: histories produced by the ABD quorum store check out."""

    def test_concurrent_clients_linearizable(self):
        from repro.sim import Network, RandomStreams, Region, Simulator, paper_latency_table
        from repro.storage import ReplicatedStore

        sim = Simulator()
        net = Network(sim, paper_latency_table(), RandomStreams(11))
        store = ReplicatedStore(sim, net, [Region.VA, Region.OH, Region.OR])
        ops = []
        op_ids = iter(range(100))

        def writer(region, value, delay):
            client = store.client(region, f"w-{value}")

            def flow():
                yield sim.timeout(delay)
                start = sim.now
                yield from client.write("t", "reg", value)
                ops.append(RegisterOp(next(op_ids), "write", value, start, sim.now))

            return flow()

        def reader(region, delay):
            client = store.client(region, f"r-{region}-{delay}")

            def flow():
                yield sim.timeout(delay)
                start = sim.now
                value = yield from client.read("t", "reg")
                ops.append(RegisterOp(next(op_ids), "read", value, start, sim.now))

            return flow()

        procs = [
            sim.spawn(writer(Region.CA, "v1", 0.0)),
            sim.spawn(writer(Region.JP, "v2", 30.0)),
            sim.spawn(reader(Region.IE, 10.0)),
            sim.spawn(reader(Region.DE, 50.0)),
            sim.spawn(reader(Region.VA, 90.0)),
        ]
        sim.run()
        assert all(p.done for p in procs)
        assert check_register_linearizable(ops, initial=None)
