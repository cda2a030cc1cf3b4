"""One microbench per layer, with no deployment around it.

Each bench is ``fn(scale) -> (ops, digest)``: it does a fixed amount of one
layer's work and returns how many operations that was plus a digest of what
the work produced.  The caller times it; the digest must be the same on every
repetition (the benches take no seed — their inputs are fixed), which is the
output check of ``layers-isolated``.  A change to one layer shows here
undiluted, and a protocol-level change must leave every one of them flat.

The deployment-shaped bench (``core.invoke_zero_rtt``) lives with the other
shapes in ``build.py``; this file holds the ones that need no deployment.
"""

from __future__ import annotations

import functools
import hashlib
import random
from typing import Any, Callable, Dict, Tuple

from repro.analysis import (
    analyze_source,
    build_conflict_matrix,
    symbolic_analyze,
)
from repro.apps import all_apps
from repro.errors import AnalysisError
from repro.mesh import CacheMesh, MeshSpec
from repro.raft import RaftCluster
from repro.sim import Metrics, Network, RandomStreams, Region, Simulator, paper_latency_table
from repro.storage import IntentTable, KVStore, LockManager
from repro.storage.fastcopy import fast_deepcopy
from repro.topology import DirtySet
from repro.wasm import VM

Bench = Callable[[float], Tuple[int, Any]]


def _digest(*parts: Any) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


# -- sim.core ---------------------------------------------------------------


def dispatch(scale: float) -> Tuple[int, Any]:
    """Scheduler fan-out: many processes on staggered timers, nothing else
    (the old snapshot's ``dispatch`` workload, at 4k processes instead of
    20k so that a repetition of all thirteen benches stays near 1.5 s)."""
    procs, waits = int(4_000 * scale), 15
    sim = Simulator()

    def proc(i):
        for k in range(waits):
            yield sim.timeout(((i * 13 + k * 7) % 40) * 0.5 + 0.5)

    for i in range(procs):
        sim.spawn(proc(i))
    sim.run()
    return sim.events_dispatched, _digest(sim.events_dispatched, sim.now)


def pingpong(scale: float) -> Tuple[int, Any]:
    """The zero-delay FIFO lane: two processes hand one event back and
    forth at a single instant of virtual time."""
    rounds = int(20_000 * scale)
    sim = Simulator()
    box = {"ball": sim.event()}

    def player(first: bool):
        for i in range(rounds):
            if first:
                box["ball"].trigger(i)
                box["ball"] = sim.event()
                yield sim.timeout(0.0)
            else:
                yield sim.timeout(0.0)

    sim.spawn(player(True))
    sim.spawn(player(False))
    sim.run()
    return sim.events_dispatched, _digest(sim.events_dispatched, sim.now)


# -- sim.network ------------------------------------------------------------


def send_deliver(scale: float) -> Tuple[int, Any]:
    """send -> schedule -> deliver -> handler between two regions, jitter
    on, nothing behind the handler."""
    n = int(20_000 * scale)
    sim = Simulator()
    net = Network(sim, paper_latency_table(), RandomStreams(7), jitter_sigma=0.02)
    got = [0]

    def on_message(payload, src):
        got[0] += 1

    net.register("iso-src", Region.JP)
    net.register_handler("iso-dst", Region.VA, on_message)

    def sender():
        for i in range(n):
            net.send("iso-src", "iso-dst", i)
            if i % 64 == 63:
                yield sim.timeout(1.0)

    sim.spawn(sender())
    sim.run()
    if got[0] != n:
        raise AssertionError(f"send_deliver: {got[0]} of {n} messages delivered")
    return n, _digest(got[0], net.messages_sent, round(sim.now, 6))


# -- wasm.vm ----------------------------------------------------------------


def _corpus():
    """The 27 functions of the five applications, with fixed arguments and
    the store contents their seeders produce."""
    out = []
    for app in all_apps():
        store = KVStore()
        app.seed(store, RandomStreams(11), app.context)
        data = {
            (table, key): item.copy_value()
            for table in store.table_names()
            for key, item in store.scan(table)
        }
        rng = random.Random(13)
        for fn in app.functions:
            analyzed = analyze_source(fn.spec.source)
            calls = [fn.arggen(app.context, rng) for _ in range(4)]
            out.append((fn.function_id, analyzed, data, calls))
    return out


@functools.lru_cache(maxsize=1)
def corpus():
    """Built once per process, outside every timed region."""
    return _corpus()


class _OverlayEnv:
    """Reads copy out of the shared seed data and writes stay in an overlay,
    so no execution sees another's writes and the seed data is never
    touched (copying the whole store per call would time the copy)."""

    def __init__(self, data: Dict[Tuple[str, str], Any]):
        self.data = data
        self.overlay: Dict[Tuple[str, str], Any] = {}

    def db_get(self, table: str, key: str) -> Any:
        k = (table, key)
        if k in self.overlay:
            return self.overlay[k]
        return fast_deepcopy(self.data.get(k))

    def db_put(self, table: str, key: str, value: Any) -> None:
        self.overlay[(table, key)] = value


def vm_gas(scale: float) -> Tuple[int, Any]:
    """Every corpus function executed in a bare sandbox, four argument
    lists each; the unit is gas (most of which ``busy()`` charges without
    doing work, so read it against its own history, not against a clock)."""
    rounds = max(1, int(30 * scale))
    gas = 0
    results = []
    for _ in range(rounds):
        for function_id, analyzed, data, calls in corpus():
            for args in calls:
                trace = VM(_OverlayEnv(data)).execute(analyzed.f, fast_deepcopy(args))
                gas += trace.gas_used
                results.append((function_id, trace.gas_used, len(trace.reads), len(trace.writes)))
    return gas, _digest(results)


# -- storage ----------------------------------------------------------------

_VALUE = {"id": "p1", "author": 7, "text": "hello", "tags": ["a", "b"], "entries": [[1, 2, "x"]] * 10}


def kv_ops(scale: float) -> Tuple[int, Any]:
    n = int(4_000 * scale)
    store = KVStore()
    ops = 0
    for i in range(n):
        key = f"k:{i % 512}"
        version = store.put("t", key, _VALUE)
        store.get("t", key)
        store.get_or_none("t", f"missing:{i % 7}")
        store.conditional_put("t", key, _VALUE, version)
        ops += 4
    keys = [("t", f"k:{i}") for i in range(64)]
    for _ in range(n // 64):
        store.batch_versions(keys)
        store.batch_get(keys)
        ops += 2
    return ops, _digest(store.version("t", "k:0"), store.size("t"))


def lock_cycles(scale: float) -> Tuple[int, Any]:
    """Uncontended acquire_all -> release_all, three keys a cycle."""
    n = int(5_000 * scale)
    sim = Simulator()
    locks = LockManager(sim)

    def worker():
        for i in range(n):
            owner = f"o{i}"
            reads = [("t", f"r:{i % 97}"), ("t", f"r:{(i + 1) % 97}")]
            yield from locks.acquire_all(owner, reads, [("t", f"w:{i % 89}")])
            locks.release_all(owner)

    sim.spawn(worker())
    sim.run()
    if locks.held_owners():
        raise AssertionError("lock_cycles: locks still held")
    return n, _digest(locks.acquisitions, sim.events_dispatched)


def intent_cycles(scale: float) -> Tuple[int, Any]:
    n = int(5_000 * scale)
    store = KVStore()
    intents = IntentTable(store)
    done = 0
    for i in range(n):
        eid = f"e{i}"
        intents.create(eid, "fn", float(i), args=(i,))
        done += intents.try_complete(eid)
        intents.remove(eid)
    if done != n or intents.pending():
        raise AssertionError("intent_cycles: an intent did not complete")
    return n, _digest(done)


def fastcopy(scale: float) -> Tuple[int, Any]:
    n = int(15_000 * scale)
    last = None
    for _ in range(n):
        last = fast_deepcopy(_VALUE)
    if last != _VALUE or last is _VALUE:
        raise AssertionError("fastcopy: copy differs from the original")
    return n, _digest(last)


# -- topology.shardmap + analysis -------------------------------------------


def _predicates():
    out = []
    for function_id, analyzed, _data, calls in corpus():
        summary = analyzed.summary
        if summary is not None and summary.predicate is not None:
            out.append((function_id, summary.predicate, calls))
    return out


def instantiate(scale: float) -> Tuple[int, Any]:
    rounds = int(100 * scale)
    n = 0
    shape = []
    for r in range(rounds):
        for function_id, predicate, calls in _predicates():
            for args in calls:
                facts = predicate.instantiate(args)
                n += 1
                if r == 0:
                    shape.append((function_id, len(facts.reads), len(facts.writes)))
    return n, _digest(shape)


def probe_cycles(scale: float) -> Tuple[int, Any]:
    """enroll -> probe -> settle on a dirty set holding a steady backlog of
    eight other writers (about what readmix-sharded sees at its headline
    rate)."""
    n = int(20_000 * scale)
    writers = [
        predicate.instantiate(calls[0]).writes
        for _fid, predicate, calls in _predicates()
    ]
    writers = [w for w in writers if w]
    readers = [
        predicate.instantiate(calls[0]).reads
        for _fid, predicate, calls in _predicates()
    ]
    readers = [r for r in readers if r]
    dirty = DirtySet()
    for i in range(8):
        dirty.enroll(0, f"bg{i}", writers[i % len(writers)])
    hits = 0
    for i in range(n):
        eid = f"e{i}"
        dirty.enroll(0, eid, writers[i % len(writers)])
        hits += dirty.probe(0, readers[i % len(readers)])
        dirty.settle(eid)
    for i in range(8):
        dirty.settle(f"bg{i}")
    if not dirty.balanced:
        raise AssertionError(f"probe_cycles: dirty set unbalanced {dirty.stats()}")
    return n, _digest(hits, dirty.stats())


def corpus_analysis(scale: float) -> Tuple[int, Any]:
    """compile -> slice -> optimize -> IR summary per function, the
    symbolic engine beside it, then the conflict matrix over all 27."""
    summaries = []
    shape = []
    for app in all_apps():
        for fn in app.functions:
            analyzed = analyze_source(fn.spec.source)
            try:
                paths = len(symbolic_analyze(fn.spec.source).paths)
            except AnalysisError:
                paths = -1
            shape.append((fn.function_id, analyzed.writes, analyzed.dependent_reads, paths))
            if analyzed.summary is not None:
                summaries.append(analyzed.summary)
    matrix = build_conflict_matrix(summaries)
    conflicts = sum(1 for hit in matrix.pairs.values() if hit)
    return len(shape), _digest(shape, conflicts)


# -- mesh -------------------------------------------------------------------


def digest_rounds(scale: float) -> Tuple[int, Any]:
    """Two PoPs; one holds 1000 unshipped updates; digests go across until
    the other has them all."""
    repeats = max(1, int(3 * scale))
    rounds = 0
    final = None
    for _ in range(repeats):
        sim = Simulator()
        net = Network(sim, paper_latency_table(), RandomStreams(5))
        spec = MeshSpec(gossip_interval_ms=1e9)
        mesh = CacheMesh(sim, net, spec, [Region.JP, Region.CA], Metrics(enabled=False))
        a = mesh.make_pop(Region.JP)
        b = mesh.make_pop(Region.CA)
        mesh.start()
        for i in range(1000):
            a.apply_local_write("t", f"k:{i}", _VALUE, i + 1)
        while True:
            digest = a.build_digest(Region.CA, spec.max_updates_per_digest)
            if not digest.updates:
                break
            ack = b.receive_digest(digest)
            a.peer_vv[ack.sender] = dict(ack.vv)
            rounds += 1
        if b.vv != a.vv or b.version("t", "k:999") != 1000:
            raise AssertionError("digest_rounds: receiver did not converge")
        final = sorted(b.vv.items())
    return rounds, _digest(rounds, final)


# -- raft -------------------------------------------------------------------


def raft_commits(scale: float) -> Tuple[int, Any]:
    """Three nodes 0.01 ms apart: what is left is the protocol's own work."""
    n = int(1_500 * scale)
    sim = Simulator()
    cluster = RaftCluster(sim, RandomStreams(3), az_rtt_ms=0.01)
    cluster.start()
    sim.run(until=500.0)

    def client():
        for i in range(n):
            yield from cluster.submit(("put", f"k{i % 32}", i))

    proc = sim.spawn(client())
    sim.run(until_event=proc.done_event)
    sim.run(until=sim.now + 100.0)
    datas = [m.data for m in cluster.machines.values()]
    if any(d != datas[0] for d in datas[1:]):
        raise AssertionError("raft_commits: state machines disagree")
    commit = max(node.commit_index for node in cluster.nodes.values())
    return n, _digest(commit, sorted(datas[0].items()))


#: metric name -> (bench, unit).  Rates are ops per host CPU second; the one
#: ``_ms`` entry reports the time itself.
BENCHES: Dict[str, Bench] = {
    "sim.core.dispatch_events_per_s": dispatch,
    "sim.core.pingpong_events_per_s": pingpong,
    "sim.network.send_deliver_per_s": send_deliver,
    "wasm.vm.gas_per_s": vm_gas,
    "storage.kv_ops_per_s": kv_ops,
    "storage.lock_cycles_per_s": lock_cycles,
    "storage.intent_cycles_per_s": intent_cycles,
    "storage.fastcopy_per_s": fastcopy,
    "topology.shardmap.probe_cycles_per_s": probe_cycles,
    "mesh.digest_rounds_per_s": digest_rounds,
    "raft.commits_per_s": raft_commits,
    "analysis.instantiate_per_s": instantiate,
    "analysis.corpus_ms": corpus_analysis,
}
