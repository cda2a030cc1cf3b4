"""Raft pays for the messages it models (the ``repro.raft.node`` docstring).

A follower's ack leaves at its fsync instant and costs one queue entry, its
arrival; a commit resumes its waiter inside the entry that completes it; an
unlock record's process starts inside the releasing step.  Below: exact dispatch counts,
what a crash or a term change inside the fsync window does, a differential
run against the three paths this replaced (patched back in, as
``tests/test_scheduler_equivalence.py`` patches its reference heap), and
planted mutants those tests must kill.
"""

import collections
import contextlib
import itertools
from types import SimpleNamespace

import pytest

from repro.apps.social import social_media_app
from repro.core import RadicalConfig
from repro.core.server import LVIServer
from repro.errors import FaultConfigError, UnavailableError
from repro.faults import (
    CrashWindow,
    DropWindow,
    FaultPlan,
    PartitionWindow,
    builtin_plans,
    chaos,
    run_chaos_case,
)
from repro.obs import TraceCollector, TraceContext
from repro.raft import LogEntry, NotLeader, RaftCluster, RaftConfig, RaftNode
from repro.raft.node import _APPEND_REPLY, _REQUEST_VOTE, FOLLOWER
from repro.sim import Network, RandomStreams, Region, Simulator
from repro.topology import Deployment, TopologySpec
from repro.workloads import OpenLoopClient, run_open_loop

FSYNC = RaftConfig().fsync_ms
#: One way between two AZs of a RaftCluster (0.8 ms round trip).
ONE_WAY = 0.4


def elected(seed=1):
    sim = Simulator()
    cluster = RaftCluster(sim, RandomStreams(seed))
    cluster.start()
    sim.run(until=500.0)
    return sim, cluster


def quiet(sim, cluster):
    """Run to just after a heartbeat round has been acked: the next round is
    ~13 ms away, and a commit takes 2.2 ms."""
    sent = cluster.net.messages_sent
    while cluster.net.messages_sent == sent:
        sim.run(until=sim.now + 0.05)
    sim.run(until=sim.now + 2.0)


def record_sends(net):
    sent = []
    net.tracer = lambda t, src, dst, payload: sent.append((t, src, dst, payload))
    return sent


def acks_from(sent, node_id):
    return [(t, p) for t, src, _dst, p in sent if src == node_id and p[0] == _APPEND_REPLY]


# -- the three paths this replaced, patched back in -------------------------


def _parent_submit(self, command):
    if not self.is_leader:
        raise NotLeader(self.leader_hint)
    seq = next(self._seqs)
    self.log.append(LogEntry(self.current_term, command, seq))
    ev = self.sim.event(name="commit")
    self._pending[seq] = ev
    self.sim.schedule(self.config.fsync_ms, self._broadcast_append)
    return ev


def _parent_handle_append(self, msg, src):
    _kind, term, leader, prev_index, prev_term, entries, leader_commit = msg
    self._observe_term(term)
    if term < self.current_term:
        self.net.send(self.node_id, src, (_APPEND_REPLY, self.current_term, False, 0))
        return
    self.leader_hint = leader
    if self.state != FOLLOWER:
        self.state = FOLLOWER
    self._reset_election_timer()
    if prev_index > len(self.log) or (
        prev_index >= 1 and self.log[prev_index - 1].term != prev_term
    ):
        self.net.send(self.node_id, src, (_APPEND_REPLY, self.current_term, False, 0))
        return
    insert_at = prev_index
    for i, entry in enumerate(entries):
        index = insert_at + i
        if index < len(self.log):
            if self.log[index].term != entry.term:
                del self.log[index:]
                self.log.append(entry)
        else:
            self.log.append(entry)
    match_through = prev_index + len(entries)
    if leader_commit > self.commit_index:
        self.commit_index = min(leader_commit, len(self.log))
        self._apply_committed()

    def reply():
        if self._alive:
            self.net.send(
                self.node_id, src, (_APPEND_REPLY, self.current_term, True, match_through)
            )

    if entries:
        self.sim.schedule(self.config.fsync_ms, reply)
    else:
        reply()


def _parent_release(self, execution_id):
    released = self.locks.release_all(execution_id)
    self.metrics.incr("locks.released", released)
    if self.config.replicated:
        self.sim.spawn(_parent_unpersist(self.raft, execution_id), name=f"unlock({execution_id})")


def _parent_unpersist(cluster, execution_id):
    yield from cluster.submit(("put", f"unlock:{execution_id}", True))


@contextlib.contextmanager
def parent_paths(monkeypatch):
    """The commit as a plain event (its waiter resumed from the queue), the
    ack sent from an fsync timer, the unlock record as a process."""
    with monkeypatch.context() as m:
        m.setattr(RaftNode, "submit", _parent_submit)
        m.setattr(RaftNode, "_handle_append", _parent_handle_append)
        m.setattr(LVIServer, "_release", _parent_release)
        yield


# -- (a) exact dispatch counts ------------------------------------------------


def commit_cost(launch):
    """Dispatches of the one commit ``launch(sim, cluster)`` starts on an
    idle 3-node cluster (no heartbeat falls inside the window)."""
    sim, cluster = elected()
    quiet(sim, cluster)
    leader = cluster.leader()
    committed = leader.commit_index
    before = sim.events_dispatched
    done = launch(sim, cluster)
    sim.run(until=sim.now + 3.0)
    assert done()
    assert leader.commit_index == leader.last_applied == committed + 1
    return sim.events_dispatched - before


def waited(sim, cluster):
    """A caller that waits, started in place (its start costs nothing)."""
    proc = sim.spawn_in_dispatch(cluster.submit(("put", "k", 1)))
    return lambda: proc.done


def released_by(release):
    """A launcher: ``release`` (an ``LVIServer._release``) on a replicated
    server that holds no locks, which leaves only its unlock record."""

    def launch(sim, cluster):
        server = SimpleNamespace(
            sim=sim, raft=cluster, config=SimpleNamespace(replicated=True),
            locks=SimpleNamespace(release_all=lambda execution_id: 0),
            metrics=SimpleNamespace(incr=lambda name, n: None),
        )
        release(server, "e")
        return lambda: cluster.committed_value("unlock:e") is True

    return launch


unlock_record = released_by(LVIServer._release)
parent_unlock_record = released_by(_parent_release)


class TestDispatchCounts:
    def test_a_commit_costs_five_entries_and_no_resume(self):
        # The leader's fsync timer, two append deliveries and two ack
        # deliveries; the first ack's entry resumes the waiter.
        assert commit_cost(waited) == 5

    def test_an_unlock_record_costs_the_same_five(self):
        assert commit_cost(unlock_record) == 5

    def test_the_replaced_paths_cost_three_and_four_more(self, monkeypatch):
        # Each follower's fsync timer and the waiter's queued resume; for
        # the unlock record, also its process's start.
        with parent_paths(monkeypatch):
            assert commit_cost(waited) == 8
            assert commit_cost(parent_unlock_record) == 9

    def test_a_heartbeat_round_costs_five(self):
        # The heartbeat timer, two entry-less appends, two acks sent in place.
        sim, cluster = elected()
        quiet(sim, cluster)
        before = sim.events_dispatched
        sim.run(until=sim.now + cluster.config.heartbeat_ms)
        assert sim.events_dispatched - before == 5


# -- (b), (c) the fsync window -------------------------------------------------


def commit_with_crash(crash_after):
    """Crash one follower ``crash_after`` ms into a commit.  Returns that
    follower's acks (send instant, payload), the messages the commit cost,
    and its fsync instant."""
    sim, cluster = elected()
    quiet(sim, cluster)
    leader = cluster.leader()
    victim = cluster.nodes[leader.peers[0]]
    sent = record_sends(cluster.net)
    t0, before = sim.now, cluster.net.messages_sent
    commit = leader.submit(("put", "k", 1))
    fsync_at = ((t0 + FSYNC) + ONE_WAY) + FSYNC
    sim.run(until=t0 + crash_after)
    victim.crash()
    sim.run(until=t0 + 3.0)
    assert commit.ok  # the other follower's ack is enough
    return acks_from(sent, victim.node_id), cluster.net.messages_sent - before, fsync_at


def ack_across_term_change():
    """A follower learns of a higher term inside its fsync window.  Returns
    its acks (send instant, payload), the new term, the old leader's term
    and state, and the fsync instant."""
    sim, cluster = elected()
    quiet(sim, cluster)
    leader = cluster.leader()
    victim = cluster.nodes[leader.peers[0]]
    cluster.net.register("probe", victim.region)  # 0.1 ms from the victim
    sent = record_sends(cluster.net)
    t0 = sim.now
    leader.submit(("put", "k", 1))
    arrives = (t0 + FSYNC) + ONE_WAY
    sim.run(until=arrives + 0.1)
    term = victim.current_term + 5
    cluster.net.send("probe", victim.node_id, (_REQUEST_VOTE, term, "probe", 0, 0))
    sim.run(until=t0 + 3.0)
    return acks_from(sent, victim.node_id), term, leader.current_term, leader.state, arrives + FSYNC


class TestFsyncWindow:
    def test_a_crash_inside_the_window_sends_and_counts_no_ack(self):
        acks, messages, _ = commit_with_crash(crash_after=1.5)  # fsync ends at 1.8
        assert acks == []
        assert messages == 3  # two appends, the other follower's ack

    def test_a_crash_after_the_fsync_instant_still_delivers(self):
        acks, messages, fsync_at = commit_with_crash(crash_after=2.0)  # lands at 2.2
        assert [t for t, _p in acks] == [fsync_at]
        assert messages == 4

    def test_a_term_change_inside_the_window_restamps_the_ack(self):
        acks, term, leader_term, leader_state, fsync_at = ack_across_term_change()
        assert [(t, p[1]) for t, p in acks] == [(fsync_at, term)]
        # The ack, not a heartbeat reply, is what deposed the leader.
        assert (leader_term, leader_state) == (term, FOLLOWER)

    def test_a_fault_change_under_a_held_ack_fails_loudly(self):
        # The ack's fate was drawn when the append arrived; a partition
        # inside the window would have dropped it at its send instant.
        sim, cluster = elected()
        quiet(sim, cluster)
        leader = cluster.leader()
        victim = cluster.nodes[leader.peers[0]]
        t0 = sim.now
        leader.submit(("put", "k", 1))
        sim.run(until=t0 + 1.5)  # both followers hold acks until 1.8
        with pytest.raises(FaultConfigError, match="held message"):
            cluster.net.partition(victim.region, leader.region)
        with pytest.raises(FaultConfigError, match="held message"):
            cluster.net.add_drop_filter(lambda src, dst, payload: False)
        sim.run(until=t0 + 2.0)  # sent: on the wire, out of reach
        cluster.net.partition(victim.region, leader.region)

    def test_a_link_no_held_ack_crosses_can_change(self):
        sim, cluster = elected()
        quiet(sim, cluster)
        leader = cluster.leader()
        a, b = (cluster.nodes[peer] for peer in leader.peers)
        t0 = sim.now
        leader.submit(("put", "k", 1))
        sim.run(until=t0 + 1.5)  # a and b hold acks to the leader until 1.8
        cluster.net.partition(a.region, b.region)
        cluster.net.set_extra_delay(leader.region, a.region, 0.0)
        cluster.net.heal(a.region, b.region)
        # Refused on its second direction, a partition changes neither.
        with pytest.raises(FaultConfigError, match="held"):
            cluster.net.partition(leader.region, a.region)
        fault = cluster.net._faults.get((leader.region, a.region))
        assert fault is None or not fault.partitioned
        with pytest.raises(FaultConfigError, match="held"):
            cluster.net.set_extra_delay(b.region, leader.region, 0.0)
        sim.run(until=t0 + 3.0)
        assert cluster.committed_value("k") == 1

    def test_an_ack_is_not_held_past_a_drop_filter(self):
        sim, cluster = elected()
        cluster.net.add_drop_filter(lambda src, dst, payload: False)
        cluster.leader().submit(("put", "k", 1))
        with pytest.raises(FaultConfigError, match="drop filter"):
            sim.run(until=sim.now + 3.0)

    def test_a_held_ack_lands_at_exactly_its_fsync_instant_plus_one_way(self):
        sim, cluster = elected()
        handled, landed = [], []
        handle_append, handle_reply = RaftNode._handle_append, RaftNode._handle_append_reply

        def on_append(node, msg, src):
            if msg[5]:  # entries: an ack held for the fsync
                handled.append(((sim.now + FSYNC) + ONE_WAY, node.node_id))
            handle_append(node, msg, src)

        def on_reply(node, msg, src):
            if msg[2]:
                landed.append((sim.now, src))
            handle_reply(node, msg, src)

        def flow():
            for i in range(40):
                yield from cluster.submit(("put", f"k{i}", i))

        with pytest.MonkeyPatch.context() as m:
            m.setattr(RaftNode, "_handle_append", on_append)
            m.setattr(RaftNode, "_handle_append_reply", on_reply)
            sim.run_process(flow())
            sim.run(until=sim.now + 3.0)
        assert len(landed) >= 80
        assert sorted(landed) == sorted(handled)


# -- the satellite bug: a deposed leader's waiter ---------------------------


def test_a_deposed_leaders_overwritten_entry_fails_its_waiter():
    """The isolated leader accepts ``x``; the majority elects a new leader
    and commits ``y`` at the same index.  On heal ``x`` is overwritten, and
    its waiter must hear NotLeader (then retry on the new leader) instead of
    waiting forever."""
    sim, cluster = elected()
    old = cluster.leader()
    others = [n for n in cluster.nodes.values() if n is not old]
    for node in others:
        cluster.net.partition(old.region, node.region)
    x = sim.spawn(cluster.submit(("put", "x", 1)))
    sim.run(until=sim.now + 1_000.0)
    new = cluster.leader()
    assert new is not old and old.is_leader  # two leaders, two terms
    sim.run_process(cluster.submit(("put", "y", 2)), until=sim.now + 1_000.0)
    sim.run(until=sim.now + 5.0)
    for node in others:
        cluster.net.heal(old.region, node.region)
    sim.run(until=sim.now + 2_000.0, until_event=x.done_event)
    assert x.done and not old.is_leader
    assert old._pending == {}
    sim.run(until=sim.now + 100.0)  # a heartbeat carries the commit
    assert all(m.data == {"y": 2, "x": 1} for m in cluster.machines.values())


# -- (d) differential against the replaced paths -----------------------------


@contextlib.contextmanager
def submission_instants(monkeypatch):
    """seq -> the instant its entry was submitted, for every submission."""
    submitted_at = {}
    submit = RaftNode.submit

    def recording_submit(node, command):
        commit = submit(node, command)
        submitted_at[node.log[-1].seq] = node.sim.now
        return commit

    with monkeypatch.context() as m:
        m.setattr(RaftNode, "submit", recording_submit)
        yield submitted_at


def log_by_instant(log, submitted_at):
    """A log as its runs of entries submitted at one instant, each run as a
    set.  The unlock record is submitted in the releasing step itself, the
    lock record of a waiter that release woke in the waiter's resume right
    after it: the replaced path ran the unlock's process after that resume,
    so within one instant the two may sit in either order.  They touch
    different keys and ride the same broadcast."""
    return [
        (instant, sorted((e.term, repr(e.command)) for e in run))
        for instant, run in itertools.groupby(log, key=lambda e: submitted_at[e.seq])
    ]


def spans_by_root(spans):
    """Every span's content, its trace named by the trace's root span and
    its parent by name and start, not by id.  An orphan span (Raft traffic
    no invocation caused) mints a trace id when it is created, and a held
    ack's span is created at its arrival, not at its send instant, so the
    ids of later spans and traces shift."""
    by_id = {s.span_id: s for s in spans}
    roots = {}
    for s in spans:
        if s.parent_id == 0:
            roots.setdefault(s.trace_id, (s.name, s.start_ms))
    return collections.Counter(
        (
            roots.get(s.trace_id), s.name, s.kind, s.start_ms, s.end_ms,
            repr(sorted(s.attrs.items())),
            (by_id[s.parent_id].name, by_id[s.parent_id].start_ms)
            if s.parent_id in by_id else None,
        )
        for s in spans
    )


def snapshot(dep, extra, submitted_at):
    raft = dep.raft
    return {
        "spans": spans_by_root(dep.trace.spans) if dep.trace is not None else None,
        "extra": extra,
        "now": dep.sim.now,
        "counters": dep.metrics.counters(),
        "e2e": dep.metrics.samples("e2e"),
        "messages": dep.net.messages_sent,
        "raft.net.messages_sent": raft.net.messages_sent,
        "logs": {
            nid: log_by_instant(node.log, submitted_at) for nid, node in raft.nodes.items()
        },
        "commit_index": {nid: node.commit_index for nid, node in raft.nodes.items()},
        "terms": {nid: node.current_term for nid, node in raft.nodes.items()},
        "machines": {nid: dict(m.data) for nid, m in raft.machines.items()},
    }


def chaos_case(monkeypatch, plan, seed):
    built, recorders = [], []
    build, chaos_recorder = Deployment.build.__func__, chaos.Recorder

    def capture(cls, *args, **kwargs):
        built.append(build(cls, *args, **kwargs))
        return built[-1]

    def recorder():
        recorders.append(chaos_recorder())
        return recorders[-1]

    with monkeypatch.context() as m, submission_instants(monkeypatch) as submitted_at:
        m.setattr(Deployment, "build", classmethod(capture))
        m.setattr(chaos, "Recorder", recorder)
        result = run_chaos_case(builtin_plans()[plan], seed=seed)
    assert result.ok, result.violation
    (dep,) = built
    return snapshot(dep, (result.to_dict(), recorders[0].history.records()), submitted_at)


def raft_faulted_smoke(monkeypatch):
    """The benchmark's ``raft-faulted`` workload at its smoke size, traced:
    the social app in open loop at 4 rps a region for 20 s, through a
    leader crash, a JP-VA partition and 25% loss CA<->VA."""
    config = RadicalConfig(
        replicated=True, followup_timeout_ms=600.0, rpc_timeout_ms=400.0,
        retry_max_attempts=3, retry_base_backoff_ms=20.0, retry_backoff_multiplier=2.0,
        retry_max_backoff_ms=200.0, retry_jitter_frac=0.2,
        invocation_deadline_ms=4_000.0, breaker_failure_threshold=5,
        breaker_cooldown_ms=1_500.0,
    )
    plan = FaultPlan(
        "raft-faulted",
        (
            CrashWindow("raft-leader", 2_000.0, 6_000.0),
            PartitionWindow(Region.JP, Region.VA, 9_000.0, 11_000.0),
            DropWindow(Region.CA, Region.VA, 13_000.0, 19_000.0,
                       probability=0.25, bidirectional=True),
        ),
        "leader crash, then a JP-VA partition, then 25% loss CA<->VA",
        replicated=True,
    )
    app = social_media_app()
    dep = Deployment.build(
        TopologySpec(seed=42, config=config, fault_plan=plan, warm_caches=True,
                     persistent_caches=True, trace=True),
        app=app,
    )
    outcomes = []

    def recording(invoke):
        def wrapped(function_id, args):
            started = dep.sim.now
            try:
                outcome = yield from invoke(function_id, args)
            except UnavailableError:
                outcomes.append((function_id, args, None, started, dep.sim.now))
                raise
            outcomes.append((function_id, args, (outcome.path, outcome.result,
                             outcome.read_versions, outcome.write_versions),
                             started, dep.sim.now))
            return outcome
        return wrapped

    clients = [
        OpenLoopClient(
            sim=dep.sim, app=app, region=region, invoke=recording(dep.client(region)[0]),
            metrics=dep.metrics, rng=dep.streams.fork(f"smoke.{region}").stream("workload"),
            rate_rps=4.0, duration_ms=20_000.0, tolerate_unavailable=True,
        )
        for region in dep.spec.regions
    ]
    with submission_instants(monkeypatch) as submitted_at:
        run_open_loop(dep.sim, clients, name="smoke")
        dep.sim.run(until=dep.sim.now + 3_000.0)
    return snapshot(dep, outcomes, submitted_at)


CASES = [
    pytest.param(plan, seed, id=f"{plan}-{seed}")
    for plan in ("raft-follower-crash", "raft-leader-mid-validate")
    for seed in (0, 1, 2)
]


class TestSameRunAsTheReplacedPaths:
    @pytest.mark.parametrize("plan, seed", CASES)
    def test_chaos_plan(self, monkeypatch, plan, seed):
        with parent_paths(monkeypatch):
            parent = chaos_case(monkeypatch, plan, seed)
        assert chaos_case(monkeypatch, plan, seed) == parent

    def test_raft_faulted_smoke(self, monkeypatch):
        with parent_paths(monkeypatch):
            parent = raft_faulted_smoke(monkeypatch)
        now = raft_faulted_smoke(monkeypatch)
        assert now == parent
        assert now["counters"]["fault.injected"] > 0
        assert len(now["extra"]) > 300

    def test_a_retried_unlock_record_stays_in_its_callers_trace(self, monkeypatch):
        # A process runs every step, retries included, under the context it
        # was spawned in, whether its first step is queued or runs in place.
        now = retried_unlock_hops(unlock_record)
        with parent_paths(monkeypatch):
            parent = retried_unlock_hops(parent_unlock_record)
        assert now == parent
        assert any(start > 100.0 for start, _src, _dst in now)  # after the election


def retried_unlock_hops(launch):
    """The Raft hops in the caller's trace when the leader crashes under
    an unlock record's first commit (start relative to the submission)."""
    sim, cluster = elected()
    sim.obs = TraceCollector(sim)
    quiet(sim, cluster)
    leader = cluster.leader()
    t0, sim.trace_context = sim.now, TraceContext(7, 1)
    launch(sim, cluster)
    sim.trace_context = None
    sim.run(until=t0 + 1.0)  # broadcast at 0.7, acks held until 1.8
    leader.crash()
    sim.run(until=t0 + 1_000.0)
    return sorted(
        (s.start_ms - t0, s.attrs["src"], s.attrs["dst"])
        for s in sim.obs.spans if s.trace_id == 7 and s.name == "net.hop"
    )


# -- (e) planted mutants --------------------------------------------------------


def _keep_acks_of_crashed_nodes(self, src):
    pass


def _stamp_term_at_handle_time(self):
    pass


def _instant_as_t_plus_fsync_plus_one_way(self, when, fn, held, delay, duplicate):
    # A held copy's entry at t + (fsync + one_way), not (t + fsync) + one_way.
    self._schedule(FSYNC + delay, fn, held, delay, duplicate)


MUTANTS = {
    "no withdraw on crash": (
        Network, "withdraw_held", _keep_acks_of_crashed_nodes,
        lambda mp: TestFsyncWindow().test_a_crash_inside_the_window_sends_and_counts_no_ack(),
    ),
    "term stamped at handle time": (
        RaftNode, "_restamp_held_acks", _stamp_term_at_handle_time,
        lambda mp: TestFsyncWindow().test_a_term_change_inside_the_window_restamps_the_ack(),
    ),
    "instant t + (fsync + one_way)": (
        Simulator, "_schedule_at", _instant_as_t_plus_fsync_plus_one_way,
        lambda mp: TestFsyncWindow()
        .test_a_held_ack_lands_at_exactly_its_fsync_instant_plus_one_way(),
    ),
}


@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_planted_mutant_is_killed(monkeypatch, mutant):
    owner, attr, planted, test = MUTANTS[mutant]
    monkeypatch.setattr(owner, attr, planted)
    with pytest.raises(AssertionError):
        test(monkeypatch)
