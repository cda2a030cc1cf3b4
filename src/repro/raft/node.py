"""Raft consensus (Ongaro & Ousterhout) over the simulated network.

The paper's replicated LVI server (§5.6) stores its locks in a three-node
etcd cluster spread across availability zones; etcd is Raft underneath.
This module is that substrate, built from scratch: leader election with
randomized timeouts, log replication with the consistency check, commit via
majority match, and state-machine application in log order.

Scope choices (documented, not hidden): no snapshots/compaction and no
membership changes — neither is exercised by the paper.  Crash/recovery is
modelled (persistent term/vote/log survive; volatile state resets), which
is what the §5.6 fault-tolerance argument needs.

The ``fsync_ms`` knob models the durable-write latency etcd pays before
acknowledging; with sub-millisecond AZ round trips it produces the ~2.3 ms
per-lock commit latency the paper measures.  The leader persists a new
entry before replicating it (a timer, then the broadcast).  A follower
that appends entries answers once they are durable, at the *fsync instant*
``t + fsync_ms``: it decides the ack when the append arrives and holds it
(:meth:`Network.send_at`), so the ack costs one queue entry, its arrival
at exactly ``(t + fsync_ms) + one_way``.  Until the fsync instant the ack
is not yet sent:

* a crash takes it back (the write never became durable): no ack, and
  nothing counted in ``messages_sent``;
* a term change re-stamps it, because an ack carries the term its sender
  has when it leaves.

From the fsync instant on it is on the wire, and a crash does not stop it.
A heartbeat that appends nothing is answered at once.

A commit wakes its waiter in place: the event :meth:`RaftNode.submit`
returns is an :class:`~repro.sim.core.Arrival`, completed only inside a
queue entry — the ack delivery that advances the commit index, a
follower's apply inside an append delivery, an append that overwrites the
entry (a deposed leader's, failed with :class:`NotLeader`), or
:meth:`RaftNode.crash`, run by a fault entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ..sim import Network, RandomStreams, Simulator
from ..sim.core import Arrival

__all__ = ["RaftConfig", "RaftNode", "NotLeader", "LogEntry"]


class NotLeader(Exception):
    """Submitted a command to a node that is not the current leader.

    Carries ``hint``: the node's best guess at who the leader is.
    """

    def __init__(self, hint: Optional[str] = None):
        super().__init__(f"not leader (hint: {hint})")
        self.hint = hint


@dataclass(frozen=True)
class LogEntry:
    """One replicated log slot."""

    term: int
    command: Any
    seq: int  # unique submission id, for client correlation


@dataclass
class RaftConfig:
    """Timing parameters (milliseconds of virtual time)."""

    heartbeat_ms: float = 15.0
    election_timeout_min_ms: float = 60.0
    election_timeout_max_ms: float = 120.0
    fsync_ms: float = 0.7  # durable-write latency before acknowledging


# Message types (tuples keep the network layer dumb).
_REQUEST_VOTE = "request_vote"
_VOTE_REPLY = "vote_reply"
_APPEND = "append_entries"
_APPEND_REPLY = "append_reply"

FOLLOWER = "follower"
CANDIDATE = "candidate"
LEADER = "leader"


class RaftNode:
    """One Raft peer.

    ``apply_fn(command) -> result`` is the replicated state machine; it is
    invoked exactly once per committed entry, in log order, on every node.
    The submitting node resolves the submitter's wait event with the
    ``apply_fn`` result.  ``seqs`` numbers submissions; the nodes of one
    cluster share it, so every log entry's ``seq`` is unique.
    """

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        node_id: str,
        region: str,
        peer_ids: List[str],
        apply_fn: Callable[[Any], Any],
        streams: RandomStreams,
        seqs: Iterator[int],
        config: Optional[RaftConfig] = None,
    ):
        self.sim = sim
        self.net = net
        self.node_id = node_id
        self.region = region
        self.peers = [p for p in peer_ids if p != node_id]
        self.apply_fn = apply_fn
        self._seqs = seqs
        self.config = config or RaftConfig()
        self._rng = streams.stream(f"raft.{node_id}")

        # Persistent state (survives crashes).
        self.current_term = 0
        self.voted_for: Optional[str] = None
        self.log: List[LogEntry] = []

        # Volatile state.
        self.state = FOLLOWER
        self.commit_index = 0   # 1-based; 0 = nothing committed
        self.last_applied = 0
        self.leader_hint: Optional[str] = None

        # Leader state.
        self.next_index: Dict[str, int] = {}
        self.match_index: Dict[str, int] = {}
        self._votes: set = set()

        # Client waits: seq -> Arrival resolved with apply result.
        self._pending: Dict[int, Arrival] = {}

        self._election_timer = None
        self._heartbeat_timer = None
        self._alive = False
        self.net.register_handler(node_id, region, self._on_message)

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        """Boot (or reboot) the node as a follower."""
        self._alive = True
        self.state = FOLLOWER
        self._reset_election_timer()

    def crash(self) -> None:
        """Stop processing messages and timers; persistent state is kept."""
        self._alive = False
        self._cancel_timers()
        # Volatile leader state is lost, and so are the acks whose fsync
        # had not finished.
        self.state = FOLLOWER
        self._votes = set()
        self.net.withdraw_held(self.node_id)
        pending, self._pending = self._pending, {}
        for commit in pending.values():
            commit.fail(NotLeader(None))

    def recover(self) -> None:
        """Restart after a crash; commit_index is rebuilt by the leader."""
        self.commit_index = min(self.commit_index, len(self.log))
        self.start()

    @property
    def is_leader(self) -> bool:
        return self._alive and self.state == LEADER

    # -- client interface ----------------------------------------------------

    def submit(self, command: Any) -> Arrival:
        """Replicate a command; the event resolves with apply_fn's result
        once the entry commits, or fails with :class:`NotLeader` if this
        node crashes or the entry is overwritten first.  Raises
        :class:`NotLeader` immediately if this node is not the leader."""
        if not self.is_leader:
            raise NotLeader(self.leader_hint)
        seq = next(self._seqs)
        entry = LogEntry(self.current_term, command, seq)
        self.log.append(entry)
        commit = Arrival(self.sim, name="commit")
        self._pending[seq] = commit
        # Leader persists before replicating (its own fsync).
        self.sim.schedule(self.config.fsync_ms, self._broadcast_append)
        return commit

    # -- timers ----------------------------------------------------------------

    def _reset_election_timer(self) -> None:
        if self._election_timer is not None:
            self._election_timer.cancel()
        span = self.config.election_timeout_max_ms - self.config.election_timeout_min_ms
        timeout = self.config.election_timeout_min_ms + self._rng.random() * span
        self._election_timer = self.sim.schedule(timeout, self._on_election_timeout)

    def _cancel_timers(self) -> None:
        if self._election_timer is not None:
            self._election_timer.cancel()
            self._election_timer = None
        if self._heartbeat_timer is not None:
            self._heartbeat_timer.cancel()
            self._heartbeat_timer = None

    def _on_election_timeout(self) -> None:
        if not self._alive or self.state == LEADER:
            return
        self._become_candidate()

    def _on_heartbeat_timer(self) -> None:
        if not self._alive or self.state != LEADER:
            return
        self._broadcast_append()
        self._heartbeat_timer = self.sim.schedule(
            self.config.heartbeat_ms, self._on_heartbeat_timer
        )

    # -- elections ---------------------------------------------------------------

    def _become_candidate(self) -> None:
        self.current_term += 1
        self._restamp_held_acks()
        self.state = CANDIDATE
        self.voted_for = self.node_id
        self._votes = {self.node_id}
        self._reset_election_timer()
        last_index = len(self.log)
        last_term = self.log[-1].term if self.log else 0
        for peer in self.peers:
            self.net.send(
                self.node_id,
                peer,
                (_REQUEST_VOTE, self.current_term, self.node_id, last_index, last_term),
            )
        self._maybe_win()

    def _maybe_win(self) -> None:
        if self.state != CANDIDATE:
            return
        if len(self._votes) >= self._majority():
            self._become_leader()

    def _become_leader(self) -> None:
        self.state = LEADER
        self.leader_hint = self.node_id
        self.next_index = {p: len(self.log) + 1 for p in self.peers}
        self.match_index = {p: 0 for p in self.peers}
        if self._election_timer is not None:
            self._election_timer.cancel()
        self._broadcast_append()
        self._heartbeat_timer = self.sim.schedule(
            self.config.heartbeat_ms, self._on_heartbeat_timer
        )

    def _majority(self) -> int:
        return (len(self.peers) + 1) // 2 + 1

    # -- replication ----------------------------------------------------------------

    def _broadcast_append(self) -> None:
        if not self._alive or self.state != LEADER:
            return
        for peer in self.peers:
            self._send_append(peer)

    def _send_append(self, peer: str) -> None:
        next_i = self.next_index.get(peer, len(self.log) + 1)
        prev_index = next_i - 1
        prev_term = self.log[prev_index - 1].term if prev_index >= 1 and self.log else 0
        entries = self.log[next_i - 1:]
        self.net.send(
            self.node_id,
            peer,
            (
                _APPEND,
                self.current_term,
                self.node_id,
                prev_index,
                prev_term,
                tuple(entries),
                self.commit_index,
            ),
        )

    # -- message handling ------------------------------------------------------------

    def _on_message(self, msg: Tuple, src: str) -> None:
        if not self._alive:
            return
        kind = msg[0]
        if kind == _REQUEST_VOTE:
            self._handle_request_vote(msg, src)
        elif kind == _VOTE_REPLY:
            self._handle_vote_reply(msg, src)
        elif kind == _APPEND:
            self._handle_append(msg, src)
        elif kind == _APPEND_REPLY:
            self._handle_append_reply(msg, src)

    def _observe_term(self, term: int) -> None:
        if term > self.current_term:
            self.current_term = term
            self._restamp_held_acks()
            self.voted_for = None
            if self.state == LEADER and self._heartbeat_timer is not None:
                self._heartbeat_timer.cancel()
            if self.state != FOLLOWER:
                self.state = FOLLOWER
                self._reset_election_timer()

    def _restamp_held_acks(self) -> None:
        # An ack carries the term its sender has when it leaves, at the end
        # of its fsync: one still held across a term change takes the new one.
        for held in self.net.held_from(self.node_id):
            _kind, _term, success, match_through = held.payload
            held.payload = (_APPEND_REPLY, self.current_term, success, match_through)

    def _handle_request_vote(self, msg: Tuple, src: str) -> None:
        _kind, term, candidate, last_index, last_term = msg
        self._observe_term(term)
        grant = False
        if term == self.current_term and self.voted_for in (None, candidate):
            my_last_term = self.log[-1].term if self.log else 0
            up_to_date = (last_term, last_index) >= (my_last_term, len(self.log))
            if up_to_date:
                grant = True
                self.voted_for = candidate
                self._reset_election_timer()
        self.net.send(self.node_id, src, (_VOTE_REPLY, self.current_term, grant))

    def _handle_vote_reply(self, msg: Tuple, src: str) -> None:
        _kind, term, granted = msg
        self._observe_term(term)
        if self.state == CANDIDATE and term == self.current_term and granted:
            self._votes.add(src)
            self._maybe_win()

    def _handle_append(self, msg: Tuple, src: str) -> None:
        _kind, term, leader, prev_index, prev_term, entries, leader_commit = msg
        self._observe_term(term)
        if term < self.current_term:
            self.net.send(
                self.node_id, src, (_APPEND_REPLY, self.current_term, False, 0)
            )
            return
        # Valid leader for this term.
        self.leader_hint = leader
        if self.state != FOLLOWER:
            self.state = FOLLOWER
        self._reset_election_timer()

        # Log consistency check.
        if prev_index > len(self.log) or (
            prev_index >= 1 and self.log[prev_index - 1].term != prev_term
        ):
            self.net.send(
                self.node_id, src, (_APPEND_REPLY, self.current_term, False, 0)
            )
            return
        # Append/overwrite entries.
        insert_at = prev_index
        overwritten: List[Arrival] = []
        for i, entry in enumerate(entries):
            index = insert_at + i  # 0-based position
            if index < len(self.log):
                if self.log[index].term != entry.term:
                    # Entries a deposed leader accepted and never committed:
                    # their submitters must retry on the new leader.
                    for lost in self.log[index:]:
                        waiter = self._pending.pop(lost.seq, None)
                        if waiter is not None:
                            overwritten.append(waiter)
                    del self.log[index:]
                    self.log.append(entry)
            else:
                self.log.append(entry)
        match_through = prev_index + len(entries)
        if leader_commit > self.commit_index:
            self.commit_index = min(leader_commit, len(self.log))
            self._apply_committed()

        ack = (_APPEND_REPLY, self.current_term, True, match_through)
        if entries:
            # Durable write before acknowledging new entries: the ack leaves
            # at the fsync instant (the module docstring).
            self.net.send_at(self.sim.now + self.config.fsync_ms, self.node_id, src, ack)
        else:
            self.net.send(self.node_id, src, ack)  # a heartbeat wrote nothing
        for waiter in overwritten:
            waiter.fail(NotLeader(leader))

    def _handle_append_reply(self, msg: Tuple, src: str) -> None:
        _kind, term, success, match_through = msg
        self._observe_term(term)
        if self.state != LEADER or term != self.current_term:
            return
        if success:
            if match_through > self.match_index.get(src, 0):
                self.match_index[src] = match_through
                self.next_index[src] = match_through + 1
                self._advance_commit()
        else:
            self.next_index[src] = max(1, self.next_index.get(src, 1) - 1)
            self._send_append(src)

    def _advance_commit(self) -> None:
        for n in range(len(self.log), self.commit_index, -1):
            if self.log[n - 1].term != self.current_term:
                continue  # only entries from the current term commit by count
            replicas = 1 + sum(1 for m in self.match_index.values() if m >= n)
            if replicas >= self._majority():
                self.commit_index = n
                self._apply_committed()
                break

    def _apply_committed(self) -> None:
        # A waiter resumes inside ``trigger`` and may submit again, which
        # appends to the log and adds to ``_pending``: the loop re-reads its
        # bounds every round and takes each waiter out before waking it.
        while self.last_applied < self.commit_index:
            self.last_applied += 1
            entry = self.log[self.last_applied - 1]
            result = self.apply_fn(entry.command)
            waiter = self._pending.pop(entry.seq, None)
            if waiter is not None:
                waiter.trigger(result)
