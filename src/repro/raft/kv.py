"""A replicated KV / lock-record service on top of Raft (the etcd stand-in).

The §5.6 replicated LVI server stores lock records and idempotency keys in
a three-node etcd cluster spread across availability zones.  This module
provides:

* :class:`KVStateMachine` — the deterministic state machine each Raft node
  applies: put/get/delete/compare-and-put over a flat dict.
* :class:`RaftCluster` — convenience wiring: builds N nodes on a private
  network with AZ-scale latencies, finds leaders, retries submissions
  across elections.

A lock acquisition in the replicated server is one committed ``put`` —
which is why §5.6 measures ~2.3 ms per lock: one fsync on the leader plus a
majority round trip with follower fsyncs.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Generator, Optional, Tuple

from ..sim import LatencyTable, Network, RandomStreams, Simulator
from .node import NotLeader, RaftConfig, RaftNode

__all__ = ["KVStateMachine", "RaftCluster"]


class KVStateMachine:
    """Deterministic command interpreter replicated by Raft.

    Commands (tuples, so they serialise trivially):

    * ``("put", key, value)`` → previous value
    * ``("mput", ((key, value), ...))`` → number of keys written (batch:
      one consensus round for many writes — the §5.6 batching optimization)
    * ``("get", key)`` → current value (committed read, linearizable)
    * ``("delete", key)`` → True if the key existed
    * ``("cap", key, expected, value)`` → compare-and-put; True on success
    """

    def __init__(self):
        self.data: Dict[str, Any] = {}

    def apply(self, command: Tuple) -> Any:
        op = command[0]
        if op == "put":
            _op, key, value = command
            previous = self.data.get(key)
            self.data[key] = value
            return previous
        if op == "mput":
            _op, pairs = command
            for key, value in pairs:
                self.data[key] = value
            return len(pairs)
        if op == "get":
            return self.data.get(command[1])
        if op == "delete":
            return self.data.pop(command[1], None) is not None
        if op == "cap":
            _op, key, expected, value = command
            if self.data.get(key) != expected:
                return False
            self.data[key] = value
            return True
        raise ValueError(f"unknown KV command {command!r}")


def _az_latency_table(n: int, az_rtt_ms: float) -> LatencyTable:
    rtts = {}
    for i in range(n):
        for j in range(i + 1, n):
            rtts[(f"az{i}", f"az{j}")] = az_rtt_ms
    return LatencyTable(rtts, intra_rtt=max(az_rtt_ms / 4, 0.05))


class RaftCluster:
    """N Raft nodes, each with its own :class:`KVStateMachine` copy."""

    def __init__(
        self,
        sim: Simulator,
        streams: RandomStreams,
        n: int = 3,
        config: Optional[RaftConfig] = None,
        az_rtt_ms: float = 0.8,
    ):
        if n < 3 or n % 2 == 0:
            raise ValueError("cluster size must be an odd number >= 3")
        self.sim = sim
        self.config = config or RaftConfig()
        # The cluster lives on its own private network: AZ-scale latency,
        # independent of the WAN the application uses.
        self.net = Network(sim, _az_latency_table(n, az_rtt_ms), streams)
        node_ids = [f"raft-{i}" for i in range(n)]
        self.machines: Dict[str, KVStateMachine] = {nid: KVStateMachine() for nid in node_ids}
        self.nodes: Dict[str, RaftNode] = {}
        seqs = itertools.count(1)
        for i, nid in enumerate(node_ids):
            machine = self.machines[nid]
            self.nodes[nid] = RaftNode(
                sim,
                self.net,
                nid,
                region=f"az{i}",
                peer_ids=node_ids,
                apply_fn=machine.apply,
                streams=streams,
                seqs=seqs,
                config=self.config,
            )

    def start(self) -> None:
        """Boot every node; an election follows within the timeout span."""
        for node in self.nodes.values():
            node.start()

    def leader(self) -> Optional[RaftNode]:
        """The current leader, or None mid-election."""
        leaders = [n for n in self.nodes.values() if n.is_leader]
        if len(leaders) > 1:
            # Multiple stale leaders can coexist transiently; pick the one
            # with the highest term (the only one that can commit).
            leaders.sort(key=lambda n: n.current_term)
            return leaders[-1]
        return leaders[0] if leaders else None

    def submit(self, command: Tuple, retry_delay_ms: float = 10.0, max_tries: int = 200) -> Generator:
        """Submit a command, retrying across elections; a generator that
        returns the state machine's result.  The commit resumes it in
        place (an :class:`~repro.sim.core.Arrival`)."""
        for _attempt in range(max_tries):
            node = self.leader()
            if node is None:
                yield self.sim.timeout(retry_delay_ms)
                continue
            try:
                result = yield node.submit(command)
                return result
            except NotLeader:
                yield self.sim.timeout(retry_delay_ms)
        raise NotLeader(None)

    # -- failure injection -------------------------------------------------

    def crash_leader(self) -> Optional[str]:
        """Crash the current leader (if any); returns its id."""
        node = self.leader()
        if node is None:
            return None
        node.crash()
        return node.node_id

    def committed_value(self, key: str) -> Any:
        """Read a key from the leader's state machine (test helper)."""
        node = self.leader()
        if node is None:
            raise NotLeader(None)
        return self.machines[node.node_id].data.get(key)
