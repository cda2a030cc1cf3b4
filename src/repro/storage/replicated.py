"""A strongly consistent geo-replicated store (the Figure 1 baseline).

The paper's motivation experiment deploys DynamoDB global tables with
strong consistency across Virginia / Ohio / Oregon and shows that placing
consistent replicas near users does **not** help: the PRAM impossibility
result forces every strongly consistent access to pay for coordination
proportional to the inter-replica distance.

We reproduce that baseline with a from-scratch **ABD** (Attiya-Bar-Noy-
Dolev) multi-writer atomic register layered over the simulated network:

* each region hosts a replica holding (value, timestamp) per key;
* a client sends its operation to the *nearest* replica, which acts as
  coordinator (like a regional DynamoDB endpoint);
* reads run two majority phases (query-max, then write-back) and writes run
  two majority phases (query-max, then store) — the classic price of
  leaderless linearizability.

The resulting latencies exhibit exactly the shape of Figure 1: local-ish
access to the coordinator plus unavoidable cross-region quorum round trips.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Tuple

from ..errors import StorageError
from ..sim import Network, Simulator

__all__ = ["ReplicatedStore", "QuorumClient", "Timestamp"]


@dataclass(frozen=True, order=True)
class Timestamp:
    """Lamport-style write timestamp: (counter, writer id) totally ordered."""

    counter: int
    writer: str

    @staticmethod
    def zero() -> "Timestamp":
        return Timestamp(0, "")


@dataclass
class _Tagged:
    value: Any
    ts: Timestamp


class _Replica:
    """One region's replica: a tagged-value map plus its RPC handler."""

    def __init__(self, store: "ReplicatedStore", region: str):
        self.store = store
        self.region = region
        self.name = f"{store.name}-replica-{region}"
        self.data: Dict[str, _Tagged] = {}
        store.net.serve(self.name, region, self.handle)

    def handle(self, request: Tuple, src: str) -> Generator:
        """RPC handler for both ABD phases and client operations."""
        op = request[0]
        if op == "query":
            _, key = request
            tagged = self.data.get(key)
            yield self.store.sim.timeout(self.store.replica_service_ms)
            if tagged is None:
                return (Timestamp.zero(), None)
            return (tagged.ts, tagged.value)
        if op == "store":
            _, key, value, ts = request
            yield self.store.sim.timeout(self.store.replica_service_ms)
            current = self.data.get(key)
            if current is None or current.ts < ts:
                self.data[key] = _Tagged(value, ts)
            return "ack"
        if op == "client_read":
            _, key = request
            value = yield from self.store._abd_read(self, key)
            return value
        if op == "client_write":
            _, key, value = request
            yield from self.store._abd_write(self, key, value)
            return "ok"
        raise StorageError(f"unknown replicated-store op {op!r}")


class ReplicatedStore:
    """The replica group; create clients with :meth:`client`."""

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        replica_regions: List[str],
        name: str = "global-table",
        replica_service_ms: float = 1.0,
    ):
        if len(replica_regions) < 2:
            raise ValueError("a replicated store needs at least 2 replicas")
        self.sim = sim
        self.net = net
        self.name = name
        self.replica_service_ms = replica_service_ms
        self.regions = list(replica_regions)
        self.replicas = {r: _Replica(self, r) for r in self.regions}
        self.majority = len(self.regions) // 2 + 1
        self._writer_ids = itertools.count()

    # -- client factory ------------------------------------------------------

    def client(self, region: str, name: str) -> "QuorumClient":
        """A client endpoint in ``region`` routed to its nearest replica."""
        coordinator = min(
            self.regions, key=lambda r: self.net.latency.rtt(region, r)
        )
        self.net.register(name, region)
        return QuorumClient(self, name, region, coordinator)

    # -- ABD protocol (runs on the coordinator replica) ------------------------

    def _quorum(self, coordinator: _Replica, request: Tuple) -> Generator:
        """Send ``request`` to every replica; return the first majority of
        responses (including the coordinator's own, answered locally)."""
        responses: List[Any] = []
        done = self.sim.event(name="quorum")

        def one(replica: _Replica) -> Generator:
            if replica is coordinator:
                # Local processing: no network hop, just service time.
                result = yield from replica.handle(request, coordinator.name)
            else:
                result = yield from self.net.call(coordinator.name, replica.name, request)
            responses.append(result)
            if len(responses) >= self.majority and not done.triggered:
                done.trigger(list(responses))

        for replica in self.replicas.values():
            self.sim.spawn(one(replica), name=f"quorum-leg({replica.region})")
        results = yield done
        return results

    def _abd_read(self, coordinator: _Replica, key: str) -> Generator:
        """Two-phase linearizable read: query-max then write-back."""
        answers = yield from self._quorum(coordinator, ("query", key))
        ts, value = max(answers, key=lambda pair: pair[0])
        # Write-back so later reads cannot observe an older value.
        yield from self._quorum(coordinator, ("store", key, value, ts))
        return value

    def _abd_write(self, coordinator: _Replica, key: str, value: Any) -> Generator:
        """Two-phase write: query-max timestamp, then store higher one."""
        answers = yield from self._quorum(coordinator, ("query", key))
        max_ts = max(ts for ts, _value in answers)
        new_ts = Timestamp(max_ts.counter + 1, coordinator.name)
        yield from self._quorum(coordinator, ("store", key, value, new_ts))

    # -- convenience for tests ---------------------------------------------------

    def peek(self, region: str, key: str) -> Optional[Any]:
        """Directly inspect one replica's current value (test helper)."""
        tagged = self.replicas[region].data.get(key)
        return None if tagged is None else tagged.value


class QuorumClient:
    """A region-local handle performing linearizable reads and writes."""

    def __init__(self, store: ReplicatedStore, name: str, region: str, coordinator: str):
        self.store = store
        self.name = name
        self.region = region
        self.coordinator = coordinator

    def read(self, table: str, key: str) -> Generator:
        """Linearizable read; generator returning the value (or None)."""
        target = self.store.replicas[self.coordinator].name
        value = yield from self.store.net.call(
            self.name, target, ("client_read", f"{table}/{key}")
        )
        return value

    def write(self, table: str, key: str, value: Any) -> Generator:
        """Linearizable write; generator completing when durable."""
        target = self.store.replicas[self.coordinator].name
        yield from self.store.net.call(self.name, target, ("client_write", f"{table}/{key}", value))
