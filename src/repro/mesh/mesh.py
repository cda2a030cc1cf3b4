"""The PoP cache mesh: cooperating near-user caches under causal gossip.

CausalMesh (PAPERS.md) observes that a set of edge caches can stay useful
under partitions and node loss if they exchange updates with enough causal
metadata to only ever apply *causal cuts*.  This module reproduces that
idea on top of Radical's near-user caches:

* Every PoP wraps its region's :class:`~repro.storage.NearUserCache` in a
  :class:`MeshPop` that assigns each locally learned update an
  ``(origin, seq)`` id — ``origin`` is ``region#epoch`` (the epoch bumps
  on crash-restart so a reborn PoP never reuses ids) — plus the origin
  version vector the PoP had applied at write time (the update's causal
  dependencies).
* PoPs gossip in mesh-wide rounds on a fixed virtual-time interval (one
  timer walks every PoP) with one-way, ship-once anti-entropy.  A
  :class:`GossipDigest` is a fire-and-forget message carrying the sender's
  epoch, its version vector and the updates it has not yet shipped to that
  peer; the receiver applies it synchronously at delivery and sends
  nothing back.
* The cumulative ack is piggybacked: the vector every digest carries *is*
  the acknowledgement of everything the sender has applied.  Receivers
  merge it element-wise-max within an epoch (a late, older digest never
  lowers it) and reset it only when the sender's epoch advances.
* Each PoP keeps a per-peer *in-flight mark* — the highest sequence per
  origin already shipped to that peer — so an update crosses a link once.
  The mark is rewound to the peer's acked vector in exactly two cases: the
  peer's epoch advanced (it crash-restarted with a zeroed vector and is
  re-bootstrapped from scratch), or the peer's vector failed to cover the
  mark for ``gossip_timeout_ms`` past the peer's next round, the earliest
  digest that could have acked it (loss or partition — the retransmit).
* A round sends a peer nothing when there is nothing unshipped for it, the
  PoP's own vector is unchanged since its last digest to that peer, and
  that digest left less than ``gossip_timeout_ms`` ago; otherwise an
  update-less digest flows as the heartbeat that acks what was received
  and lets a restarted peer be detected.
* A receiver applies updates per-origin in sequence order and only once
  every dependency is satisfied; out-of-order arrivals are buffered.  The
  application order at every PoP therefore always forms a causal cut —
  `repro.consistency.check_causal_cut` replays the log and proves it.
* Updates carry authoritative primary versions, so application is a simple
  version comparison (newer wins) and relayed updates are safe: a PoP
  forwards everything it has applied, which gives transitive delivery
  around partitioned links.
* Values are shared, never copied (the ownership rule in
  :mod:`repro.storage.fastcopy`): an update carries the value its origin's
  cache entry holds, and every PoP that applies it, every digest that
  relays it and every cut reply that serves it holds that one object.

Correctness never depends on any of this: the LVI protocol validates every
cached version at the primary before a speculative result is released.
The mesh exists to keep caches *fresh* — fewer validation aborts, fewer
backup executions — and to give migrating clients a PoP that can satisfy
their session cut (see :mod:`repro.mesh.session`).

Determinism: gossip runs on the shared virtual-time simulator, draws no
randomness of its own, and registers its endpoints only in
:meth:`CacheMesh.start` — *after* every runtime is built — so endpoint
name counters and RNG stream keys are untouched.  A mesh with fewer than
two PoPs registers nothing and schedules nothing: a 1-PoP mesh deployment
is virtual-time-identical to the seed single-cache path.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Tuple

from ..consistency import CutEvent
from ..errors import FaultConfigError, ProtocolError
from ..sim.network import RpcTimeout
from ..storage.cache import CacheEntry, NearUserCache
from ..storage.kvstore import Item
from .session import Key, Session

__all__ = [
    "MeshSpec",
    "MeshUpdate",
    "GossipDigest",
    "CutRequest",
    "CutReply",
    "MeshPop",
    "CacheMesh",
]


@dataclass(frozen=True)
class MeshSpec:
    """Declarative mesh configuration (lives on ``TopologySpec.mesh``)."""

    #: Gossip round period of the mesh, virtual ms.
    gossip_interval_ms: float = 100.0
    #: Retransmit / idle-heartbeat horizon: an idle link still carries one
    #: digest per horizon, and shipped updates are shipped again once the
    #: peer's vector has been silent about them this long (must exceed the
    #: worst inter-PoP round trip; DE<->JP is ~230 ms in the paper's table).
    gossip_timeout_ms: float = 400.0
    #: RPC timeout for a session cut fetch during re-attach.
    cut_timeout_ms: float = 400.0
    #: Ship at most this many updates per digest; the remainder waits for
    #: the next round (bounds message size under burst writes).
    max_updates_per_digest: int = 64

    @property
    def retransmit_after_ms(self) -> float:
        """How long shipped updates may stay unacked.  The ack rides the
        peer's next digest, which leaves up to one gossip interval after
        the updates land — only the round trip around that is the wait
        ``gossip_timeout_ms`` bounds."""
        return self.gossip_timeout_ms + self.gossip_interval_ms

    def validate(self) -> None:
        if self.gossip_interval_ms <= 0:
            raise FaultConfigError(
                f"mesh gossip_interval_ms must be > 0 (got {self.gossip_interval_ms})"
            )
        if self.gossip_timeout_ms <= 0 or self.cut_timeout_ms <= 0:
            raise FaultConfigError("mesh timeouts must be > 0")
        if self.max_updates_per_digest < 1:
            raise FaultConfigError(
                f"mesh max_updates_per_digest must be >= 1 (got {self.max_updates_per_digest})"
            )


class MeshUpdate:
    """One versioned item update flowing through the mesh."""

    __slots__ = ("origin", "seq", "table", "key", "value", "version", "deps")

    def __init__(
        self,
        origin: str,
        seq: int,
        table: str,
        key: str,
        value: Any,
        version: int,
        deps: Tuple[Tuple[str, int], ...],
    ):
        self.origin = origin
        self.seq = seq
        self.table = table
        self.key = key
        self.value = value
        self.version = version
        self.deps = deps

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MeshUpdate({self.origin}:{self.seq} {self.table}/{self.key}@v{self.version})"


class GossipDigest:
    """One one-way gossip message: the sender's incarnation and applied
    vector (the cumulative ack of everything it has received) plus the
    updates it has not yet shipped to this peer."""

    __slots__ = ("sender", "vv", "updates", "epoch")

    def __init__(
        self,
        sender: str,
        vv: Tuple[Tuple[str, int], ...],
        updates: Tuple[MeshUpdate, ...] = (),
        epoch: int = 0,
    ):
        self.sender = sender
        self.vv = vv
        self.updates = updates
        self.epoch = epoch


class _PeerLink:
    """What a PoP remembers about its directed gossip link to one peer."""

    __slots__ = ("epoch", "mark", "sent_version", "sent_at", "awaited", "deadline")

    def __init__(self) -> None:
        #: The peer incarnation last heard from (-1: never).
        self.epoch = -1
        #: In-flight mark: origin -> highest seq already shipped to the peer.
        self.mark: Dict[str, int] = {}
        #: The PoP's vector version at its last digest to the peer; -1
        #: forces a digest next round (truncated digest, rewound mark).
        self.sent_version = -1
        self.sent_at = 0.0
        #: The mark the peer's vector must cover by ``deadline``, or the
        #: in-flight mark is rewound (None: nothing shipped is unacked).
        self.awaited: Optional[Dict[str, int]] = None
        self.deadline = 0.0

    def rewind(self) -> None:
        """Forget what is in flight: the next digest (owed at once) ships
        from the peer's acked vector again."""
        self.mark.clear()
        self.awaited = None
        self.sent_version = -1


class CutRequest:
    """Session cut fetch: the unsatisfied per-key floors of a re-attaching
    client."""

    __slots__ = ("floors",)

    def __init__(self, floors: Tuple[Tuple[Key, int], ...]):
        self.floors = floors


class CutReply:
    """Entries the serving PoP holds at-or-above the requested floors."""

    __slots__ = ("sender", "entries")

    def __init__(self, sender: str, entries: Tuple[Tuple[str, str, Any, int], ...]):
        self.sender = sender
        self.entries = entries


class MeshPop(NearUserCache):
    """A near-user cache that participates in the gossip mesh.

    Subclasses :class:`NearUserCache` so the runtime's cache interface is
    unchanged; the overrides only *add* update logging and timestamping.
    """

    def __init__(self, mesh: "CacheMesh", region: str, persistent: bool = False):
        super().__init__(region, persistent=persistent)
        self.mesh = mesh
        #: False while the PoP location is crashed: the runtime refuses
        #: invocations and gossip neither sends nor receives.
        self.serving = True
        #: Crash-restart incarnation counter; part of the origin id so a
        #: reborn PoP never reuses (origin, seq) pairs.
        self.epoch = 0
        self._own_seq = 0
        #: Applied origin version vector: origin -> highest contiguously
        #: applied sequence number.
        self.vv: Dict[str, int] = {}
        #: Applied updates held for relay: origin -> seq -> update.
        self.updates: Dict[str, Dict[int, MeshUpdate]] = {}
        #: Updates whose dependencies are not yet satisfied, by (origin, seq).
        self.buffered: Dict[Tuple[str, int], MeshUpdate] = {}
        #: Acked vector of each peer (merged from the digests it sends); with
        #: the link's in-flight mark it decides what the next digest ships.
        self.peer_vv: Dict[str, Dict[str, int]] = {}
        self._links: Dict[str, _PeerLink] = {}
        #: Bumped on every ``vv`` change: what a link compares to know its
        #: peer has seen this PoP's current vector.
        self._vv_version = 0
        #: ``vv`` as a sorted tuple (None: stale), over cached sorted keys.
        self._origin_order: List[str] = []
        self._vv_tuple: Optional[Tuple[Tuple[str, int], ...]] = ()
        #: Application log for causal-cut checking, one per incarnation.
        self.applied_log: List[CutEvent] = []
        self._archived_logs: List[Tuple[str, List[CutEvent]]] = []

    # -- identity ----------------------------------------------------------

    @property
    def origin(self) -> str:
        return f"{self.region}#{self.epoch}"

    @property
    def endpoint_name(self) -> str:
        """The RPC endpoint (session cut fetches); also the source of every
        digest this PoP sends."""
        return f"mesh-{self.region}"

    @property
    def gossip_endpoint_name(self) -> str:
        """The one-way endpoint digests are delivered to."""
        return f"gossip-{self.region}"

    def application_logs(self) -> List[Tuple[str, List[CutEvent]]]:
        """Every incarnation's application log, oldest first, for the
        causal-cut checker."""
        return self._archived_logs + [(f"{self.region}#{self.epoch}", list(self.applied_log))]

    # -- cache overrides: log what we learn locally ------------------------

    def apply_local_write(self, table: str, key: str, value: Any, version: int) -> None:
        super().apply_local_write(table, key, value, version)
        if self._gossip_active():
            # Log the cache's own copy, not the function's object.
            self._log_own_update(table, key, self._entries[(table, key)].value, version)

    def install(self, table: str, key: str, item: Optional[Item]) -> None:
        super().install(table, key, item)
        # Validation repairs (fresh items installed after an LVI failure)
        # gossip like local writes.
        if item is not None and self._gossip_active():
            self._log_own_update(table, key, item.value, item.version)

    def warm(self, snapshot: Dict[str, Dict[str, Item]]) -> None:
        """Build-time warming only: a warm item is not an update and is
        never logged, so warming after the mesh has started is an error."""
        if self.mesh.started:
            raise RuntimeError(
                f"cannot warm mesh pop {self.region!r}: gossip already started"
            )
        super().warm(snapshot)

    def _gossip_active(self) -> bool:
        return self.mesh.started and self.serving

    def _log_own_update(self, table: str, key: str, value: Any, version: int) -> None:
        deps = self._sorted_vv()
        self._own_seq += 1
        seq = self._own_seq
        origin = self.origin
        update = MeshUpdate(origin, seq, table, key, value, version, deps)
        self.updates.setdefault(origin, {})[seq] = update
        self._advance(origin, seq)
        self.applied_log.append(CutEvent(origin, seq, deps))

    def _advance(self, origin: str, seq: int) -> None:
        if origin not in self.vv:
            insort(self._origin_order, origin)
        self.vv[origin] = seq
        self._vv_version += 1
        self._vv_tuple = None

    def _sorted_vv(self) -> Tuple[Tuple[str, int], ...]:
        if self._vv_tuple is None:
            vv = self.vv
            self._vv_tuple = tuple([(origin, vv[origin]) for origin in self._origin_order])
        return self._vv_tuple

    # -- gossip: receive side ----------------------------------------------

    def receive_digest(self, digest: GossipDigest) -> GossipDigest:
        """Merge the sender's vector (its cumulative ack), apply what can be
        applied, buffer the rest.  Returns this PoP's own update-less digest
        — the ack the next round piggybacks; the mesh itself sends no reply."""
        sender = digest.sender
        link = self._link(sender)
        if digest.epoch > link.epoch:
            if link.epoch >= 0:
                # A reborn peer starts from a zeroed vector: forget what
                # the old incarnation acked and was sent.
                link.rewind()
            link.epoch = digest.epoch
            self.peer_vv[sender] = dict(digest.vv)
        elif digest.epoch == link.epoch:
            known = self.peer_vv.setdefault(sender, {})
            for origin, seq in digest.vv:
                if seq > known.get(origin, 0):
                    known[origin] = seq
        # else: a straggler from a dead incarnation acks nothing.
        for update in digest.updates:
            self._ingest(update)
        if self.buffered:
            self._drain_buffered()
        return GossipDigest(self.region, self._sorted_vv(), (), self.epoch)

    def _link(self, peer_region: str) -> _PeerLink:
        link = self._links.get(peer_region)
        if link is None:
            link = self._links[peer_region] = _PeerLink()
        return link

    def _ingest(self, update: MeshUpdate) -> None:
        if update.seq <= self.vv.get(update.origin, 0):
            return  # duplicate
        if self._can_apply(update):
            self._apply(update)
            return
        key = (update.origin, update.seq)
        if key in self.buffered:
            return
        self.buffered[key] = update
        mesh = self.mesh
        mesh.metrics.incr("mesh.updates_buffered")
        depth = len(self.buffered)
        if depth > mesh.buffered_max:
            mesh.metrics.incr("mesh.buffered_max", depth - mesh.buffered_max)
            mesh.buffered_max = depth

    def _can_apply(self, update: MeshUpdate) -> bool:
        if update.seq != self.vv.get(update.origin, 0) + 1:
            return False
        for origin, seq in update.deps:
            if origin == update.origin and seq < update.seq:
                continue  # own-origin prefix is implied by the seq check
            if self.vv.get(origin, 0) < seq:
                return False
        return True

    def _apply(self, update: MeshUpdate) -> None:
        self._advance(update.origin, update.seq)
        if self.buffered:  # a buffered copy of this update is now superseded
            self.buffered.pop((update.origin, update.seq), None)
        self.updates.setdefault(update.origin, {})[update.seq] = update
        self.applied_log.append(CutEvent(update.origin, update.seq, update.deps))
        if update.version > self.version(update.table, update.key):
            self._entries[(update.table, update.key)] = CacheEntry(
                value=update.value,
                version=update.version,
                installed_at=self._now(),
            )
        self.mesh.metrics.incr("mesh.updates_applied")

    def _drain_buffered(self) -> None:
        """Application is gapless per origin, so only each origin's next
        sequence number can ever become applicable."""
        buffered, vv = self.buffered, self.vv
        progress = True
        while progress and buffered:
            progress = False
            for origin in dict.fromkeys([origin for origin, _seq in buffered]):
                update = buffered.get((origin, vv.get(origin, 0) + 1))
                while update is not None and self._can_apply(update):
                    self._apply(update)
                    progress = True
                    update = buffered.get((origin, update.seq + 1))

    # -- gossip: send side --------------------------------------------------

    def digest_due(self, peer_region: str) -> bool:
        """Does this round owe the peer a digest?  Also where an ack
        overdue by ``retransmit_after_ms`` rewinds the in-flight mark."""
        link = self._links.get(peer_region)
        if link is None:
            return True
        now = self._now()
        spec = self.mesh.spec
        awaited = link.awaited
        if awaited is not None:
            acked = self.peer_vv.get(peer_region, {})
            if all([acked.get(origin, 0) >= seq for origin, seq in awaited.items()]):
                # Covered: keep watching whatever was shipped since.
                mark = link.mark = {
                    origin: seq for origin, seq in link.mark.items()
                    if seq > acked.get(origin, 0)
                }
                link.awaited = dict(mark) if mark else None
                link.deadline = now + spec.retransmit_after_ms
            elif now >= link.deadline:
                link.rewind()
                self.mesh.metrics.incr("mesh.gossip_timeout")
        return link.sent_version != self._vv_version or now - link.sent_at >= spec.gossip_timeout_ms

    def build_digest(self, peer_region: str, max_updates: int) -> GossipDigest:
        """Updates not yet shipped to the peer, per-origin in sequence
        order; advances the peer's in-flight mark over what it returns."""
        acked = self.peer_vv.get(peer_region, {})
        link = self._link(peer_region)
        mark = link.mark
        out: List[MeshUpdate] = []
        for origin, applied in self._sorted_vv():
            seq = max(acked.get(origin, 0), mark.get(origin, 0))
            if seq >= applied:
                continue
            held = self.updates[origin]
            room = max_updates - len(out)
            last = min(applied, seq + room)
            out.extend([held[n] for n in range(seq + 1, last + 1)])
            mark[origin] = last
            if len(out) >= max_updates:
                break
        now = self._now()
        # A full digest may have left updates behind: owe the peer another.
        link.sent_version = -1 if len(out) >= max_updates else self._vv_version
        link.sent_at = now
        if out and link.awaited is None:
            link.awaited = dict(mark)
            link.deadline = now + self.mesh.spec.retransmit_after_ms
        return GossipDigest(self.region, self._sorted_vv(), tuple(out), self.epoch)

    # -- session cuts --------------------------------------------------------

    def serve_cut(self, request: CutRequest) -> CutReply:
        entries: List[Tuple[str, str, Any, int]] = []
        for (table, key), floor in request.floors:
            entry = self._peek(table, key)
            if entry is not None and not entry.absent and entry.version >= floor:
                entries.append((table, key, entry.value, entry.version))
        return CutReply(self.region, tuple(entries))

    def unsatisfied_floors(self, session: Session) -> Dict[Key, int]:
        """Keys whose cached version (miss = -1) is below the session floor."""
        missing: Dict[Key, int] = {}
        for key, floor in session.floors().items():
            if floor <= 0:
                continue
            entry = self._peek(*key)
            version = -1 if entry is None or entry.absent else entry.version
            if version < floor:
                missing[key] = floor
        return missing

    def sync_session(self, session: Session) -> Generator:
        """Try to pull the session's unsatisfied cut from live peers.

        Best effort: whatever stays unsatisfied is handled by the runtime's
        floor enforcement (stale entries read as misses → full LVI path).
        Returns the number of entries fetched.
        """
        missing = self.unsatisfied_floors(session)
        if not missing:
            return 0
        mesh = self.mesh
        if not mesh.started:
            mesh.metrics.incr("mesh.cut_unsatisfied", len(missing))
            return 0
        fetched = 0
        for peer in mesh.peers_of(self.region):
            request = CutRequest(tuple(sorted(missing.items())))
            try:
                reply = yield from mesh.net.call(
                    self.endpoint_name,
                    f"mesh-{peer}",
                    request,
                    timeout=mesh.spec.cut_timeout_ms,
                )
            except RpcTimeout:
                mesh.metrics.incr("mesh.cut_timeout")
                continue
            for table, key, value, version in reply.entries:
                if version > self.version(table, key):
                    self._entries[(table, key)] = CacheEntry(
                        value=value,
                        version=version,
                        installed_at=self._now(),
                    )
                    fetched += 1
            missing = self.unsatisfied_floors(session)
            if not missing:
                break
        if missing:
            mesh.metrics.incr("mesh.cut_unsatisfied", len(missing))
        if fetched:
            mesh.metrics.incr("mesh.cut_fetched", fetched)
        return fetched

    # -- crash lifecycle (FaultScheduler targets) ----------------------------

    def crash(self) -> None:
        """The PoP location dies: stop serving, lose the cache (unless
        persistent) and all gossip bookkeeping."""
        self._archived_logs.append((self.origin, list(self.applied_log)))
        self.applied_log = []
        self.serving = False
        self.wipe()
        self.vv.clear()
        self._origin_order.clear()
        self._vv_version += 1
        self._vv_tuple = ()
        self.updates.clear()
        self.buffered.clear()
        self.peer_vv.clear()
        self._links.clear()
        self.mesh.on_pop_crash(self)

    def restart(self) -> None:
        """Come back with a fresh epoch and an empty vector; peers observe
        the zeroed vector in our next digest and re-send everything they
        hold, re-bootstrapping the cache through normal gossip."""
        self.epoch += 1
        self._own_seq = 0
        self.serving = True
        self.mesh.on_pop_restart(self)


class CacheMesh:
    """Builds the PoPs, runs the gossip rounds, owns the endpoints."""

    def __init__(self, sim, net, spec: MeshSpec, regions, metrics):
        spec.validate()
        self.sim = sim
        self.net = net
        self.spec = spec
        self.regions = list(regions)
        self.metrics = metrics
        self.pops: Dict[str, MeshPop] = {}
        self.started = False
        self._peers: Dict[str, List[str]] = {}
        #: High-water mark of any PoP's dependency buffer (also exported as
        #: the ``mesh.buffered_max`` counter).
        self.buffered_max = 0

    # -- construction (Deployment.build calls these) -------------------------

    def make_pop(self, region: str, persistent: bool = False) -> MeshPop:
        if region in self.pops:
            raise ValueError(f"mesh pop for region {region!r} already built")
        pop = MeshPop(self, region, persistent=persistent)
        pop.sim = self.sim  # timestamp entries from birth (warming included)
        self.pops[region] = pop
        return pop

    def pop(self, region: str) -> MeshPop:
        return self.pops[region]

    def peers_of(self, region: str) -> List[str]:
        return [r for r in sorted(self.pops) if r != region]

    def fault_targets(self) -> Dict[str, MeshPop]:
        return {f"pop-{region}": pop for region, pop in sorted(self.pops.items())}

    def start(self) -> None:
        """Register gossip endpoints and arm the mesh's one gossip tick.

        Called by ``Deployment.build`` after every runtime exists, so the
        mesh perturbs no endpoint-name counters or RNG streams.  With
        fewer than two PoPs this is a no-op: no endpoints, no timers, no
        events — the seed path, byte for byte.
        """
        if self.started or len(self.pops) < 2:
            return
        self.started = True
        self._peers = {region: self.peers_of(region) for region in sorted(self.pops)}
        for region, pop in sorted(self.pops.items()):
            self._register_endpoints(pop)
        self.sim.schedule(self.spec.gossip_interval_ms, self._gossip_tick)

    def _register_endpoints(self, pop: MeshPop) -> None:
        def serve_cut(payload, src, _pop=pop):
            return self._serve_cut(_pop, payload)

        def on_digest(digest, src, _pop=pop):
            _pop.receive_digest(digest)

        self.net.serve(pop.endpoint_name, pop.region, serve_cut)
        self.net.register_handler(pop.gossip_endpoint_name, pop.region, on_digest)

    # -- protocol -------------------------------------------------------------

    def _serve_cut(self, pop: MeshPop, payload) -> Generator:
        if not isinstance(payload, CutRequest):
            raise ProtocolError(
                f"unexpected mesh payload at {pop.endpoint_name}: {type(payload).__name__}"
            )
        return pop.serve_cut(payload)
        yield  # unreachable: makes this a generator (the RPC handler contract)

    def _gossip_tick(self) -> None:
        """One round of the whole mesh: every serving PoP, in region order,
        sends each peer the digest it owes."""
        for region, peers in self._peers.items():
            pop = self.pops[region]
            if pop.serving:
                for peer in peers:
                    if pop.digest_due(peer):
                        self._send_digest(pop, peer)
        self.sim.schedule(self.spec.gossip_interval_ms, self._gossip_tick)

    def _send_digest(self, pop: MeshPop, peer: str) -> None:
        """Fire and forget: no reply hop, no timer — the peer's own digests
        carry the ack back."""
        digest = pop.build_digest(peer, self.spec.max_updates_per_digest)
        self.metrics.incr("mesh.gossip_sent")
        if digest.updates:
            self.metrics.incr("mesh.updates_shipped", len(digest.updates))
        self.net.send(pop.endpoint_name, self.pops[peer].gossip_endpoint_name, digest)

    # -- crash lifecycle -------------------------------------------------------

    def on_pop_crash(self, pop: MeshPop) -> None:
        if self.started:
            self.net.unregister(pop.endpoint_name)
            self.net.unregister(pop.gossip_endpoint_name)

    def on_pop_restart(self, pop: MeshPop) -> None:
        if self.started:
            self._register_endpoints(pop)
