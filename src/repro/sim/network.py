"""Wide-area network model: regions, latency matrix, messages, and RPC.

The paper's deployment spans five AWS regions (Table 2 gives each region's
round-trip latency to the primary in Virginia) plus the two extra DynamoDB
global-table replica regions used by the motivation experiment (Columbus,
Ohio and Portland, Oregon).  This module reproduces that world:

* :class:`LatencyTable` — symmetric pairwise RTTs; the VA column is exactly
  the paper's Table 2, the rest is filled with geographically realistic
  values (they only shape the geo-replication baseline of Figure 1).
* :class:`Network` — delivers payloads between named endpoints after the
  appropriate one-way delay plus lognormal jitter, with failure-injection
  hooks (partitions, drop probability, duplication).
* RPC — request/response helper used by the LVI protocol, whose single
  round trip is the quantity the whole paper is about.  A copy of a
  request can detour through a relay region, and is answered back the
  same way.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, Generator, Iterable, Iterator, Optional, Set, Tuple

from ..errors import FaultConfigError
from .core import Arrival, Event, Simulator
from .primitives import Channel
from .rand import RandomStreams

__all__ = [
    "Region",
    "LatencyTable",
    "UnknownRegionError",
    "PAPER_RTT_TO_PRIMARY",
    "paper_latency_table",
    "Network",
    "Endpoint",
    "RpcTimeout",
    "RpcCall",
    "Batched",
    "RequestBatcher",
]

# Region identifiers used throughout the reproduction (paper §5.2).
class Region:
    """Canonical region names from the paper's evaluation."""

    VA = "va"  # Ashburn, Virginia — the near-storage (primary) location
    CA = "ca"  # San Francisco, California
    IE = "ie"  # Dublin, Ireland
    DE = "de"  # Frankfurt, Germany
    JP = "jp"  # Tokyo, Japan
    OH = "oh"  # Columbus, Ohio — global-table replica (Figure 1 only)
    OR = "or"  # Portland, Oregon — global-table replica (Figure 1 only)

    NEAR_USER = (VA, CA, IE, DE, JP)
    ALL = (VA, CA, IE, DE, JP, OH, OR)


#: Table 2 of the paper: RTT (ms) between each deployment location and the
#: primary DynamoDB instance in Virginia.  VA's 7 ms is the in-datacenter
#: round trip to the storage service, not a WAN hop.
PAPER_RTT_TO_PRIMARY: Dict[str, float] = {
    Region.VA: 7.0,
    Region.CA: 74.0,
    Region.IE: 70.0,
    Region.DE: 93.0,
    Region.JP: 146.0,
}


class UnknownRegionError(KeyError):
    """A latency lookup named a region pair the table does not cover.

    Subclasses :class:`KeyError` so legacy ``except KeyError`` callers keep
    working, but the message names both regions and the configured set so a
    topology typo is diagnosable without a debugger.
    """

    def __init__(self, a: str, b: str, available: Set[str]):
        self.region_a = a
        self.region_b = b
        self.available = frozenset(available)
        listing = ", ".join(sorted(available)) or "<empty table>"
        super().__init__(
            f"no latency configured between {a!r} and {b!r}; "
            f"regions in this table: {listing}"
        )

    def __str__(self) -> str:  # KeyError.__str__ would repr() the message
        return self.args[0]


class LatencyTable:
    """Symmetric pairwise RTT matrix over named regions.

    ``rtt(a, a)`` returns ``intra_rtt`` — the in-datacenter round trip to a
    service in the same region (the paper measures 7 ms from a Lambda in VA
    to DynamoDB in VA).
    """

    def __init__(self, rtts: Dict[Tuple[str, str], float], intra_rtt: float = 7.0):
        self.intra_rtt = intra_rtt
        self._rtts: Dict[Tuple[str, str], float] = {}
        for (a, b), value in rtts.items():
            if value <= 0:
                raise ValueError(f"non-positive RTT for {(a, b)}: {value}")
            self._rtts[(a, b)] = value
            self._rtts[(b, a)] = value

    def rtt(self, a: str, b: str) -> float:
        """Round-trip time in ms between regions ``a`` and ``b``."""
        if a == b:
            return self.intra_rtt
        try:
            return self._rtts[(a, b)]
        except KeyError:
            raise UnknownRegionError(a, b, self.regions()) from None

    def one_way(self, a: str, b: str) -> float:
        """One-way delay: half the round trip."""
        return self.rtt(a, b) / 2.0

    def regions(self) -> Set[str]:
        return {r for pair in self._rtts for r in pair}

    def relay(self, src: str, dst: str, candidates: Iterable[str]) -> Optional[str]:
        """The region of ``candidates`` a copy from ``src`` to ``dst`` best
        detours through: the one, other than both ends, minimising
        ``rtt(src, x) + rtt(x, dst)`` (the first such in ``candidates`` on
        a tie).  None for a path inside one region — there is no wide-area
        path to route around — or with no other region to use."""
        if src == dst:
            return None
        best, best_rtt = None, math.inf
        for x in candidates:
            if x != src and x != dst:
                rtt = self.rtt(src, x) + self.rtt(x, dst)
                if rtt < best_rtt:
                    best, best_rtt = x, rtt
        return best


def paper_latency_table(intra_rtt: float = 7.0) -> LatencyTable:
    """The latency matrix used by every experiment in this reproduction.

    The VA row is the paper's Table 2 verbatim.  The remaining pairs only
    matter for the geo-replicated baseline of Figure 1 and are set to
    geographically plausible values.
    """
    rtts: Dict[Tuple[str, str], float] = {
        # Paper Table 2 (region <-> VA primary).
        (Region.CA, Region.VA): 74.0,
        (Region.IE, Region.VA): 70.0,
        (Region.DE, Region.VA): 93.0,
        (Region.JP, Region.VA): 146.0,
        # Global-table replica regions (Figure 1): VA / OH / OR.
        (Region.OH, Region.VA): 11.0,
        (Region.OR, Region.VA): 60.0,
        (Region.OH, Region.OR): 50.0,
        # Remaining pairs: realistic great-circle-ish WAN RTTs.
        (Region.CA, Region.IE): 130.0,
        (Region.CA, Region.DE): 150.0,
        (Region.CA, Region.JP): 100.0,
        (Region.CA, Region.OH): 50.0,
        (Region.CA, Region.OR): 22.0,
        (Region.IE, Region.DE): 25.0,
        (Region.IE, Region.JP): 220.0,
        (Region.IE, Region.OH): 75.0,
        (Region.IE, Region.OR): 130.0,
        (Region.DE, Region.JP): 230.0,
        (Region.DE, Region.OH): 95.0,
        (Region.DE, Region.OR): 150.0,
        (Region.JP, Region.OH): 140.0,
        (Region.JP, Region.OR): 90.0,
    }
    return LatencyTable(rtts, intra_rtt=intra_rtt)


class RpcTimeout(Exception):
    """An RPC did not receive its response within the caller's deadline."""


class HeldMessage:
    """A message queued now that leaves its sender at the later instant
    ``sent_at`` (:meth:`Network.send_at`).  Until then the sender may still
    rewrite ``payload`` or take the message back
    (:meth:`Network.withdraw_held`); from ``sent_at`` on it is on the wire."""

    __slots__ = ("src", "dst", "link", "payload", "sent_at", "withdrawn")

    def __init__(self, src: str, dst: str, link: Tuple[str, str], payload: Any,
                 sent_at: float):
        self.src = src
        self.dst = dst
        self.link = link  # (src_region, dst_region)
        self.payload = payload
        self.sent_at = sent_at
        self.withdrawn = False


@dataclass
class _LinkFaults:
    """Failure-injection state for one directed region pair."""

    partitioned: bool = False
    drop_probability: float = 0.0
    duplicate_probability: float = 0.0
    extra_delay: float = 0.0


class Endpoint:
    """A named mailbox attached to a region.

    Raw (non-RPC) consumers — e.g. Raft peers — loop on ``yield ep.recv()``.
    """

    __slots__ = ("net", "name", "region", "inbox", "handler", "_proc_name")

    def __init__(self, net: "Network", name: str, region: str):
        self.net = net
        self.name = name
        self.region = region
        self.inbox = Channel(net.sim, name=f"inbox({name})")
        self.handler: Optional[Callable[[Any, str], Any]] = None
        # Precomputed spawn name for handler processes — building it per
        # delivery was measurable in the kernel profile.
        self._proc_name = f"handler({name})"

    def recv(self) -> Event:
        """Event resolving to the next delivered payload."""
        return self.inbox.get()


#: Sentinel an RPC handler may return to suppress its response entirely
#: (e.g. a deduplicated duplicate request whose original will answer).
NO_REPLY = object()


class _Relayed:
    """An RPC envelope ``(request, call)`` carried through the relay region
    ``via``: the server answers it back along the same detour."""

    __slots__ = ("envelope", "via")

    def __init__(self, envelope: Tuple[Any, "RpcCall"], via: str):
        self.envelope = envelope
        self.via = via


def _unwrapped(payload: Any) -> Any:
    """The request inside an RPC envelope ``(request, call)`` (relayed or
    not), or any other payload as it is: what tracers and drop filters see
    of any copy but a reply."""
    if isinstance(payload, _Relayed):
        payload = payload.envelope
    return payload[0] if isinstance(payload, tuple) and len(payload) == 2 else payload


class Network:
    """Message fabric between endpoints with per-link failure injection.

    Endpoints are registered by unique name.  An endpoint may optionally
    install a *handler*: a callable ``handler(payload, src_endpoint_name)``
    that is invoked on delivery instead of the inbox.  If the handler
    returns a generator it is spawned as a process; for RPC requests its
    return value becomes the RPC response.
    """

    def __init__(
        self,
        sim: Simulator,
        latency: LatencyTable,
        streams: Optional[RandomStreams] = None,
        jitter_sigma: float = 0.0,
    ):
        self.sim = sim
        self.latency = latency
        self.jitter_sigma = jitter_sigma
        self._rng = (streams or RandomStreams(0)).stream("network.jitter")
        self._drop_rng = (streams or RandomStreams(0)).stream("network.drop")
        self._endpoints: Dict[str, Endpoint] = {}
        self._faults: Dict[Tuple[str, str], _LinkFaults] = {}
        self._drop_filters: list = []
        # Messages queued by send_at, oldest first; the ones still ahead of
        # their send instant freeze their link's faults and the drop filters.
        self._held: deque = deque()
        self.messages_sent = 0
        self.messages_dropped = 0
        #: Optional hook called as tracer(time, src, dst, payload) on every
        #: send — protocol-conformance tests record message sequences here.
        #: A held message (:meth:`send_at`) is reported when its copy
        #: arrives, one one-way delay after its ``time``, so a held send can
        #: come after later-stamped ones: sort by ``time`` to order them.
        self.tracer: Optional[Callable[[float, str, str, Any], None]] = None

    # -- topology -----------------------------------------------------------

    def register(self, name: str, region: str) -> Endpoint:
        """Create and register a mailbox endpoint."""
        if name in self._endpoints:
            raise ValueError(f"endpoint {name!r} already registered")
        ep = Endpoint(self, name, region)
        self._endpoints[name] = ep
        return ep

    def register_handler(
        self, name: str, region: str, handler: Callable[[Any, str], Any]
    ) -> Endpoint:
        """Register an endpoint whose deliveries invoke ``handler``."""
        ep = self.register(name, region)
        ep.handler = handler
        return ep

    def unregister(self, name: str) -> None:
        """Remove an endpoint; in-flight messages to it are dropped on
        arrival (models a crashed host)."""
        self._endpoints.pop(name, None)

    def unique_endpoint_name(self, prefix: str) -> str:
        """The first ``{prefix}-{n}`` not yet registered.  Deterministic
        given construction order, so same-seed runs name their endpoints
        identically (names appear in trace-span attributes)."""
        n = 0
        while f"{prefix}-{n}" in self._endpoints:
            n += 1
        return f"{prefix}-{n}"

    def endpoint(self, name: str) -> Endpoint:
        return self._endpoints[name]

    # -- failure injection ----------------------------------------------------

    def _fault(self, src_region: str, dst_region: str) -> _LinkFaults:
        # Every link-fault setter comes through here, to change the entry.
        key = (src_region, dst_region)
        if any(held.link == key for held in self._pending_held()):
            raise FaultConfigError(
                f"link {src_region}->{dst_region} changed while a held message "
                "on it was still ahead of its send instant: its fate was "
                "decided when it was queued"
            )
        if key not in self._faults:
            self._faults[key] = _LinkFaults()
        return self._faults[key]

    def partition(self, region_a: str, region_b: str, bidirectional: bool = True) -> None:
        """Silently drop all traffic between two regions."""
        # Both directions pass _fault's check before either changes.
        links = [self._fault(region_a, region_b)]
        if bidirectional:
            links.append(self._fault(region_b, region_a))
        for fault in links:
            fault.partitioned = True

    def heal(self, region_a: str, region_b: str) -> None:
        """Undo :meth:`partition` in both directions."""
        for fault in (self._fault(region_a, region_b), self._fault(region_b, region_a)):
            fault.partitioned = False

    def set_drop_probability(self, src_region: str, dst_region: str, p: float) -> None:
        """Drop each message on the directed link with probability ``p``."""
        if not 0.0 <= p <= 1.0:
            raise FaultConfigError(f"probability out of range: {p}")
        self._fault(src_region, dst_region).drop_probability = p

    def set_duplicate_probability(self, src_region: str, dst_region: str, p: float) -> None:
        """Deliver each message twice with probability ``p`` (tests
        at-most-once handling of followups and intents)."""
        if not 0.0 <= p <= 1.0:
            raise FaultConfigError(f"probability out of range: {p}")
        self._fault(src_region, dst_region).duplicate_probability = p

    def set_extra_delay(self, src_region: str, dst_region: str, ms: float) -> None:
        """Add a fixed delay on a directed link (models congestion)."""
        if ms < 0.0:
            raise FaultConfigError(f"extra delay must be non-negative: {ms}")
        self._fault(src_region, dst_region).extra_delay = ms

    def add_drop_filter(self, fn: Callable[[str, str, Any], bool]) -> None:
        """Install a payload-level drop predicate.

        ``fn(src_name, dst_name, payload)`` is consulted once for every
        copy that is not held (:meth:`send_at`), requests and replies alike
        (a request's RPC envelope is unwrapped first, a reply's value is
        judged as it is), and a ``True`` verdict eats the copy.  Filters
        let a fault plan target one message *type* — e.g. lose every
        :class:`WriteFollowup` during a window — without disturbing the
        link's other traffic or its RNG draws."""
        self._refuse_while_holding("a drop filter was added")
        self._drop_filters.append(fn)

    def remove_drop_filter(self, fn: Callable[[str, str, Any], bool]) -> None:
        """Uninstall a predicate added by :meth:`add_drop_filter`."""
        self._refuse_while_holding("a drop filter was removed")
        self._drop_filters.remove(fn)

    def _refuse_while_holding(self, what: str) -> None:
        if any(True for _ in self._pending_held()):
            raise FaultConfigError(
                f"{what} while a held message was still ahead of its send "
                "instant: its fate was decided when it was queued"
            )

    # -- transmission ----------------------------------------------------------

    def _delay(self, src_region: str, dst_region: str) -> float:
        base = self.latency.one_way(src_region, dst_region)
        fault = self._faults.get((src_region, dst_region))
        if fault is not None:
            base += fault.extra_delay
        if self.jitter_sigma > 0:
            base *= math.exp(self._rng.gauss(0.0, self.jitter_sigma))
        return base

    def _lossy(self, src_region: str, dst_region: str) -> bool:
        fault = self._faults.get((src_region, dst_region))
        if fault is None:
            return False
        if fault.partitioned:
            return True
        return fault.drop_probability > 0 and self._drop_rng.random() < fault.drop_probability

    def _duplicated(self, src_region: str, dst_region: str) -> bool:
        fault = self._faults.get((src_region, dst_region))
        return (
            fault is not None
            and fault.duplicate_probability > 0
            and self._drop_rng.random() < fault.duplicate_probability
        )

    def _hop_span(self, src: str, dst: str, src_region: str, dst_region: str,
                  start_ms: Optional[float] = None, reply: bool = False):
        """Start one ``net.hop`` span per physical message copy (or None
        with tracing disabled), at ``start_ms`` (default now).  Every hop
        span is closed exactly once — where the copy lands, or at its send
        instant when failure injection eats it — so span accounting
        balances even under drops and partitions."""
        obs = self.sim.obs
        if not obs.enabled:
            return None
        span = obs.start(
            "net.hop", kind="net", start_ms=start_ms,
            src=src, dst=dst, src_region=src_region, dst_region=dst_region,
        )
        if reply:
            span.attrs["reply"] = True
        return span

    def send(self, src: str, dst: str, payload: Any) -> None:
        """Fire-and-forget delivery from endpoint ``src`` (which must be
        registered: :class:`KeyError`) to endpoint ``dst``."""
        if src not in self._endpoints:
            raise KeyError(src)
        self._transmit(src, dst, payload, duplicable=True)

    def _transmit(self, src: str, dst: str, payload: Any, via: Optional[str] = None,
                  land: Optional[Callable[[], None]] = None, reply: bool = False,
                  duplicable: bool = False) -> None:
        """Put one copy on the wire: the only way a copy travels, a held one
        (:meth:`send_at`) aside.

        The tracer sees the copy once and the drop filters judge it once —
        a reply's value as it is, any other payload unwrapped from its RPC
        envelope.  It then walks its region path, ``src``'s region to
        ``dst``'s, through ``via`` when given, one leg at a time
        (:meth:`_leg`).  A copy whose endpoint at either end is missing, or
        that a filter eats, is lost on its first leg.  Where the last leg
        lands, ``land()`` runs if given (a reply answering its call), else
        the copy is delivered to ``dst``.  Only a ``duplicable`` copy (a
        direct :meth:`send`) may land twice."""
        src_ep = self._endpoints.get(src)
        dst_ep = self._endpoints.get(dst)
        inner = payload if reply else _unwrapped(payload)
        if self.tracer is not None:
            self.tracer(self.sim.now, src, dst, inner)
        here = "?" if src_ep is None else src_ep.region
        there = "?" if dst_ep is None else dst_ep.region
        eaten = src_ep is None or dst_ep is None or (
            bool(self._drop_filters) and any(fn(src, dst, inner) for fn in self._drop_filters)
        )
        path = (here, there) if via is None else (here, via, there)
        self._leg(src, dst, payload, path, land, reply, duplicable, eaten)

    def _leg(self, src: str, dst: str, payload: Any, path: Tuple[str, ...],
             land: Optional[Callable[[], None]], reply: bool, duplicable: bool,
             eaten: bool = False) -> None:
        """The leg from region ``path[0]`` to ``path[1]``, one physical
        message: counted, spanned, then lost, or delayed (and, for a
        ``duplicable`` copy, maybe duplicated) to one queue entry where it
        lands — the next leg's start while ``path`` goes on."""
        here, there = path[0], path[1]
        sim = self.sim
        self.messages_sent += 1
        span = self._hop_span(src, dst, here, there, reply=reply)
        if eaten or self._lossy(here, there):
            self.messages_dropped += 1
            if span is not None:
                span.finish(sim.now, status="dropped")
            return
        delay = self._delay(here, there)
        if span is not None:
            span.attrs["one_way_ms"] = delay
        if len(path) > 2:
            land = partial(self._leg, src, dst, payload, path[1:], land, reply, False)
        if land is not None:
            sim.schedule(delay, self._land, land, span)
        else:
            sim.schedule(delay, self._deliver, src, dst, payload, span)
            if duplicable and self._duplicated(here, there):
                dup_span = self._hop_span(src, dst, here, there)
                if dup_span is not None:
                    dup_span.attrs["duplicate"] = True
                sim.schedule(delay + 0.1, self._deliver, src, dst, payload, dup_span)

    def _land(self, land: Callable[[], None], span) -> None:
        if span is not None:
            span.finish(self.sim.now, status="delivered")
        land()

    def _deliver(self, src: str, dst: str, payload: Any, span) -> None:
        ep = self._endpoints.get(dst)
        if ep is None:
            self.messages_dropped += 1
            if span is not None:
                span.finish(self.sim.now, status="dropped")
            return
        if span is not None:
            span.finish(self.sim.now, status="delivered")
        if ep.handler is not None:
            result = ep.handler(payload, src)
            if result is not None and hasattr(result, "send"):
                self.sim.spawn(result, name=ep._proc_name)
        else:
            ep.inbox.put(payload)

    def send_at(self, sent_at: float, src: str, dst: str, payload: Any) -> None:
        """:meth:`send` from the later instant ``sent_at`` (a Raft follower's
        ack, which leaves when its fsync ends), queued now so that nothing
        has to run at ``sent_at``: the message costs one queue entry, its
        arrival at exactly ``sent_at + one_way`` (or ``sent_at`` itself for
        a lost copy, and one more for a duplicate).  That entry stamps the
        send at ``sent_at`` — the tracer's time, the ``net.hop`` span's
        start — and ``messages_sent`` counts it from now.

        The copy's fate (lost, one-way delay, duplicated) is drawn now, and
        a send at ``sent_at`` would get the same one only if nothing that
        decides it changes in between.  So this network refuses, with
        :class:`FaultConfigError`, to change a link's faults while a message
        held on that link is ahead of its send instant, or any drop filter
        while any held message is, and refuses to hold a message at all
        while a drop filter is installed: a filter judges the payload, which
        the sender may still rewrite."""
        now = self.sim.now
        if sent_at < now:
            raise ValueError(f"send instant {sent_at} is before now ({now})")
        if self._drop_filters:
            raise FaultConfigError(
                f"cannot hold a message {src}->{dst} past a drop filter: the "
                "filter would judge a payload its sender may still rewrite"
            )
        src_region = self._endpoints[src].region
        dst_region = self._endpoints[dst].region
        held = HeldMessage(src, dst, (src_region, dst_region), payload, sent_at)
        queue = self._held
        while queue and queue[0].sent_at <= now:
            queue.popleft()
        queue.append(held)
        self.messages_sent += 1
        schedule_at = self.sim._schedule_at
        if self._lossy(src_region, dst_region):
            schedule_at(sent_at, self._emit_held, held, None, False)
            return
        delay = self._delay(src_region, dst_region)
        schedule_at(sent_at + delay, self._emit_held, held, delay, False)
        if self._duplicated(src_region, dst_region):
            schedule_at(sent_at + (delay + 0.1), self._emit_held, held, delay, True)

    def _emit_held(self, held: HeldMessage, delay: Optional[float], duplicate: bool) -> None:
        """A held copy's one entry: the send, stamped at ``sent_at``, and
        the copy's arrival (``delay``), or its loss (``delay`` None).  A
        withdrawn message's entries pop as no-ops."""
        if held.withdrawn:
            return
        src, dst, sent_at = held.src, held.dst, held.sent_at
        if self.tracer is not None and not duplicate:
            self.tracer(sent_at, src, dst, _unwrapped(held.payload))
        span = self._hop_span(src, dst, *held.link, start_ms=sent_at)
        if delay is None:
            self.messages_dropped += 1
            if span is not None:
                span.finish(sent_at, status="dropped")
            return
        if span is not None:
            if duplicate:
                span.attrs["duplicate"] = True
            else:
                span.attrs["one_way_ms"] = delay
        self._deliver(src, dst, held.payload, span)

    def _pending_held(self) -> Iterator[HeldMessage]:
        """The held messages still ahead of their send instant, oldest first."""
        now = self.sim.now
        return (held for held in self._held if held.sent_at > now and not held.withdrawn)

    def held_from(self, src: str) -> Iterator[HeldMessage]:
        """The messages ``src`` holds that are still ahead of their send
        instant, oldest first."""
        return (held for held in self._pending_held() if held.src == src)

    def withdraw_held(self, src: str) -> None:
        """Take back every message ``src`` holds that is still ahead of its
        send instant (a crash before the send): never sent, never counted."""
        taken = list(self.held_from(src))
        for held in taken:
            held.withdrawn = True
        self.messages_sent -= len(taken)

    # -- RPC ---------------------------------------------------------------------

    def call(
        self,
        src: str,
        dst: str,
        payload: Any,
        timeout: Optional[float] = None,
    ) -> Generator:
        """RPC from endpoint ``src`` to endpoint ``dst``: one send, one wait.

        Returns a generator to run inside a process: ``response = yield
        from net.call(...)``.

        The destination endpoint must have a *request handler* installed
        via :meth:`serve`: a callable ``fn(payload, src) -> generator``
        whose return value is sent back as the response.  Raises
        :class:`RpcTimeout` if no response arrives in ``timeout`` ms.
        """
        return (yield from self.rpc(src, dst, payload).attempt(timeout))

    def rpc(self, src: str, dst: str, payload: Any) -> "RpcCall":
        """One logical RPC from ``src`` to ``dst`` whose caller decides
        when to send and re-send it (:meth:`RpcCall.attempt`)."""
        return RpcCall(self, src, dst, payload, partial(self.send, src, dst))

    def serve(self, name: str, region: str, fn: Callable[[Any, str], Generator]) -> Endpoint:
        """Register an RPC server endpoint.

        ``fn(payload, src_name)`` must return a generator; its return value
        is shipped back to the caller.  Exceptions raised by the handler
        are propagated to the caller as the RPC's failure.
        """

        handler_name = f"rpc-handler({name})"

        def on_delivery(wrapped: Any, src: str) -> None:
            # The delivery is the handler's wake-up: its one process takes
            # its first step inside this dispatch (`_run_server_handler`
            # catches everything the body raises, so that step cannot
            # abort the run).
            #
            # One physical message may carry N logical requests: each
            # gets its own handler process and its own reply (a combined
            # reply could deadlock — releasing one item's locks may depend
            # on another item's answer reaching its caller first).  A
            # relayed request is answered back through its relay.
            via = None
            if isinstance(wrapped, _RequestBatch):
                batch = wrapped.envelopes
            elif isinstance(wrapped, _Relayed):
                batch, via = (wrapped.envelope,), wrapped.via
            else:
                batch = (wrapped,)
            for request, call in batch:
                self.sim.spawn_in_dispatch(
                    self._run_server_handler(fn, request, src, name, call, via),
                    name=handler_name,
                )

        return self.register_handler(name, region, on_delivery)

    def _run_server_handler(
        self, fn: Callable, request: Any, src: str, server: str, call: "RpcCall",
        via: Optional[str],
    ) -> Generator:
        try:
            result = yield from fn(request, src)
        except Exception as exc:  # propagate server-side failure to caller
            self._send_reply(server, call, exc, True, via)
            return
        if result is NO_REPLY:
            return
        self._send_reply(server, call, result, False, via)

    def _send_reply(self, server: str, call: "RpcCall", value: Any, failed: bool,
                    via: Optional[str] = None) -> None:
        """Answer ``call`` from ``server``, back through ``via`` when the
        request came that way; the answer lands as ``call._answer``."""
        self._transmit(server, call.src, value, via,
                       partial(call._answer, value, failed, via), reply=True)


class RpcCall:
    """One logical RPC: a request with one reply slot, which every copy of
    the request carries (the ``(request, call)`` envelope a server answers
    through).  Whichever copy's answer lands first completes the call, so
    a copy re-sent after a loss, or a late answer to an earlier copy, ends
    it alike; later answers are duplicates and dropped.

    A copy travels direct, or through the region :attr:`relay` when one is
    set: every re-send does, and with :attr:`hedged` each attempt sends a
    relayed copy beside its direct one.  :attr:`answered_via` is the relay
    the winning answer came back through (None: the direct path).

    The caller waits in *attempts* (:meth:`attempt`, one at a time): each
    sends a copy, may re-send within itself at a retransmission timeout,
    and ends at its deadline with :class:`RpcTimeout`, leaving the slot
    open for the next attempt.  A failed answer (a server-side exception)
    ends only the attempt it finds; a successful one settles the call for
    good, also between attempts.  :meth:`Network.call` is one attempt of a
    fresh call.
    """

    __slots__ = (
        "sim", "src", "dst", "payload", "sends", "first_sent_at", "last_sent_at",
        "answered", "answered_at", "answered_via", "relay", "hedged",
        "_value", "_net", "_send", "_batched",
        # The current attempt's state.
        "_waiting", "_timer", "_timeout", "_deadline_at", "_rto_ms",
        "_resend", "_resent", "_expired",
    )

    def __init__(self, net: Network, src: str, dst: str, payload: Any,
                 send: Callable[[Tuple[Any, "RpcCall"]], Any], batched: bool = False):
        self.sim = net.sim
        self.src = src
        self.dst = dst
        self.payload = payload
        self.sends = 0          # copies sent so far, every attempt's included
        self.first_sent_at = self.last_sent_at = 0.0
        self.answered = False
        self.answered_at = 0.0
        self.answered_via: Optional[str] = None
        self.relay: Optional[str] = None   # the region re-sends go through
        self.hedged = False                # each attempt also sends a relayed copy
        self._value: Any = None
        self._net = net
        self._send = send
        self._batched = batched
        self._waiting: Optional[Arrival] = None
        self._timer = None

    def rtt_ms(self) -> Optional[float]:
        """The round trip of a call answered by its only copy, else None:
        an answer to a re-sent call may belong to any copy (Karn's rule)."""
        if self.answered and self.sends == 1:
            return self.answered_at - self.first_sent_at
        return None

    def attempt(
        self,
        timeout: Optional[float] = None,
        rto_ms: Optional[float] = None,
        resend: Optional[Callable[["RpcCall"], bool]] = None,
    ) -> Generator:
        """Wait up to ``timeout`` ms for the call's answer, first sending a
        copy, and a relayed one too when :attr:`hedged` (none if an answer
        already landed: it is returned at once).

        ``rto_ms`` (None: never) is the retransmission timeout: if no
        answer came that long after the last copy, another copy goes out
        — through :attr:`relay` when one is set, unless ``resend(call)``
        says not now — and the timeout doubles for the next expiry either
        way.  One timer plays both parts — armed for the next re-send
        while that falls before the deadline, then for the deadline — and
        is cancelled (so never dispatched) when the attempt ends any other
        way.  The attempt waits on an :class:`Arrival` that only an
        answer's delivery or that timer completes, so either resumes the
        caller in place.  Finishes an ``rpc`` span (ok / timeout / error;
        ``retransmits`` when it re-sent, ``relayed`` when the answer came
        back through a relay)."""
        if self.answered:
            return self._value
        sim = self.sim
        obs = sim.obs
        span = None
        if obs.enabled:
            span = obs.start(
                "rpc", kind="net", src=self.src, dst=self.dst,
                request=type(self.payload).__name__,
                **({"batched": True} if self._batched else {}),
            )
        reply = self._waiting = Arrival(sim, name="rpc")
        self._send_copy()
        if self.hedged:
            self._send_copy(self.relay)
        self._timeout = timeout
        self._deadline_at = None if timeout is None else sim.now + timeout
        self._rto_ms = rto_ms
        self._resend = resend
        self._resent = 0
        self._expired = False
        self._arm(timeout)
        status = "ok"
        try:
            return (yield reply)
        except BaseException:
            status = "timeout" if self._expired else "error"
            raise
        finally:
            self._waiting = self._resend = None
            if self._timer is not None:
                self._timer.cancel()
                self._timer = None
            if span is not None:
                if self._resent:
                    span.attrs["retransmits"] = self._resent
                if status == "ok" and self.answered_via is not None:
                    span.attrs["relayed"] = True
                span.finish(sim.now, status=status)

    def _arm(self, left: Optional[float]) -> None:
        """The attempt's one timer: the next re-send if it falls before the
        deadline (``left`` ms away; None for no deadline), else the deadline."""
        rto = self._rto_ms
        if rto is not None and (left is None or rto < left):
            self._timer = self.sim.schedule(rto, self._retransmit)
        else:
            self._timer = None if left is None else self.sim.schedule(left, self._expire)

    def _retransmit(self) -> None:
        if self._resend is None or self._resend(self):
            self._resent += 1
            self._send_copy(self.relay)
        self._rto_ms *= 2
        deadline_at = self._deadline_at
        self._arm(None if deadline_at is None else deadline_at - self.sim.now)

    def _expire(self) -> None:
        self._timer = None
        self._expired = True
        self._waiting.fail(RpcTimeout(
            f"rpc {self.src}->{self.dst} timed out after {self._timeout} ms"
        ))

    def _send_copy(self, via: Optional[str] = None) -> None:
        """A copy on the direct path, or — relayed copies bypass any
        batcher — through the region ``via``."""
        self.sends += 1
        self.last_sent_at = self.sim.now
        if self.sends == 1:
            self.first_sent_at = self.last_sent_at
        if via is None:
            self._send((self.payload, self))
        else:
            self._net._transmit(self.src, self.dst, _Relayed((self.payload, self), via), via)

    def _answer(self, value: Any, failed: bool, via: Optional[str] = None) -> None:
        """An answer to some copy landed (a delivery entry), back through
        the relay ``via`` or (None) directly."""
        if self.answered:
            return  # an answer to another copy won: a duplicate
        if not failed:
            self.answered = True
            self.answered_at = self.sim.now
            self.answered_via = via
            self._value = value
        waiting = self._waiting
        if waiting is not None and not waiting.triggered:
            if failed:
                waiting.fail(value)
            else:
                waiting.trigger(value)


@dataclass(frozen=True)
class Batched:
    """Marks a request delivered as part of a coalesced physical message.

    Servers that model per-message processing cost charge the full cost
    only to ``index`` 0; later members cost their marginal share.  The
    wrapper is transparent to handlers that ignore it — ``payload`` is the
    original request.
    """

    payload: Any
    index: int
    size: int


@dataclass(frozen=True)
class _RequestBatch:
    """The single physical message a :class:`RequestBatcher` flush emits:
    N (request, call) envelopes sharing one network hop."""

    envelopes: Tuple[Tuple[Any, RpcCall], ...]


class RequestBatcher:
    """Coalesces RPC requests from one source endpoint per destination.

    The first request to a destination opens a window of ``window_ms``
    virtual time; everything enqueued to that destination before the
    window closes ships as *one* physical message.  Only the request leg
    is batched — every member keeps its own reply slot, so responses,
    timeouts, and re-sends are entirely per-request (a direct re-sent copy
    goes through the batcher again and may land in a different batch; a
    relayed one bypasses it).

    A flush of exactly one request sends the plain RPC envelope, which is
    indistinguishable on the wire from an unbatched :meth:`Network.call`;
    with ``window_ms`` spent, that is the only latency cost of an idle
    batcher.  Members of a real batch arrive wrapped in :class:`Batched`
    so servers can charge amortized processing cost.
    """

    def __init__(self, net: Network, src: str, window_ms: float, metrics=None):
        if window_ms <= 0:
            raise ValueError(f"batch window must be positive, got {window_ms}")
        self.net = net
        self.src = src
        self.window_ms = window_ms
        self.metrics = metrics
        self._queues: Dict[str, list] = {}

    def rpc(self, dst: str, payload: Any) -> RpcCall:
        """Drop-in replacement for ``net.rpc(self.src, dst, ...)``: every
        copy of the call goes through the batcher."""
        return RpcCall(self.net, self.src, dst, payload,
                       partial(self._enqueue, dst), batched=True)

    def _enqueue(self, dst: str, envelope: Tuple[Any, RpcCall]) -> None:
        queue = self._queues.get(dst)
        if queue is None:
            self._queues[dst] = [envelope]
            self.net.sim.schedule(self.window_ms, self._flush, dst)
        else:
            queue.append(envelope)

    def _flush(self, dst: str) -> None:
        queue = self._queues.pop(dst, None)
        if not queue:
            return
        if self.metrics is not None:
            self.metrics.incr("batch.flush")
            if len(queue) > 1:
                self.metrics.incr("batch.coalesced", len(queue) - 1)
        if len(queue) == 1:
            self.net.send(self.src, dst, queue[0])
            return
        size = len(queue)
        envelopes = tuple(
            (Batched(payload, index, size), call)
            for index, (payload, call) in enumerate(queue)
        )
        self.net.send(self.src, dst, _RequestBatch(envelopes))
