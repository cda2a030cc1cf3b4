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
  round trip is the quantity the whole paper is about.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, Optional, Set, Tuple

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
    "RpcDropped",
    "Message",
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


class RpcDropped(Exception):
    """Internal marker: the request or response was lost (partition/drop)."""


class Message:
    """A payload in flight between two endpoints (for tracing and tests).

    A ``__slots__`` class rather than a dataclass: one is allocated per
    physical message, which makes it one of the hottest allocations in the
    simulator.
    """

    __slots__ = ("msg_id", "src", "dst", "payload", "sent_at", "deliver_at")

    def __init__(
        self,
        msg_id: int,
        src: str,
        dst: str,
        payload: Any,
        sent_at: float,
        deliver_at: float,
    ):
        self.msg_id = msg_id
        self.src = src
        self.dst = dst
        self.payload = payload
        self.sent_at = sent_at
        self.deliver_at = deliver_at


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
        self._msg_ids = itertools.count()
        self.messages_sent = 0
        self.messages_dropped = 0
        self.bytes_proxy = 0  # count of payloads, a proxy for bandwidth cost
        #: Optional hook called as tracer(time, src, dst, payload) on every
        #: send — protocol-conformance tests record message sequences here.
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
        key = (src_region, dst_region)
        if key not in self._faults:
            self._faults[key] = _LinkFaults()
        return self._faults[key]

    def partition(self, region_a: str, region_b: str, bidirectional: bool = True) -> None:
        """Silently drop all traffic between two regions."""
        self._fault(region_a, region_b).partitioned = True
        if bidirectional:
            self._fault(region_b, region_a).partitioned = True

    def heal(self, region_a: str, region_b: str) -> None:
        """Undo :meth:`partition` in both directions."""
        self._fault(region_a, region_b).partitioned = False
        self._fault(region_b, region_a).partitioned = False

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

        ``fn(src_name, dst_name, payload)`` is consulted for every message
        copy (requests and replies; RPC envelopes are unwrapped first) and
        a ``True`` verdict eats the copy.  Filters let a fault plan target
        one message *type* — e.g. lose every :class:`WriteFollowup` during
        a window — without disturbing the link's other traffic or its RNG
        draws."""
        self._drop_filters.append(fn)

    def remove_drop_filter(self, fn: Callable[[str, str, Any], bool]) -> None:
        """Uninstall a predicate added by :meth:`add_drop_filter`."""
        self._drop_filters.remove(fn)

    def _filtered(self, src: str, dst: str, payload: Any) -> bool:
        if not self._drop_filters:
            return False
        inner = payload[0] if isinstance(payload, tuple) and len(payload) == 2 else payload
        return any(fn(src, dst, inner) for fn in self._drop_filters)

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

    def _hop_span(self, src: str, dst: str, src_region: str, dst_region: str):
        """Start one ``net.hop`` span per physical message copy (or None
        with tracing disabled).  Every hop span is closed exactly once —
        at delivery, or immediately when failure injection eats the copy —
        so span accounting balances even under drops and partitions."""
        obs = self.sim.obs
        if not obs.enabled:
            return None
        return obs.start(
            "net.hop", kind="net",
            src=src, dst=dst, src_region=src_region, dst_region=dst_region,
        )

    def send(self, src: str, dst: str, payload: Any) -> Optional[Message]:
        """Fire-and-forget delivery from endpoint ``src`` to endpoint ``dst``.

        Returns the in-flight :class:`Message` (or ``None`` if it was
        dropped at send time by failure injection).
        """
        src_ep = self._endpoints[src]
        dst_ep = self._endpoints.get(dst)
        self.messages_sent += 1
        self.bytes_proxy += 1
        if self.tracer is not None:
            traced = payload[0] if isinstance(payload, tuple) and len(payload) == 2 else payload
            self.tracer(self.sim.now, src, dst, traced)
        dst_region = dst_ep.region if dst_ep is not None else "?"
        span = self._hop_span(src, dst, src_ep.region, dst_region)
        if (
            dst_ep is None
            or self._filtered(src, dst, payload)
            or self._lossy(src_ep.region, dst_ep.region)
        ):
            self.messages_dropped += 1
            if span is not None:
                span.finish(self.sim.now, status="dropped")
            return None
        delay = self._delay(src_ep.region, dst_ep.region)
        if span is not None:
            span.attrs["one_way_ms"] = delay
        msg = Message(
            msg_id=next(self._msg_ids),
            src=src,
            dst=dst,
            payload=payload,
            sent_at=self.sim.now,
            deliver_at=self.sim.now + delay,
        )
        self.sim.schedule(delay, self._deliver, msg, span)
        fault = self._faults.get((src_ep.region, dst_ep.region))
        if (
            fault is not None
            and fault.duplicate_probability > 0
            and self._drop_rng.random() < fault.duplicate_probability
        ):
            dup_span = self._hop_span(src, dst, src_ep.region, dst_ep.region)
            if dup_span is not None:
                dup_span.attrs["duplicate"] = True
            self.sim.schedule(delay + 0.1, self._deliver, msg, dup_span)
        return msg

    def _deliver(self, msg: Message, span=None) -> None:
        ep = self._endpoints.get(msg.dst)
        if ep is None:
            self.messages_dropped += 1
            if span is not None:
                span.finish(self.sim.now, status="dropped")
            return
        if span is not None:
            span.finish(self.sim.now, status="delivered")
        if ep.handler is not None:
            result = ep.handler(msg.payload, msg.src)
            if result is not None and hasattr(result, "send"):
                self.sim.spawn(result, name=ep._proc_name)
        else:
            ep.inbox.put(msg.payload)

    # -- RPC ---------------------------------------------------------------------

    def call(
        self,
        src: str,
        dst: str,
        payload: Any,
        timeout: Optional[float] = None,
    ) -> Generator:
        """RPC from endpoint ``src`` to endpoint ``dst``.

        Returns a generator to run inside a process: ``response = yield
        from net.call(...)``.

        The destination endpoint must have a *request handler* installed
        via :meth:`serve`: a callable ``fn(payload, src) -> generator``
        whose return value is sent back as the response.  Raises
        :class:`RpcTimeout` if no response arrives in ``timeout`` ms.
        """
        obs = self.sim.obs
        span = None
        if obs.enabled:
            span = obs.start(
                "rpc", kind="net", src=src, dst=dst,
                request=type(payload).__name__,
            )
        reply = Arrival(self.sim, name="rpc")
        self._send_request(src, dst, payload, reply)
        return (yield from _await_reply(self.sim, reply, timeout, src, dst, span))

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
            # on another item's answer reaching its caller first).
            batch = wrapped.envelopes if isinstance(wrapped, _RequestBatch) else (wrapped,)
            for request, reply_ref in batch:
                self.sim.spawn_in_dispatch(
                    self._run_server_handler(fn, request, src, name, reply_ref),
                    name=handler_name,
                )

        return self.register_handler(name, region, on_delivery)

    def _run_server_handler(
        self, fn: Callable, request: Any, src: str, server: str, reply_ref: "_ReplyRef"
    ) -> Generator:
        try:
            result = yield from fn(request, src)
        except Exception as exc:  # propagate server-side failure to caller
            self._send_reply(server, reply_ref, exc, failed=True)
            return
        if result is NO_REPLY:
            return
        self._send_reply(server, reply_ref, result, failed=False)

    def _send_request(self, src: str, dst: str, payload: Any, reply: Arrival) -> None:
        reply_ref = _ReplyRef(src=src, reply=reply)
        self.send(src, dst, (payload, reply_ref))

    def _send_reply(self, server: str, reply_ref: "_ReplyRef", value: Any, failed: bool) -> None:
        src_ep = self._endpoints.get(server)
        dst_ep = self._endpoints.get(reply_ref.src)
        self.messages_sent += 1
        self.bytes_proxy += 1
        if self.tracer is not None:
            self.tracer(self.sim.now, server, reply_ref.src, value)
        span = self._hop_span(
            server, reply_ref.src,
            src_ep.region if src_ep is not None else "?",
            dst_ep.region if dst_ep is not None else "?",
        )
        if span is not None:
            span.attrs["reply"] = True
        if (
            src_ep is None
            or dst_ep is None
            or self._filtered(server, reply_ref.src, value)
            or self._lossy(src_ep.region, dst_ep.region)
        ):
            self.messages_dropped += 1
            if span is not None:
                span.finish(self.sim.now, status="dropped")
            return
        delay = self._delay(src_ep.region, dst_ep.region)
        if span is not None:
            span.attrs["one_way_ms"] = delay

        def complete() -> None:
            if span is not None:
                span.finish(self.sim.now, status="delivered")
            if reply_ref.reply.triggered:
                return  # duplicate response (failure injection)
            if failed:
                reply_ref.reply.fail(value)
            else:
                reply_ref.reply.trigger(value)

        self.sim.schedule(delay, complete)


def _await_reply(
    sim: Simulator, reply: Arrival, timeout: Optional[float], src: str, dst: str, span
) -> Generator:
    """The caller's half of an RPC, shared by :meth:`Network.call` and
    :meth:`RequestBatcher.call`: wait on ``reply`` itself, with the deadline
    as one timer that fails ``reply`` with :class:`RpcTimeout` — cancelled
    (and so never dispatched) once the wait ends any other way.  ``reply``
    is an :class:`Arrival`: the response's delivery entry or the deadline's
    entry is the only thing that completes it, and resumes the caller in
    place.  A response landing after the deadline finds ``reply`` completed
    and is dropped by ``_send_reply``.  Finishes the ``rpc`` span (ok /
    timeout / error)."""
    status = "ok"
    timer = None
    if timeout is not None:

        def expire() -> None:
            nonlocal status
            if not reply.triggered:
                status = "timeout"
                reply.fail(RpcTimeout(f"rpc {src}->{dst} timed out after {timeout} ms"))

        timer = sim.schedule(timeout, expire)
    try:
        return (yield reply)
    except BaseException:
        if status == "ok":
            status = "error"
        raise
    finally:
        if timer is not None:
            timer.cancel()
        if span is not None:
            span.finish(sim.now, status=status)


class _ReplyRef:
    """Correlates an RPC response with its waiting caller."""

    __slots__ = ("src", "reply")

    def __init__(self, src: str, reply: Arrival):
        self.src = src
        self.reply = reply


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
    N (request, reply_ref) envelopes sharing one network hop."""

    envelopes: Tuple[Tuple[Any, _ReplyRef], ...]


class RequestBatcher:
    """Coalesces RPC requests from one source endpoint per destination.

    The first request to a destination opens a window of ``window_ms``
    virtual time; everything enqueued to that destination before the
    window closes ships as *one* physical message.  Only the request leg
    is batched — every member keeps a private reply event, so responses,
    timeouts, and retries are entirely per-request (a retry goes through
    the batcher again and may land in a different batch).

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

    def call(
        self, dst: str, payload: Any, timeout: Optional[float] = None
    ) -> Generator:
        """Drop-in replacement for ``net.call(self.src, dst, ...)``."""
        sim = self.net.sim
        obs = sim.obs
        span = None
        if obs.enabled:
            span = obs.start(
                "rpc", kind="net", src=self.src, dst=dst,
                request=type(payload).__name__, batched=True,
            )
        reply = Arrival(sim, name="rpc")
        self._enqueue(dst, (payload, _ReplyRef(src=self.src, reply=reply)))
        return (yield from _await_reply(sim, reply, timeout, self.src, dst, span))

    def _enqueue(self, dst: str, envelope: Tuple[Any, _ReplyRef]) -> None:
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
            (Batched(payload, index, size), reply_ref)
            for index, (payload, reply_ref) in enumerate(queue)
        )
        self.net.send(self.src, dst, _RequestBatch(envelopes))
