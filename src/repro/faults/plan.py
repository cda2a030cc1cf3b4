"""Declarative, virtual-time fault plans.

A :class:`FaultPlan` is an immutable script of fault *windows* — each one
names a kind of misbehaviour, the directed link (or crash target) it hits,
and the virtual-time interval it covers.  Plans carry no machinery: the
:class:`~repro.faults.scheduler.FaultScheduler` replays them against a
live deployment, and because both the plan and every downstream random
draw are deterministic, the same (plan, seed) pair always produces the
same execution.

``end_ms=math.inf`` leaves a window open for the rest of the run (the
"blackout" plans use this).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple, Union

from ..errors import FaultConfigError

__all__ = [
    "PartitionWindow",
    "DropWindow",
    "DuplicateWindow",
    "DelayWindow",
    "FollowupLossWindow",
    "CrashWindow",
    "SurgeWindow",
    "SlowServerWindow",
    "PoPPartitionWindow",
    "PoPCrashWindow",
    "MigrationWindow",
    "FaultAction",
    "FaultPlan",
]


def _check_window(name: str, start_ms: float, end_ms: float) -> None:
    if start_ms < 0:
        raise FaultConfigError(f"{name}: start_ms must be non-negative ({start_ms})")
    if end_ms <= start_ms:
        raise FaultConfigError(
            f"{name}: end_ms ({end_ms}) must be greater than start_ms ({start_ms})"
        )


@dataclass(frozen=True)
class PartitionWindow:
    """Silently drop all traffic between two regions for the window."""

    region_a: str
    region_b: str
    start_ms: float
    end_ms: float = math.inf
    bidirectional: bool = True

    def validate(self) -> None:
        _check_window("partition", self.start_ms, self.end_ms)


@dataclass(frozen=True)
class DropWindow:
    """Drop each message on a directed link with ``probability``."""

    src: str
    dst: str
    start_ms: float
    end_ms: float = math.inf
    probability: float = 1.0
    bidirectional: bool = False

    def validate(self) -> None:
        _check_window("drop", self.start_ms, self.end_ms)
        if not 0.0 <= self.probability <= 1.0:
            raise FaultConfigError(f"drop: probability out of range: {self.probability}")


@dataclass(frozen=True)
class DuplicateWindow:
    """Deliver each message on a directed link twice with ``probability``."""

    src: str
    dst: str
    start_ms: float
    end_ms: float = math.inf
    probability: float = 1.0
    bidirectional: bool = False

    def validate(self) -> None:
        _check_window("duplicate", self.start_ms, self.end_ms)
        if not 0.0 <= self.probability <= 1.0:
            raise FaultConfigError(
                f"duplicate: probability out of range: {self.probability}"
            )


@dataclass(frozen=True)
class DelayWindow:
    """Add ``extra_ms`` of one-way delay on a directed link (congestion)."""

    src: str
    dst: str
    start_ms: float
    extra_ms: float
    end_ms: float = math.inf
    bidirectional: bool = False

    def validate(self) -> None:
        _check_window("delay", self.start_ms, self.end_ms)
        if self.extra_ms < 0:
            raise FaultConfigError(f"delay: extra_ms must be non-negative: {self.extra_ms}")


@dataclass(frozen=True)
class FollowupLossWindow:
    """Eat every :class:`~repro.core.messages.WriteFollowup` network-wide
    for the window — the §3.4 scenario that forces intent-timer
    re-execution without disturbing any other traffic."""

    start_ms: float
    end_ms: float = math.inf

    def validate(self) -> None:
        _check_window("followup_loss", self.start_ms, self.end_ms)


@dataclass(frozen=True)
class CrashWindow:
    """Crash a named target (LVI server or Raft node) at ``crash_at_ms``
    and restart it at ``restart_at_ms`` (``None`` = never)."""

    target: str
    crash_at_ms: float
    restart_at_ms: Optional[float] = None

    def validate(self) -> None:
        if self.crash_at_ms < 0:
            raise FaultConfigError(
                f"crash: crash_at_ms must be non-negative ({self.crash_at_ms})"
            )
        if self.restart_at_ms is not None and self.restart_at_ms <= self.crash_at_ms:
            raise FaultConfigError(
                f"crash: restart_at_ms ({self.restart_at_ms}) must follow "
                f"crash_at_ms ({self.crash_at_ms})"
            )


@dataclass(frozen=True)
class SurgeWindow:
    """An open-loop traffic surge from ``region`` at ``rate_rps`` for the
    window — overload, the failure mode no partition or crash expresses.

    The scheduler only logs the window's boundaries; the *traffic* is
    generated by the chaos harness, which spawns a surge-capable
    :class:`~repro.workloads.clients.OpenLoopClient` per window (injected
    load must flow through the same runtime/history plumbing as the probe
    clients, which the scheduler has no access to).  A surge must end:
    the metastability check needs a post-surge recovery phase."""

    region: str
    start_ms: float
    end_ms: float
    rate_rps: float

    def validate(self) -> None:
        _check_window("surge", self.start_ms, self.end_ms)
        if math.isinf(self.end_ms):
            raise FaultConfigError("surge: end_ms must be finite (recovery is checked)")
        if self.rate_rps <= 0:
            raise FaultConfigError(f"surge: rate_rps must be positive: {self.rate_rps}")


@dataclass(frozen=True)
class SlowServerWindow:
    """Gray failure: the named LVI server *limps* for the window — its
    per-message CPU cost is inflated to ``proc_ms`` without crashing, so
    the endpoint stays up and every request still gets an answer,
    eventually.  Partitions and crashes cannot express this: the failure
    detector (RPC timeout) sees a slow success, not a dead peer."""

    target: str
    start_ms: float
    end_ms: float
    proc_ms: float

    def validate(self) -> None:
        _check_window("slow_server", self.start_ms, self.end_ms)
        if math.isinf(self.end_ms):
            raise FaultConfigError(
                "slow_server: end_ms must be finite (recovery is checked)"
            )
        if self.proc_ms <= 0:
            raise FaultConfigError(
                f"slow_server: proc_ms must be positive: {self.proc_ms}"
            )


@dataclass(frozen=True)
class PoPPartitionWindow:
    """Isolate a mesh PoP for the window: cut the region's links to the
    named mesh ``peers``, and (``wan=True``) to the primary's region too —
    the full island scenario where neither gossip nor the LVI path works
    and the PoP's clients must migrate to survive.  ``wan=False`` with the
    primary's region among the ``peers`` is refused: that cut takes the
    LVI path down while saying it stays up."""

    region: str
    start_ms: float
    end_ms: float = math.inf
    peers: Tuple[str, ...] = ()
    wan: bool = True
    #: The primary datacenter's region (the LVI path's far end);
    #: :data:`repro.sim.Region.VA` in the paper's topology.
    wan_region: str = "va"

    def validate(self) -> None:
        _check_window("pop_partition", self.start_ms, self.end_ms)
        if not self.peers and not self.wan:
            raise FaultConfigError(
                f"pop_partition({self.region}): no peers and wan=False — "
                f"the window would cut nothing"
            )
        if self.region in self.peers:
            raise FaultConfigError(
                f"pop_partition({self.region}): region cannot be its own peer"
            )
        if not self.wan and self.wan_region in self.peers:
            raise FaultConfigError(
                f"pop_partition({self.region}): wan=False but the peers include "
                f"the primary's region {self.wan_region!r}, so the LVI path is "
                f"cut too; say wan=True"
            )

    def cut_pairs(self) -> Tuple[Tuple[str, str], ...]:
        """The region pairs this window partitions (for overlap checks)."""
        pairs = [(self.region, p) for p in self.peers]
        if self.wan:
            pairs.append((self.region, self.wan_region))
        return tuple(pairs)


@dataclass(frozen=True)
class PoPCrashWindow:
    """Crash a mesh PoP location (cache lost unless persistent, gossip
    stops, the region's runtime refuses invocations) at ``crash_at_ms``;
    restart at ``restart_at_ms`` (``None`` = never).  The restarted PoP
    re-bootstraps through normal gossip: its zeroed version vector makes
    every peer re-send what it holds."""

    region: str
    crash_at_ms: float
    restart_at_ms: Optional[float] = None

    @property
    def target(self) -> str:
        return f"pop-{self.region}"

    def validate(self) -> None:
        if self.crash_at_ms < 0:
            raise FaultConfigError(
                f"pop_crash: crash_at_ms must be non-negative ({self.crash_at_ms})"
            )
        if self.restart_at_ms is not None and self.restart_at_ms <= self.crash_at_ms:
            raise FaultConfigError(
                f"pop_crash: restart_at_ms ({self.restart_at_ms}) must follow "
                f"crash_at_ms ({self.crash_at_ms})"
            )


@dataclass(frozen=True)
class MigrationWindow:
    """Force a client to migrate: at ``at_ms`` the named chaos client
    detaches from its current PoP and re-attaches to ``to_region``.

    Like :class:`SurgeWindow`, the scheduler only logs the event — the
    chaos harness drives the actual re-attach, because migration is a
    *client* action (sessions live in clients, not in the deployment)."""

    client: str          # chaos client id (e.g. "jp-0"), or "*" for all
    to_region: str
    at_ms: float

    def validate(self) -> None:
        if self.at_ms < 0:
            raise FaultConfigError(
                f"migration: at_ms must be non-negative ({self.at_ms})"
            )
        if not self.client:
            raise FaultConfigError("migration: client must be named (or '*')")
        if not self.to_region:
            raise FaultConfigError("migration: to_region must be named")


FaultAction = Union[
    PartitionWindow,
    DropWindow,
    DuplicateWindow,
    DelayWindow,
    FollowupLossWindow,
    CrashWindow,
    SurgeWindow,
    SlowServerWindow,
    PoPPartitionWindow,
    PoPCrashWindow,
    MigrationWindow,
]


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, named schedule of fault actions.

    ``replicated`` is a harness hint: the chaos harness builds the §5.6
    replicated deployment (Raft-backed locks + idempotency keys) for
    plans that crash Raft nodes or need cross-failover dedup.

    ``overload`` is the analogous hint for surge / gray-failure plans:
    the harness builds a capacity-bounded deployment (serial processing
    model + admission control + client limiter) and runs the
    metastability check against the plan's overload windows.

    ``mesh`` hints that the harness should build a cache-mesh deployment
    (``TopologySpec.mesh``) with session-carrying, migration-capable
    clients, and run the session-guarantee + causal-cut checks on the
    result.
    """

    name: str
    actions: Tuple[FaultAction, ...] = ()
    description: str = ""
    replicated: bool = False
    overload: bool = False
    mesh: bool = False

    def validate(self) -> None:
        """Raise :class:`FaultConfigError` on any malformed window, and on
        any pair of overlapping windows that drive the same knob of the
        same link or node — such pairs would otherwise resolve by silent
        last-writer-wins when the earlier window closes and heals the
        later one's effect."""
        if not self.name:
            raise FaultConfigError("fault plan needs a name")
        for action in self.actions:
            action.validate()
        self._check_conflicts()

    def _check_conflicts(self) -> None:
        # Expand every action into (knob-slot, interval, description)
        # entries; two entries with the same slot and overlapping
        # (half-open) intervals conflict.  Slots are directed: a drop on
        # jp->va and one on va->jp compose fine; different knobs on the
        # same link (drop + delay) also compose — the Network keeps them
        # independent.  Node slots ("node", target) are shared by crash
        # and limp windows: a target cannot crash and limp (or crash
        # twice) in overlapping windows.
        entries = []
        for action in self.actions:
            for slot, start, end in _conflict_slots(action):
                entries.append((slot, start, end, _describe(action)))
        entries.sort(key=lambda e: (e[0], e[1], e[2]))
        for i in range(1, len(entries)):
            slot_a, start_a, end_a, desc_a = entries[i - 1]
            slot_b, start_b, end_b, desc_b = entries[i]
            if slot_a == slot_b and start_b < end_a:
                raise FaultConfigError(
                    f"plan {self.name!r}: conflicting windows on "
                    f"{_slot_name(slot_a)} — {desc_a} overlaps {desc_b}; "
                    f"the earlier window's close would silently cancel the "
                    f"later one's effect"
                )

    def crash_targets(self) -> Tuple[str, ...]:
        """Names every CrashWindow / PoPCrashWindow refers to (the
        scheduler checks that each one is bound to a live object before
        starting)."""
        return tuple(
            dict.fromkeys(
                a.target
                for a in self.actions
                if isinstance(a, (CrashWindow, PoPCrashWindow))
            )
        )

    def migration_windows(self) -> Tuple[MigrationWindow, ...]:
        """The plan's forced migrations, in time order (the chaos harness
        re-attaches the named clients)."""
        return tuple(
            sorted(
                (a for a in self.actions if isinstance(a, MigrationWindow)),
                key=lambda a: (a.at_ms, a.client),
            )
        )

    def slow_targets(self) -> Tuple[str, ...]:
        """Names every SlowServerWindow refers to — bound the same way
        CrashWindow targets are (the object needs ``set_proc_override``)."""
        return tuple(
            dict.fromkeys(
                a.target for a in self.actions if isinstance(a, SlowServerWindow)
            )
        )

    def surge_windows(self) -> Tuple[SurgeWindow, ...]:
        """The plan's traffic surges, in action order (the chaos harness
        spawns one open-loop client per window)."""
        return tuple(a for a in self.actions if isinstance(a, SurgeWindow))

    def overload_windows(self) -> Tuple[Tuple[float, float], ...]:
        """(start_ms, end_ms) of every overload-inducing window — surges
        and limps — for the metastability check's pre/post phases."""
        return tuple(
            (a.start_ms, a.end_ms)
            for a in self.actions
            if isinstance(a, (SurgeWindow, SlowServerWindow))
        )

    def horizon_ms(self) -> float:
        """The last *finite* scheduled transition — how long the harness
        must keep the world running for every window to open and close."""
        times = [0.0]
        for a in self.actions:
            if isinstance(a, (CrashWindow, PoPCrashWindow)):
                times.append(a.crash_at_ms)
                if a.restart_at_ms is not None:
                    times.append(a.restart_at_ms)
            elif isinstance(a, MigrationWindow):
                times.append(a.at_ms)
            else:
                times.append(a.start_ms)
                if not math.isinf(a.end_ms):
                    times.append(a.end_ms)
        return max(times)


def _directed_pairs(src: str, dst: str, bidirectional: bool):
    pairs = [(src, dst)]
    if bidirectional:
        pairs.append((dst, src))
    return pairs


def _conflict_slots(action):
    """(slot, start_ms, end_ms) triples naming every knob a window holds
    for its duration.  Two windows conflict iff a slot collides in time."""
    if isinstance(action, PartitionWindow):
        return [
            (("partition", s, d), action.start_ms, action.end_ms)
            for s, d in _directed_pairs(
                action.region_a, action.region_b, action.bidirectional
            )
        ]
    if isinstance(action, PoPPartitionWindow):
        # PoP isolation drives the same Network partition knob, both
        # directions per cut pair — collides with PartitionWindows too.
        slots = []
        for a, b in action.cut_pairs():
            for s, d in _directed_pairs(a, b, True):
                slots.append((("partition", s, d), action.start_ms, action.end_ms))
        return slots
    if isinstance(action, DropWindow):
        return [
            (("drop", s, d), action.start_ms, action.end_ms)
            for s, d in _directed_pairs(action.src, action.dst, action.bidirectional)
        ]
    if isinstance(action, DuplicateWindow):
        return [
            (("duplicate", s, d), action.start_ms, action.end_ms)
            for s, d in _directed_pairs(action.src, action.dst, action.bidirectional)
        ]
    if isinstance(action, DelayWindow):
        return [
            (("delay", s, d), action.start_ms, action.end_ms)
            for s, d in _directed_pairs(action.src, action.dst, action.bidirectional)
        ]
    if isinstance(action, FollowupLossWindow):
        return [(("followup",), action.start_ms, action.end_ms)]
    if isinstance(action, (CrashWindow, PoPCrashWindow)):
        end = math.inf if action.restart_at_ms is None else action.restart_at_ms
        return [(("node", action.target), action.crash_at_ms, end)]
    if isinstance(action, SlowServerWindow):
        return [(("node", action.target), action.start_ms, action.end_ms)]
    if isinstance(action, MigrationWindow):
        # Instantaneous; two same-instant migrations of one client are
        # contradictory (which PoP should it land on?).  Model as a
        # zero-length-plus-epsilon slot so only exact collisions conflict.
        return [(("migration", action.client), action.at_ms, action.at_ms + 1e-9)]
    # SurgeWindows are additive traffic, not a knob: never conflicting.
    return []


def _slot_name(slot) -> str:
    kind = slot[0]
    if kind == "partition":
        return f"partition {slot[1]}<->{slot[2]}"
    if kind in ("drop", "duplicate", "delay"):
        return f"{kind} link {slot[1]}->{slot[2]}"
    if kind == "followup":
        return "network-wide followup loss"
    if kind == "node":
        return f"node {slot[1]}"
    if kind == "migration":
        return f"client {slot[1]}"
    return str(slot)


def _describe(action) -> str:
    if isinstance(action, (CrashWindow, PoPCrashWindow)):
        restart = (
            "never restarts"
            if action.restart_at_ms is None
            else f"restarts at {action.restart_at_ms}ms"
        )
        return f"{type(action).__name__}(crash at {action.crash_at_ms}ms, {restart})"
    if isinstance(action, MigrationWindow):
        return (
            f"MigrationWindow({action.client} -> {action.to_region} "
            f"at {action.at_ms}ms)"
        )
    return f"{type(action).__name__}({action.start_ms}ms..{action.end_ms}ms)"
