"""Declarative topology construction: one builder for every deployment.

Before this module, four call sites hand-rolled the same Radical stack —
the experiment harness, the per-figure drivers, the chaos harness, and the
test scaffolding — each with its own slightly different wiring.  A
:class:`TopologySpec` now *describes* a deployment (regions, shard count,
placement, cache persistence, fault plan, tracing) and
:meth:`Deployment.build` constructs it in one canonical order:

    sim → trace collector → random streams → network → metrics → history
    → registry → stores (+ seed data) → raft (+ prewarm) → LVI servers
    → per-region caches + runtimes → fault scheduler

That order matters: random streams are name-keyed, so components draw
identical sequences regardless of *when* they are built, but the network
endpoint-name counter and the raft prewarm run are order-sensitive — the
canonical order reproduces the seed builders byte for byte.  A one-shard
``Deployment`` is the seed topology exactly: same endpoint names, same
stream names, same virtual timeline.

With ``shards > 1`` the near-storage tier is partitioned: each shard gets
an independent :class:`~repro.core.LVIServer` (own lock table, intent
table, primary store slice) and runtimes receive a
:class:`~repro.topology.ShardRouter` that sends single-shard requests down
the seed's one-RPC fast path and cross-shard requests through the
scatter-gather prepare/commit flow (docs/TOPOLOGY.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..consistency import HistoryRecorder
from ..core import FunctionRegistry, LVIServer, NearUserRuntime, RadicalConfig
from ..errors import FaultConfigError
from ..mesh import CacheMesh, MeshSpec
from ..sim import (
    LatencyTable,
    Metrics,
    Network,
    RandomStreams,
    Region,
    RttDataset,
    Simulator,
    resolve_rtt_dataset,
)
from ..storage import KVStore, NearUserCache
from .shardmap import ConflictDetector, HashShardMap, ShardMap, ShardRouter

__all__ = [
    "ASSIGNMENT_POLICIES",
    "PopAssignment",
    "TopologySpec",
    "Deployment",
]

Key = Tuple[str, str]

#: Client→PoP assignment policies (docs/ROUTING.md).
#:
#: * ``home-region`` — the seed's behaviour: every client region hosts its
#:   own PoP and clients use it (requires each client region in the PoP set).
#: * ``nearest-rtt`` — clients attach to the lowest-RTT PoP (their own
#:   region when it hosts one).
#: * ``tiered`` — nearest-rtt, but when the nearest PoP is further than
#:   ``tiered_threshold_ms`` away the client falls back to the PoP
#:   co-located with the primary (the direct-to-primary tier).
#: * ``direct`` — every client goes straight to the primary-region PoP;
#:   with warm caches this behaves like the centralized baseline.
ASSIGNMENT_POLICIES = ("home-region", "nearest-rtt", "tiered", "direct")


@dataclass(frozen=True)
class PopAssignment:
    """One client region's routing decision, made at build time."""

    client: str
    pop: str
    #: ``home`` (own-region PoP), ``edge`` (remote PoP won on RTT), or
    #: ``direct`` (fell back to the primary-region PoP).
    mode: str
    policy: str
    #: Client↔PoP round trip the workload layer should model; ``None``
    #: means "keep the seed default" (the 1 ms same-region hop).
    client_rtt_ms: Optional[float]


@dataclass
class TopologySpec:
    """Everything that defines a Radical deployment's shape.

    The defaults describe the paper's topology: five near-user regions,
    one LVI server + primary store in Virginia, persistent warmed caches.
    """

    regions: Sequence[str] = Region.NEAR_USER
    shards: int = 1
    seed: int = 42
    config: RadicalConfig = field(default_factory=RadicalConfig)
    network_jitter_sigma: float = 0.0
    trace: bool = False
    warm_caches: bool = True
    persistent_caches: bool = True
    record_history: bool = False
    #: Placement policy; ``None`` means ``HashShardMap(shards)``.
    shard_map: Optional[ShardMap] = None
    #: Armed through the fault scheduler right after construction.
    fault_plan: Optional[Any] = None
    #: Virtual time burned electing an initial Raft leader before traffic
    #: (the seed harness's 500 ms; chaos runs elect under traffic with 0).
    raft_prewarm_ms: float = 500.0
    #: Cache mesh configuration (repro.mesh).  ``None`` keeps the seed's
    #: isolated per-region caches; a :class:`~repro.mesh.MeshSpec` makes
    #: every region's cache a gossiping PoP.  A 1-region mesh registers no
    #: endpoints and schedules nothing — virtual-time-identical to None.
    mesh: Optional[MeshSpec] = None
    #: Where the latency matrix comes from: ``None`` / ``"paper"`` keeps the
    #: seed's Table-2 matrix; otherwise any :func:`resolve_rtt_dataset` ref
    #: (``{"kind": "synthetic-geo", "n": 25, ...}``) or an
    #: :class:`~repro.sim.RttDataset` instance.
    rtt: Optional[Any] = None
    #: Placement policy: which regions host PoPs (near-user cache +
    #: runtime).  ``None`` means every client region hosts its own PoP —
    #: the seed topology.
    pop_regions: Optional[Sequence[str]] = None
    #: Region hosting the LVI servers + primary store (paper: Virginia).
    primary_region: str = Region.VA
    #: Client→PoP assignment policy; see :data:`ASSIGNMENT_POLICIES`.
    assignment: str = "home-region"
    #: ``tiered`` policy: nearest-PoP RTT above this falls back to direct.
    tiered_threshold_ms: float = 100.0

    @property
    def routing_active(self) -> bool:
        """True when any non-seed routing knob is set.  Seed-default specs
        skip assignment metrics entirely so existing artifacts stay
        byte-identical."""
        return (
            self.rtt is not None
            or self.pop_regions is not None
            or self.primary_region != Region.VA
            or self.assignment != "home-region"
        )

    def resolved_shard_map(self) -> ShardMap:
        if self.shard_map is not None:
            if self.shard_map.nshards != self.shards:
                raise ValueError(
                    f"shard_map covers {self.shard_map.nshards} shard(s) "
                    f"but spec.shards is {self.shards}"
                )
            return self.shard_map
        return HashShardMap(self.shards)

    def validate(self) -> None:
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.config.replicated and self.shards > 1:
            raise ValueError(
                "replicated (Raft-backed) servers are single-shard only"
            )
        if not self.regions:
            raise ValueError("spec needs at least one client region")
        if self.assignment not in ASSIGNMENT_POLICIES:
            raise ValueError(
                f"unknown assignment policy {self.assignment!r} "
                f"(available: {', '.join(ASSIGNMENT_POLICIES)})"
            )
        if self.tiered_threshold_ms <= 0:
            raise ValueError(
                f"tiered_threshold_ms must be positive, got {self.tiered_threshold_ms}"
            )
        if self.pop_regions is not None:
            if not self.pop_regions:
                raise ValueError("pop_regions, when given, needs at least one region")
            if len(set(self.pop_regions)) != len(tuple(self.pop_regions)):
                raise ValueError("pop_regions contains duplicates")
        if self.assignment == "home-region" and self.pop_regions is not None:
            missing = [r for r in self.regions if r not in set(self.pop_regions)]
            if missing:
                raise ValueError(
                    "home-region assignment needs a PoP in every client region; "
                    f"missing: {', '.join(missing)}"
                )
        if self.mesh is not None:
            self.mesh.validate()
            if self.pop_regions is not None and set(self.pop_regions) != set(self.regions):
                raise ValueError(
                    "a cache mesh requires pop_regions == regions "
                    "(every client region gossips through its own PoP)"
                )
        self.resolved_shard_map()

    def resolved_rtt_dataset(self) -> RttDataset:
        return resolve_rtt_dataset(self.rtt)

    def resolved_pop_regions(self) -> Tuple[str, ...]:
        """PoP set in deterministic build order.  Policies with a direct
        tier get a primary-region PoP appended if absent."""
        pops = tuple(self.pop_regions) if self.pop_regions is not None else tuple(self.regions)
        if self.assignment in ("tiered", "direct") and self.primary_region not in pops:
            pops = pops + (self.primary_region,)
        return pops

    def check_regions(self, table: LatencyTable) -> None:
        """Build-time validation that every region this spec names can be
        resolved by the latency table — a typo'd region fails here with
        the full picture instead of mid-simulation via a KeyError."""
        used = list(dict.fromkeys(
            tuple(self.regions) + self.resolved_pop_regions() + (self.primary_region,)
        ))
        known = table.regions()
        if not known and len(used) <= 1:
            return  # degenerate single-region matrix: nothing to cross
        unknown = [r for r in used if r not in known]
        if unknown:
            raise ValueError(
                f"region(s) not covered by the RTT dataset: {', '.join(sorted(unknown))} "
                f"(dataset regions: {', '.join(sorted(known))})"
            )


class _ShardedSeedWriter:
    """Routes an app's ``seed(store, ...)`` puts to the owning shard's
    store, so data seeding stays a plain single-store program."""

    def __init__(self, deployment: "Deployment"):
        self._deployment = deployment

    def put(self, table: str, key: str, value: Any) -> Any:
        return self._deployment.store_for(table, key).put(table, key, value)

    def get(self, table: str, key: str) -> Any:
        return self._deployment.store_for(table, key).get(table, key)

    def get_or_none(self, table: str, key: str) -> Any:
        return self._deployment.store_for(table, key).get_or_none(table, key)


class Deployment:
    """A fully-wired Radical stack, built from a :class:`TopologySpec`.

    Construction happens in :meth:`build`; the instance then exposes the
    pieces callers drive (``sim``, ``runtimes``, ``metrics``, …) plus
    shard-aware helpers (:meth:`store_for`, :meth:`pending_intents`) that
    replace direct single-store access in reconciliation code.
    """

    def __init__(self) -> None:
        # Populated by build(); listed here for discoverability.
        self.spec: TopologySpec
        self.sim: Simulator
        self.net: Network
        self.streams: RandomStreams
        self.metrics: Metrics
        self.history: Optional[HistoryRecorder] = None
        self.registry: FunctionRegistry
        self.stores: List[KVStore] = []
        self.servers: List[LVIServer] = []
        self.replicas: List[LVIServer] = []
        self.router: Optional[ShardRouter] = None
        self.caches: Dict[str, NearUserCache] = {}
        self.runtimes: Dict[str, NearUserRuntime] = {}
        self.rtt_dataset: Optional[RttDataset] = None
        self.assignments: Dict[str, PopAssignment] = {}
        self.mesh: Optional[CacheMesh] = None
        self.raft = None
        self.scheduler = None
        self.trace = None

    # -- construction -------------------------------------------------------

    @classmethod
    def build(
        cls,
        spec: TopologySpec,
        app=None,
        functions: Sequence[Any] = (),
        seed_data: Optional[Callable[[Any], None]] = None,
    ) -> "Deployment":
        """Construct the deployment.

        Exactly one source of functions: an ``app`` (its specs are
        registered and its seeder runs against the sharded store view) or
        an explicit ``functions`` list of :class:`FunctionSpec` plus an
        optional ``seed_data(store)`` callback.
        """
        spec.validate()
        if app is not None and functions:
            raise ValueError("pass an app or explicit functions, not both")
        self = cls()
        self.spec = spec
        cfg = spec.config

        sim = Simulator()
        if spec.trace:
            from ..obs import TraceCollector

            # Installed before any component is built so every layer sees it.
            sim.obs = TraceCollector(sim)
            self.trace = sim.obs
        self.sim = sim
        self.streams = RandomStreams(spec.seed)
        self.rtt_dataset = spec.resolved_rtt_dataset()
        latency = self.rtt_dataset.latency_table()
        spec.check_regions(latency)
        self.net = Network(
            sim, latency, self.streams,
            jitter_sigma=spec.network_jitter_sigma,
        )
        self.metrics = Metrics()
        if spec.record_history:
            self.history = HistoryRecorder()

        self.registry = FunctionRegistry()
        if app is not None:
            self.registry.register_all(app.specs())
        else:
            for fn_spec in functions:
                self.registry.register(fn_spec)

        # Stores: shard 0 keeps the seed's anonymous KVStore() so one-shard
        # deployments are indistinguishable from the hand-rolled builders.
        self.stores = [
            KVStore() if k == 0 else KVStore(name=f"primary-shard{k}")
            for k in range(spec.shards)
        ]
        shard_map = spec.resolved_shard_map()
        self._shard_map = shard_map
        seed_view = self.stores[0] if spec.shards == 1 else _ShardedSeedWriter(self)
        if app is not None:
            app.seed(seed_view, self.streams, app.context)
        elif seed_data is not None:
            seed_data(seed_view)

        if cfg.replicated:
            from ..raft import RaftCluster

            self.raft = RaftCluster(sim, self.streams)
            self.raft.start()
            if spec.raft_prewarm_ms > 0:
                sim.run(until=spec.raft_prewarm_ms)  # elect a leader first

        for k in range(spec.shards):
            name = "lvi-server" if k == 0 else f"lvi-server-{k}"
            self.servers.append(
                LVIServer(
                    sim, self.net, self.registry, self.stores[k], cfg,
                    self.streams, self.metrics, name=name,
                    region=spec.primary_region,
                    raft_cluster=self.raft if k == 0 else None, shard=k,
                )
            )
        if spec.shards > 1 or cfg.conflict_detection:
            self.router = ShardRouter(shard_map, [s.name for s in self.servers])
        if cfg.conflict_detection:
            # In-network conflict detection: one shared detector sits on
            # the request path of every runtime and server (writers enroll
            # before sending; servers re-probe at arrival).  Read replicas
            # share the shard's store object but own no locks or intents —
            # they only serve lock-skipped reads.  A replicated (Raft)
            # deployment keeps a single serving instance per shard: its
            # lock records live in the Raft log, which replicas bypass.
            detector = ConflictDetector(metrics=self.metrics)
            self.router.detector = detector
            n_replicas = 1 if cfg.replicated else max(1, cfg.read_replicas)
            for k in range(spec.shards):
                primary = self.servers[k]
                primary.detector = detector
                rotation = [primary.name]
                for i in range(1, n_replicas):
                    r = LVIServer(
                        sim, self.net, self.registry, self.stores[k], cfg,
                        self.streams, self.metrics,
                        name=f"{primary.name}-r{i}",
                        region=spec.primary_region, shard=k, replica=True,
                    )
                    r.detector = detector
                    self.replicas.append(r)
                    rotation.append(r.name)
                self.router.register_read_endpoints(k, rotation)

        pop_regions = spec.resolved_pop_regions()
        if spec.mesh is not None and spec.mesh.enabled:
            self.mesh = CacheMesh(
                sim, self.net, spec.mesh, list(spec.regions), self.metrics
            )
        for region in pop_regions:
            if self.mesh is not None:
                cache = self.mesh.make_pop(region, persistent=spec.persistent_caches)
            else:
                cache = NearUserCache(region, persistent=spec.persistent_caches)
            if spec.warm_caches:
                for store in self.stores:
                    _warm_cache(cache, store)
            self.caches[region] = cache
            self.runtimes[region] = NearUserRuntime(
                sim, self.net, region, cache, self.registry, cfg,
                self.streams, self.metrics, router=self.router,
                pop=self.mesh.pop(region) if self.mesh is not None else None,
            )
        if self.mesh is not None:
            # After every runtime: gossip endpoints must not perturb the
            # endpoint-name counters the runtimes draw from.
            self.mesh.start()

        self.assignments = _assign_clients(spec, latency, pop_regions)
        if spec.routing_active:
            # Surface every routing decision; seed-default specs skip this
            # so existing artifacts stay byte-identical.
            for a in self.assignments.values():
                self.metrics.record_tagged(
                    "routing.assign_rtt_ms",
                    a.client_rtt_ms if a.client_rtt_ms is not None else 1.0,
                    client=a.client, pop=a.pop, policy=a.policy, mode=a.mode,
                )
                self.metrics.incr(f"routing.assigned.{a.mode}")

        if spec.fault_plan is not None:
            from ..faults.scheduler import FaultScheduler

            plan = spec.fault_plan
            plan.validate()
            if plan.replicated and not cfg.replicated:
                raise FaultConfigError(
                    f"plan {plan.name!r} requires a replicated deployment"
                )
            self.scheduler = FaultScheduler(
                sim, self.net, plan, targets=self.fault_targets(),
                metrics=self.metrics,
            )
            self.scheduler.start()
        return self

    # -- convenience accessors ---------------------------------------------

    @property
    def server(self) -> LVIServer:
        """Shard 0's server (the seed's single ``lvi-server``)."""
        return self.servers[0]

    @property
    def store(self) -> KVStore:
        """Shard 0's store (the seed's single primary store)."""
        return self.stores[0]

    @property
    def nshards(self) -> int:
        return self.spec.shards

    def shard_of(self, table: str, key: str) -> int:
        return self._shard_map.shard_of(table, key)

    def store_for(self, table: str, key: str) -> KVStore:
        return self.stores[self.shard_of(table, key)]

    def get_or_none(self, table: str, key: str):
        """Shard-routed read of the authoritative primary state."""
        return self.store_for(table, key).get_or_none(table, key)

    def pending_intents(self) -> List[Any]:
        """Unsettled write intents across every shard (reconciliation)."""
        return [i for server in self.servers for i in server.intents.pending()]

    def runtime_for_client(self, region: str) -> NearUserRuntime:
        """The runtime serving clients homed in ``region``, per the spec's
        assignment policy (their own PoP under the seed default)."""
        return self.runtimes[self.assignments[region].pop]

    def client(self, region: str) -> Tuple[Callable[..., Any], float]:
        """What a workload client homed in ``region`` binds to — the
        ``(invoke, client_rtt_ms)`` the baseline systems in
        :mod:`repro.baselines` expose too: its assigned runtime and the
        client↔PoP round trip to model (the seed's same-region hop unless
        the assignment policy sent it to a remote PoP)."""
        rtt = self.assignments[region].client_rtt_ms
        return (
            self.runtime_for_client(region).invoke,
            self.spec.config.client_app_rtt_ms if rtt is None else rtt,
        )

    def fault_targets(self) -> Dict[str, Any]:
        """Crash/restartable objects, keyed the way CrashWindows name them."""
        targets: Dict[str, Any] = {s.name: s for s in self.servers}
        if self.raft is not None:
            targets.update(self.raft.nodes)
            targets["raft-leader"] = _RaftLeaderTarget(self.raft)
        if self.mesh is not None:
            targets.update(self.mesh.fault_targets())
        return targets


class _RaftLeaderTarget:
    """Crash target that resolves to *whichever node leads at crash time*.

    A ``CrashWindow("raft-leader", ...)`` cannot name a concrete node up
    front: which replica wins the initial election depends on the seed
    and on any faults already injected.  The scheduler binds targets at
    arm time but only calls ``crash()``/``recover()`` when the window
    fires, so this proxy defers the leadership lookup to that instant.
    The node chosen by ``crash()`` is remembered so the paired restart
    revives the same replica (there may be a *new* leader by then).
    """

    def __init__(self, raft) -> None:
        self._raft = raft
        self._crashed = None

    def crash(self) -> None:
        node = self._raft.leader()
        if node is None:
            # Mid-election (e.g. an earlier fault already took the leader
            # down): fall back to the lowest-named live node so the window
            # still perturbs the quorum deterministically.
            live = [n for n in self._raft.nodes.values() if n._alive]
            if not live:
                return
            node = min(live, key=lambda n: n.node_id)
        self._crashed = node
        node.crash()

    def recover(self) -> None:
        if self._crashed is not None:
            self._crashed.recover()
            self._crashed = None


def _assign_clients(
    spec: TopologySpec, latency: LatencyTable, pops: Sequence[str]
) -> Dict[str, PopAssignment]:
    """Map every client region to a PoP under the spec's policy.

    RTT between a client and its own-region PoP is the seed's 1 ms hop
    (``client_rtt_ms=None`` → workload default), not the 7 ms intra-region
    service RTT — users sit next to their PoP, not across the datacenter
    fabric.  Ties on RTT break by region name so assignment is
    deterministic under any dict ordering.
    """
    policy = spec.assignment
    primary = spec.primary_region

    def pop_rtt(client: str, pop: str) -> float:
        return 0.0 if client == pop else latency.rtt(client, pop)

    def nearest(client: str) -> str:
        return min(pops, key=lambda p: (pop_rtt(client, p), p))

    out: Dict[str, PopAssignment] = {}
    for client in spec.regions:
        if policy == "home-region":
            out[client] = PopAssignment(client, client, "home", policy, None)
            continue
        if policy == "direct":
            rtt = None if client == primary else latency.rtt(client, primary)
            out[client] = PopAssignment(client, primary, "direct", policy, rtt)
            continue
        pop = nearest(client)
        rtt_ms = pop_rtt(client, pop)
        if policy == "tiered" and pop != client and rtt_ms > spec.tiered_threshold_ms:
            # The nearest PoP is too far to be worth the speculative hop:
            # fall back to the direct-to-primary tier.
            rtt = None if client == primary else latency.rtt(client, primary)
            out[client] = PopAssignment(client, primary, "direct", policy, rtt)
            continue
        mode = "home" if pop == client else "edge"
        out[client] = PopAssignment(
            client, pop, mode, policy, None if pop == client else rtt_ms
        )
    return out


def _warm_cache(cache: NearUserCache, store: KVStore) -> None:
    """Copy a primary store's current contents into a near-user cache —
    the steady-state starting point (the paper's runs measure warmed
    deployments; cold-start is the §3.2 bootstrap ablation).  Protocol
    tables (``_radical*``) never enter caches."""
    for table in store.table_names():
        if table.startswith("_radical"):
            continue
        for key, item in store.scan(table):
            cache.install(table, key, item)
