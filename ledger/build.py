"""Every piece of deployment construction the ledger needs, in one file.

The workloads (``workloads.py``), the microbenches (``isolated.py``) and the
probes never build a simulator, a deployment or a client themselves: they ask
this module.  A later reshaping of ``TopologySpec`` / ``RadicalConfig`` /
``Deployment.build`` therefore needs exactly one benchmark edit — here.

Only the construction surface is imported (``repro.topology``, ``core``,
``workloads``, ``apps``, ``sim``, ``mesh``, ``faults`` plan types,
``consistency``, ``storage``, ``baselines``); never ``repro.bench``,
``repro.scenarios`` or ``repro.cli``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.apps import App, AppFunction, WorkloadContext, forum_app, social_media_app
from repro.baselines import PrimaryBaseline
from repro.consistency import HistoryRecorder
from repro.core import FunctionRegistry, FunctionSpec, RadicalConfig
from repro.errors import UnavailableError
from repro.faults import CrashWindow, DropWindow, FaultPlan, PartitionWindow
from repro.mesh import MeshSpec, Session
from repro.sim import (
    LatencyTable,
    Metrics,
    Network,
    RandomStreams,
    Region,
    RttDataset,
    Simulator,
    paper_latency_table,
)
from repro.storage import KVStore
from repro.topology import Deployment, TopologySpec
from repro.workloads import ClosedLoopClient, OpenLoopClient

REGIONS: Tuple[str, ...] = tuple(Region.NEAR_USER)

# --------------------------------------------------------------------------
# The counter application (counter-contended, readmix-sharded).  Two
# single-key functions over independent counters, written against the public
# App / AppFunction / FunctionSpec API.  A counter seeded with 0 has version
# 1 and every bump adds one to both, so ``value == version - 1`` always: the
# exactly-once check and the per-request result check both rest on that.
# --------------------------------------------------------------------------

COUNTER_READ_SRC = '''
def read_counter(k):
    busy(4000)
    count = db_get("counters", f"c:{k}")
    if count is None:
        count = 0
    return count
'''

COUNTER_BUMP_SRC = '''
def bump_counter(k):
    busy(2000)
    count = db_get("counters", f"c:{k}")
    if count is None:
        count = 0
    db_put("counters", f"c:{k}", count + 1)
    return count + 1
'''

COUNTER_READ = "counter.read"
COUNTER_BUMP = "counter.bump"


def counter_app(keys: int, zipf_s: float, write_pct: float) -> App:
    """``keys`` counters picked with zipf(``zipf_s``) (0 = uniform);
    ``write_pct`` percent of requests bump, the rest read."""
    ctx = WorkloadContext(zipf_s=zipf_s)

    def pick(c, rng):
        return [str(c.zipf("ledger.counters", keys, rng))]

    def seed(store, streams, c):
        for i in range(keys):
            store.put("counters", f"c:{i}", 0)

    functions = [
        AppFunction(FunctionSpec(COUNTER_READ, COUNTER_READ_SRC, 40.0, 100.0 - write_pct), pick),
        AppFunction(FunctionSpec(COUNTER_BUMP, COUNTER_BUMP_SRC, 20.0, write_pct), pick),
    ]
    return App(name="ledger-counter", functions=functions, seed=seed, context=ctx)


# --------------------------------------------------------------------------
# Shapes: what a workload's deployment and load look like.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Shape:
    """One request workload: application, topology, load."""

    #: Builds a *fresh* app.  Apps cache a zipf sampler bound to the first
    #: client's RNG, so reusing one across runs breaks per-seed determinism.
    app: Callable[[], App]
    #: ``closed`` (each client waits for its reply) or ``open`` (Poisson).
    loop: str
    regions: Tuple[str, ...] = REGIONS
    config: Callable[[], RadicalConfig] = RadicalConfig
    jitter: float = 0.0
    shards: int = 1
    mesh: Optional[MeshSpec] = None
    fault_plan: Optional[FaultPlan] = None
    #: Zero-latency matrix instead of the paper's Table 2 (isolated bench).
    zero_rtt: bool = False
    # closed loop
    clients_per_region: int = 2
    requests: int = 0
    # open loop
    rate_rps: float = 0.0          # per region
    duration_ms: float = 0.0
    #: Virtual ms to keep running after the last client finishes, so that
    #: followups, intent timers and fault recovery settle before the checks.
    drain_ms: float = 10_000.0
    #: Give each client a mesh session (read-your-writes / monotonic reads).
    sessions: bool = False
    #: Latency limit behind ``slo_miss_share`` (virtual ms).
    slo_ms: float = 400.0
    #: The timed region is driven in slices of this much virtual time, each
    #: timed on its own (about a fortieth of the makespan; see ``drive``).
    slice_ms: float = 1_000.0

    def per_client_requests(self) -> int:
        return max(1, self.requests // len(self.regions) // self.clients_per_region)

    def clients_in_region(self) -> int:
        """An open loop needs one Poisson source per region."""
        return self.clients_per_region if self.loop == "closed" else 1


def readmix_config() -> RadicalConfig:
    """Capacity-limited sharded tier: a serial 6 ms per message at every
    server, conflict detection with three read replicas per shard, and
    timeouts generous enough that overload stretches the makespan instead
    of shedding (the ladder must see the backlog, not hide it)."""
    return RadicalConfig(
        service_jitter_sigma=0.0,
        server_proc_ms=6.0,
        rpc_timeout_ms=300_000.0,
        retry_max_attempts=1,
        invocation_deadline_ms=0.0,
        followup_timeout_ms=120_000.0,
        conflict_detection=True,
        read_replicas=3,
    )


def raft_faulted_config() -> RadicalConfig:
    """Raft-replicated near-storage with chaos-style tightened timeouts:
    per-attempt timeouts short enough to retry inside a fault window, a
    deadline that bounds every invocation, a breaker that opens quickly."""
    return RadicalConfig(
        replicated=True,
        followup_timeout_ms=600.0,
        rpc_timeout_ms=400.0,
        retry_max_attempts=3,
        retry_base_backoff_ms=20.0,
        retry_backoff_multiplier=2.0,
        retry_max_backoff_ms=200.0,
        retry_jitter_frac=0.2,
        invocation_deadline_ms=4_000.0,
        breaker_failure_threshold=5,
        breaker_cooldown_ms=1_500.0,
    )


#: Leader crash instant of the raft-faulted plan (``raft.failover_ms``).
RAFT_CRASH_AT_MS = 2_000.0


def raft_fault_plan() -> FaultPlan:
    return FaultPlan(
        "ledger-raft-faulted",
        (
            CrashWindow("raft-leader", RAFT_CRASH_AT_MS, 6_000.0),
            PartitionWindow(Region.JP, Region.VA, 9_000.0, 11_000.0),
            # Six seconds, not three: with a shorter window the share of
            # requests a drop delays sits at 1%, and p99 flips between two
            # modes (300 ms / 510 ms) from seed to seed.
            DropWindow(Region.CA, Region.VA, 13_000.0, 19_000.0,
                       probability=0.25, bidirectional=True),
        ),
        "leader crash, then a JP-VA partition, then 25% loss CA<->VA",
        replicated=True,
    )


def zero_latency_table() -> LatencyTable:
    """Every hop takes zero virtual time: what is left is the protocol."""
    return LatencyTable({}, intra_rtt=0.0)


def topology(shape: Shape, seed: int, trace: bool = False) -> TopologySpec:
    return TopologySpec(
        regions=shape.regions,
        shards=shape.shards,
        seed=seed,
        config=shape.config(),
        network_jitter_sigma=shape.jitter,
        trace=trace,
        warm_caches=True,           # the paper's setting: steady-state caches
        persistent_caches=True,
        mesh=shape.mesh,
        fault_plan=shape.fault_plan,
        rtt=_ZeroRtt() if shape.zero_rtt else None,
    )


class _ZeroRtt(RttDataset):
    """A one-region dataset whose only hop, the intra-region one, is free."""

    name = "ledger-zero"
    primary_region = Region.VA

    def latency_table(self) -> LatencyTable:
        return zero_latency_table()

    def region_names(self) -> Tuple[str, ...]:
        return (Region.VA,)


# --------------------------------------------------------------------------
# Outcome recording.  Timed repetitions run bare; the checked pass wraps each
# runtime's ``invoke`` with this recorder.  The wrapper delegates with
# ``yield from`` — it spawns nothing and schedules nothing, so the recorded
# run dispatches exactly the events of the bare one (workloads.py asserts it).
# --------------------------------------------------------------------------


@dataclass
class Recorder:
    """What the output checks need: the history, the ack tallies, and the
    per-request verdicts."""

    history: HistoryRecorder = field(default_factory=HistoryRecorder)
    acked_bumps: Dict[str, int] = field(default_factory=dict)
    maybe_bumps: Dict[str, int] = field(default_factory=dict)
    wrong_results: int = 0
    #: (arrived_at, responded_at, region, ok) per request, for failover time.
    arrivals: List[Tuple[float, float, str, bool]] = field(default_factory=list)

    def wrap(self, sim: Simulator, region: str, invoke, session_id: str = ""):
        def recording_invoke(function_id: str, args: List[Any]) -> Generator:
            started = sim.now
            record = self.history.begin(function_id, started, session=session_id)
            try:
                outcome = yield from invoke(function_id, args)
            except UnavailableError:
                # The write may or may not have landed near storage: keep it
                # out of the history, but bound it in the exactly-once check.
                self.arrivals.append((started, sim.now, region, False))
                if function_id == COUNTER_BUMP:
                    key = f"c:{args[0]}"
                    self.maybe_bumps[key] = self.maybe_bumps.get(key, 0) + 1
                raise
            self.history.finish(
                record, sim.now,
                reads=outcome.read_versions, writes=outcome.write_versions,
            )
            self.arrivals.append((started, sim.now, region, True))
            if not _result_plausible(function_id, args, outcome):
                self.wrong_results += 1
            if function_id == COUNTER_BUMP:
                key = f"c:{args[0]}"
                self.acked_bumps[key] = self.acked_bumps.get(key, 0) + 1
            return outcome

        return recording_invoke


def _result_plausible(function_id: str, args: List[Any], outcome) -> bool:
    """A cheap per-request result check; strict serializability of the
    observed versions is checked separately over the whole history."""
    if function_id == COUNTER_READ:
        version = outcome.read_versions.get(("counters", f"c:{args[0]}"), 0)
        return outcome.result == max(0, version - 1)
    if function_id == COUNTER_BUMP:
        version = outcome.write_versions.get(("counters", f"c:{args[0]}"), 0)
        return outcome.result == version - 1
    return outcome.result is not None


# --------------------------------------------------------------------------
# Deployments, clients, the drive loop.
# --------------------------------------------------------------------------


@dataclass
class World:
    """A built deployment plus the clients about to drive it."""

    shape: Shape
    dep: Any            # a Deployment, or the baseline's (sim, metrics) pair
    clients: list
    recorder: Optional[Recorder]

    @property
    def sim(self) -> Simulator:
        return self.dep.sim

    @property
    def metrics(self) -> Metrics:
        return self.dep.metrics


def build_world(shape: Shape, seed: int, trace: bool = False, record: bool = False) -> World:
    """Deployment (seeded, caches warmed) plus clients, ready to drive."""
    app = shape.app()
    dep = Deployment.build(topology(shape, seed, trace=trace), app=app)
    recorder = Recorder() if record else None
    clients = []
    for region in shape.regions:
        runtime = dep.runtime_for_client(region)
        for i in range(shape.clients_in_region()):
            invoke, session_id = runtime.invoke, ""
            if shape.sessions:
                # The session is part of the workload, not of the recording:
                # floors turn stale cache entries into misses.  Attaching an
                # empty session to its home PoP pulls nothing and takes no
                # virtual time, so it is done here.
                session = Session(f"{region}-{i}")
                _exhaust(runtime.attach(session))
                invoke = functools.partial(runtime.invoke, session=session)
                session_id = session.client_id
            if recorder is not None:
                invoke = recorder.wrap(dep.sim, region, invoke, session_id)
            clients.append(_client(
                shape, dep.sim, app, region, invoke, dep.metrics,
                dep.streams.fork(f"client.{region}.{i}").stream("workload"),
                client_app_rtt_ms=0.0 if shape.zero_rtt else dep.spec.config.client_app_rtt_ms,
            ))
    return World(shape, dep, clients, recorder)


def _client(shape: Shape, sim, app, region, invoke, metrics, rng, client_app_rtt_ms: float):
    if shape.loop == "closed":
        return ClosedLoopClient(
            sim=sim, app=app, region=region, invoke=invoke, metrics=metrics, rng=rng,
            requests=shape.per_client_requests(), client_app_rtt_ms=client_app_rtt_ms,
        )
    return OpenLoopClient(
        sim=sim, app=app, region=region, invoke=invoke, metrics=metrics, rng=rng,
        rate_rps=shape.rate_rps, duration_ms=shape.duration_ms,
        # Under injected faults a clean UnavailableError is an outcome to
        # count (requests.unavailable), not a crash of the run.
        tolerate_unavailable=True,
    )


def _exhaust(gen: Generator) -> None:
    """Run a generator that must not need virtual time."""
    try:
        next(gen)
    except StopIteration:
        return
    raise RuntimeError("session attach unexpectedly needed virtual time")


def build_baseline(shape: Shape, seed: int) -> World:
    """The primary-datacenter baseline under the same load shape and seed:
    every request goes to the one application copy beside the primary
    store.  No shards, mesh, Raft or faults — it is the fault-free bar."""
    app = shape.app()
    sim = Simulator()
    streams = RandomStreams(seed)
    table = zero_latency_table() if shape.zero_rtt else paper_latency_table()
    net = Network(sim, table, streams, jitter_sigma=shape.jitter)
    metrics = Metrics()
    registry = FunctionRegistry()
    registry.register_all(app.specs())
    store = KVStore()
    app.seed(store, streams, app.context)
    cfg = shape.config()
    cfg.replicated = False
    baseline = PrimaryBaseline(sim, net, registry, store, cfg, streams, metrics)

    clients = []
    for region in shape.regions:
        for i in range(shape.clients_in_region()):
            if region == baseline.region:
                invoke = baseline.invoke_local
            else:
                endpoint = f"client-{region}-{i}"
                net.register(endpoint, region)

                def invoke(function_id, args, _ep=endpoint):
                    return baseline.invoke_from(_ep, function_id, args)

            clients.append(_client(
                shape, sim, app, region, invoke, metrics,
                streams.fork(f"client.{region}.{i}").stream("workload"),
                client_app_rtt_ms=0.0,  # the WAN hop is inside invoke_from
            ))
    return World(shape, _BaselineDeployment(sim, metrics), clients, None)


@dataclass
class _BaselineDeployment:
    sim: Simulator
    metrics: Metrics


#: No workload here runs for an hour of virtual time.
_HORIZON_MS = 3_600_000.0


def drive(world: World, clock: Callable[[], float], marks: List[float]) -> float:
    """The timed region: spawn every client, run until all are done (the
    makespan), then drain.  Returns the makespan in virtual ms.  A client
    that died re-raises here — a benchmark run must fail loudly.

    The run advances ``slice_ms`` of virtual time at a call and appends
    ``clock()`` to ``marks`` after each slice (the drain is the last one).
    Slice boundaries are instants of virtual time, so the same seed does the
    same work in the same slice on every repetition — which lets the caller
    take each slice's fastest repetition instead of hoping one whole
    repetition escapes the box's slow phases.  Slicing moves no event."""
    sim = world.sim
    procs = [sim.spawn(c.run(), name=f"ledger-client-{i}") for i, c in enumerate(world.clients)]
    done = sim.all_of([p.done_event for p in procs])
    until = sim.now
    while not done.triggered:
        until += world.shape.slice_ms
        if until > _HORIZON_MS:
            raise RuntimeError("clients did not finish (deadlock?)")
        sim.run(until=until, until_event=done)
        marks.append(clock())
    makespan = sim.now
    for proc in procs:
        _ = proc.result  # re-raises the client's failure, if any
    sim.run(until=sim.now + world.shape.drain_ms)
    marks.append(clock())
    return makespan


# --------------------------------------------------------------------------
# The six workloads' shapes, at full and at --smoke size.
# --------------------------------------------------------------------------

#: Rates per region.  The knee of this deployment is near 220 (there p99 is
#: anywhere from 320 ms to 1.4 s depending on the seed, and at 200 one seed in
#: five still sees a 370 ms episode), so the headline rate sits two rungs of
#: twenty below it and the rung above it is well past it: the boundary is the
#: same on every seed, and a capacity loss of a sixth moves it.
READMIX_LADDER: Tuple[float, ...] = (120.0, 150.0, 180.0, 240.0)
READMIX_HEADLINE = 180.0


def shapes(smoke: bool = False) -> Dict[str, Shape]:
    s = 0.1 if smoke else 1.0
    return {
        "social-closed": Shape(
            app=social_media_app, loop="closed", jitter=0.02,
            requests=int(4000 * s), slice_ms=1_700.0,
        ),
        "counter-contended": Shape(
            app=lambda: counter_app(keys=64, zipf_s=0.99, write_pct=50.0),
            loop="closed", jitter=0.02, clients_per_region=8,
            requests=int(4000 * s), slice_ms=600.0,
        ),
        "readmix-sharded": Shape(
            app=lambda: counter_app(keys=256, zipf_s=0.0, write_pct=10.0),
            loop="open", config=readmix_config, shards=4, jitter=0.02,
            rate_rps=READMIX_HEADLINE, duration_ms=4000.0 * s, slice_ms=100.0,
        ),
        "forum-mesh": Shape(
            app=forum_app, loop="closed",
            mesh=MeshSpec(gossip_interval_ms=25.0), sessions=True,
            # 3 clients a region, 1500 requests: the tail is made of readers
            # queued behind a front-page writer.  At 2 clients x 1200 requests
            # 12 samples lie beyond p99 and it moved 15% from seed to seed; at
            # 6 clients or more the convoys pass 1% of the requests, p99 lands
            # inside them and moves 10-14% however many requests there are.
            # At 3 they stay under 1% (0.84%) and p99 moves 3.5%.
            clients_per_region=3, requests=int(1500 * s), slice_ms=500.0,
            # Gossip never stops, so the default 10 s drain would be half the
            # run; 3 s still outlasts the 1.5 s intent timer plus a round trip.
            drain_ms=3_000.0,
        ),
        "raft-faulted": Shape(
            app=social_media_app, loop="open", config=raft_faulted_config,
            # --smoke thins the arrivals, not the 20 s: the fault windows
            # are at fixed instants.
            fault_plan=raft_fault_plan(), rate_rps=40.0 * s,
            duration_ms=20_000.0, slo_ms=500.0, slice_ms=500.0,
            # Raft heartbeats never stop either; 3 s outlasts the 600 ms
            # intent timer and the last retry of a request sent at 20 s.
            drain_ms=3_000.0,
        ),
        # layers-isolated's one deployment-shaped microbench: a single
        # region, a zero-latency matrix, no network jitter — runtime + server only.
        "invoke-zero-rtt": Shape(
            app=social_media_app, loop="closed", regions=(Region.VA,),
            zero_rtt=True, clients_per_region=2, requests=int(1000 * s),
            drain_ms=2_000.0, slice_ms=1_700.0,
        ),
    }
