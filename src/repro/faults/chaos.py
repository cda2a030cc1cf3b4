"""Chaos harness: fault plans x seeds over a contended counter workload.

Each case builds a fresh two-region Radical deployment, arms one
:class:`~repro.faults.plan.FaultPlan` through the scheduler, drives
closed-loop clients that bump and read shared counters, and then *proves*
the §3.4 correctness claims for that execution:

* the history of acknowledged invocations is strictly serializable
  (:func:`repro.consistency.check_strict_serializability`);
* every acknowledged bump was applied exactly once — the final counter
  values and versions are reconciled against per-key acked/maybe-applied
  tallies, so both lost and duplicated writes are caught;
* every invocation *terminated* within its deadline — retried success,
  direct fallback, or a clean ``UnavailableError`` — never a hang.

Counters make the strongest probe: every bump is a read-modify-write on
shared state, so any lost update, double application, or stale read under
failure shows up as an arithmetic or serialization violation.

Plans marked ``overload=True`` (traffic surges, limping servers) run
under a capacity-bounded config — a serial processing model plus
admission control on the server and an AIMD in-flight limiter on the
client — and add a *metastability* check on top of the correctness
claims: once the last overload window closes, probe latency must return
to the pre-overload median (within 10%) and goodput must be total (zero
probe failures) after a bounded recovery horizon.  Queue depth must never
exceed the configured admission bound, and shed requests must abort
cleanly: no leaked locks, no orphan intents.
"""

from __future__ import annotations

import fnmatch
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence, Tuple

from ..consistency import (
    HistoryRecorder,
    check_strict_serializability,
    find_causal_cut_violations,
    find_monotonic_read_violations,
    find_read_your_writes_violations,
)
from ..core import FunctionSpec, RadicalConfig
from ..errors import ConsistencyViolation, FaultConfigError, UnavailableError
from ..mesh import MeshSpec, Session
from ..sim import Region, percentile
from ..topology import Deployment, TopologySpec
from ..workloads import OpenLoopClient
from .plan import (
    CrashWindow,
    DelayWindow,
    DropWindow,
    DuplicateWindow,
    FaultPlan,
    FollowupLossWindow,
    MigrationWindow,
    PartitionWindow,
    PoPCrashWindow,
    PoPPartitionWindow,
    SlowServerWindow,
    SurgeWindow,
)

__all__ = [
    "ChaosCaseResult",
    "chaos_config",
    "run_chaos_case",
    "run_chaos_matrix",
    "builtin_plans",
    "resolve_plans",
]

BUMP_SRC = '''
def bump(k):
    busy(2000)
    count = db_get("counters", k)
    if count is None:
        count = 0
    db_put("counters", k, count + 1)
    return count + 1
'''

READ_SRC = '''
def read(k):
    busy(2000)
    return db_get("counters", k)
'''


@dataclass
class ChaosCaseResult:
    """Everything one (plan, seed) case proved and measured."""

    plan: str
    seed: int
    requests: int
    acked: int
    unavailable: int
    completed: bool            # every client process ran to the end
    deadline_ok: bool          # no invocation outlived its deadline
    serializable: bool
    lost_writes: int           # acked bumps missing from the final state
    duplicate_writes: int      # applications beyond acked + maybe-applied
    pending_intents: int       # unsettled intents after the drain
    violation: str = ""
    median_ms: Optional[float] = None
    p99_ms: Optional[float] = None
    max_invocation_ms: float = 0.0
    counters: Dict[str, int] = field(default_factory=dict)
    # Overload-plan verdicts (trivially true for plans without overload
    # windows, so `ok` composes uniformly across the matrix).
    metastable_ok: bool = True     # post-overload p50 back within 10% of pre
    queue_bound_ok: bool = True    # admission queue never exceeded its bound
    leaked_locks: int = 0          # owners still holding locks after drain
    shed: int = 0                  # requests shed at server admission
    max_queue_depth: int = 0       # high-water admission queue depth
    # Analyzer-soundness verdict: the runtime sanitizer compared every
    # speculative execution's actual access trace against its f^rw
    # prediction (analysis.unsound); any escape is a hard failure.
    sanitizer_ok: bool = True
    unsound_executions: int = 0
    pre_p50_ms: Optional[float] = None
    post_p50_ms: Optional[float] = None
    # Mesh-plan verdicts (trivially clean for non-mesh plans): session
    # guarantees over the per-client histories and causal-cut validity of
    # every PoP's gossip application log.
    ryw_violations: int = 0        # read-your-writes breaches
    mr_violations: int = 0         # monotonic-reads breaches
    causal_violations: int = 0     # causal-cut breaches across PoP logs
    migrations: int = 0            # client re-attachments (forced + failover)
    # Conflict-detection verdicts (None when the case ran without a
    # detector, and then omitted from to_dict so pre-detection artifacts
    # keep their bytes): the dirty set must balance at quiescence — every
    # writer enrollment settled or deliberately leaked, zero live depth.
    dirty_balanced: Optional[bool] = None
    lock_skipped: Optional[int] = None
    dirty: Optional[Dict[str, int]] = None

    @property
    def availability(self) -> float:
        return self.acked / self.requests if self.requests else 1.0

    @property
    def session_ok(self) -> bool:
        """Session guarantees + causal cuts held (vacuous off-mesh)."""
        return (
            self.ryw_violations == 0
            and self.mr_violations == 0
            and self.causal_violations == 0
        )

    @property
    def ok(self) -> bool:
        """The case's correctness verdict (availability may be anything)."""
        return (
            self.completed
            and self.deadline_ok
            and self.serializable
            and self.lost_writes == 0
            and self.duplicate_writes == 0
            and self.metastable_ok
            and self.queue_bound_ok
            and self.leaked_locks == 0
            and self.sanitizer_ok
            and self.session_ok
            and self.dirty_balanced is not False
        )

    def to_dict(self) -> Dict[str, Any]:
        detect_fields: Dict[str, Any] = {}
        if self.dirty_balanced is not None:
            detect_fields = {
                "dirty_balanced": self.dirty_balanced,
                "lock_skipped": self.lock_skipped,
                "dirty": self.dirty,
            }
        return {
            "plan": self.plan,
            "seed": self.seed,
            "requests": self.requests,
            "acked": self.acked,
            "unavailable": self.unavailable,
            "availability": round(self.availability, 4),
            "completed": self.completed,
            "deadline_ok": self.deadline_ok,
            "serializable": self.serializable,
            "lost_writes": self.lost_writes,
            "duplicate_writes": self.duplicate_writes,
            "pending_intents": self.pending_intents,
            "violation": self.violation,
            "median_ms": self.median_ms,
            "p99_ms": self.p99_ms,
            "max_invocation_ms": round(self.max_invocation_ms, 3),
            "metastable_ok": self.metastable_ok,
            "queue_bound_ok": self.queue_bound_ok,
            "leaked_locks": self.leaked_locks,
            "shed": self.shed,
            "max_queue_depth": self.max_queue_depth,
            "pre_p50_ms": self.pre_p50_ms,
            "post_p50_ms": self.post_p50_ms,
            "sanitizer_ok": self.sanitizer_ok,
            "unsound_executions": self.unsound_executions,
            "session_ok": self.session_ok,
            "ryw_violations": self.ryw_violations,
            "mr_violations": self.mr_violations,
            "causal_violations": self.causal_violations,
            "migrations": self.migrations,
            **detect_fields,
            "ok": self.ok,
            "counters": self.counters,
        }


def chaos_config(
    replicated: bool = False,
    overload: bool = False,
    detect: bool = False,
) -> RadicalConfig:
    """The tightened knobs chaos cases run under: per-attempt timeouts
    short enough to retry inside a fault window, a deadline that bounds
    every invocation, and a breaker that opens quickly under blackout.

    ``overload`` adds the capacity-bounded knobs surge/gray plans need:
    a serial processing model (8 ms per message caps the server at ~73
    requests/s of the 70/30 bump mix, each bump costing a request plus a
    followup), a 12-deep admission queue with a 100 ms sojourn bound (a
    full queue waits 96 ms — still inside the 400 ms per-attempt
    timeout, so admitted requests never time out in the queue and
    recovery after a surge is immediate), and a 32-wide AIMD client
    limiter so one region's surge cannot monopolize the server.

    ``detect`` turns on in-network conflict detection (the dirty-set
    router fast path plus two read replicas per shard) — the same safety
    claims must then hold with part of the read traffic bypassing the
    lock table entirely.
    """
    return RadicalConfig(
        service_jitter_sigma=0.0,
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
        replicated=replicated,
        server_proc_ms=8.0 if overload else 0.0,
        admission_queue_depth=12 if overload else 0,
        admission_sojourn_ms=100.0 if overload else 0.0,
        limiter_max_inflight=32 if overload else 0,
        conflict_detection=detect,
        read_replicas=3 if detect else 1,
    )


@dataclass
class _Tally:
    issued: int = 0
    acked: int = 0
    unavailable: int = 0
    acked_bumps: Dict[str, int] = field(default_factory=dict)
    maybe_bumps: Dict[str, int] = field(default_factory=dict)
    latencies: List[float] = field(default_factory=list)
    max_invocation_ms: float = 0.0
    # Probe-only, timestamped (time, latency, region, path) series for
    # the metastability check: the surge clients are deliberately
    # overloaded traffic, so their latencies and failures say nothing
    # about *recovery*.  Region and execution path ride along because
    # healthy latency differs per region (WAN RTT) and per path (a
    # backup-path request pays an extra near-storage round) — pre/post
    # medians are compared within a (region, path) stratum, never across
    # the pooled mix, whose modes flip on sampling luck alone.
    probe_samples: List[Tuple[float, float, str, str]] = field(default_factory=list)
    probe_unavailable_at: List[float] = field(default_factory=list)
    migrations: int = 0

    def ack(self, history: HistoryRecorder, record, key: str, outcome,
            ended: float, probe_region: Optional[str] = None) -> None:
        """An acknowledged invocation: into the history and the acked
        tallies; a probe's (``probe_region``) also into the latency series."""
        took_ms = ended - record.invoked_at
        history.finish(
            record, ended,
            reads=outcome.read_versions, writes=outcome.write_versions,
        )
        self.acked += 1
        if probe_region is not None:
            self.latencies.append(took_ms)
            self.probe_samples.append((ended, took_ms, probe_region, outcome.path))
        self._count(record.function, key, self.acked_bumps, took_ms)

    def fail(self, fn: str, key: str, started: float, ended: float,
             probe_region: Optional[str] = None) -> None:
        """A clean ``UnavailableError``: the write may or may not have
        landed near storage (e.g. the response was lost), so it is *not*
        recorded in the history — but it is tallied so the final counter
        reconciliation can bound it."""
        self.unavailable += 1
        if probe_region is not None:
            self.probe_unavailable_at.append(ended)
        self._count(fn, key, self.maybe_bumps, ended - started)

    def _count(self, fn: str, key: str, bumps: Dict[str, int], took_ms: float) -> None:
        if fn == "chaos.bump":
            bumps[key] = bumps.get(key, 0) + 1
        self.issued += 1
        self.max_invocation_ms = max(self.max_invocation_ms, took_ms)


def _next_live_region(dep: Deployment, current: str) -> str:
    """Failover target for a client whose PoP went dark: the first
    spec-order region (other than ``current``) whose PoP is serving.
    Falls back to spec order when no PoP is up — the re-attach then fails
    availability-wise, never correctness-wise."""
    others = [r for r in dep.spec.regions if r != current]
    if dep.mesh is not None:
        live = [r for r in others if dep.mesh.pop(r).serving]
        if live:
            return live[0]
    return others[0] if others else current


def _chaos_client(
    dep: Deployment,
    region: str,
    rng,
    mix: _ChaosMix,
    history: HistoryRecorder,
    tally: _Tally,
    requests: int,
    think_ms: float,
    until_ms: Optional[float] = None,
    session: Optional[Session] = None,
    migrations: Sequence[MigrationWindow] = (),
) -> Generator:
    """The closed-loop probe: ``requests`` requests of ``mix`` back to
    back, or — for overload plans (``until_ms``) — as many as fit before
    the probe horizon, so there are always post-recovery samples to measure
    no matter how long the overload window stalled the client.

    Mesh plans carry a :class:`~repro.mesh.Session`: every request rides
    it, the plan's forced-migration schedule (``migrations``, time-sorted)
    re-attaches the client mid-run, and an ``UnavailableError`` from a
    downed PoP triggers failover to the next live region — all without
    dropping the session watermark, so the post-hoc session-guarantee
    checks judge exactly this client's history."""
    sim = dep.sim
    runtime = dep.runtimes[region]
    client_id = ""
    pending_moves: List[MigrationWindow] = []
    if session is not None:
        client_id = session.client_id
        yield from runtime.attach(session)
        pending_moves = [w for w in migrations if w.client in (client_id, "*")]
    issued = 0
    while (issued < requests) if until_ms is None else (sim.now < until_ms):
        issued += 1
        while pending_moves and sim.now >= pending_moves[0].at_ms:
            to_region = pending_moves.pop(0).to_region
            if to_region != session.region:
                runtime = dep.runtimes[to_region]
                yield from runtime.attach(session)
                tally.migrations += 1
        fn, (key,) = mix.generate_request(rng)
        started = sim.now
        record = history.begin(fn, started, session=client_id)
        try:
            outcome = yield from runtime.invoke(fn, [key], session=session)
        except UnavailableError:
            tally.fail(fn, key, started, sim.now, probe_region=runtime.region)
            # Mid-session migration on PoP loss: re-attach to the next
            # live PoP and keep going.  The session vector travels along,
            # so reads at the new PoP still honour every floor.
            if (
                session is not None
                and dep.mesh is not None
                and not dep.mesh.pop(runtime.region).serving
            ):
                runtime = dep.runtimes[_next_live_region(dep, runtime.region)]
                yield from runtime.attach(session)
                tally.migrations += 1
        else:
            tally.ack(history, record, key, outcome, sim.now, probe_region=runtime.region)
        yield sim.timeout(think_ms)


class _ChaosMix:
    """The 70/30 bump/read mix over the counter keyspace, drawn by the
    probe clients and (as their ``app``) by the surge ``OpenLoopClient``s,
    so surge traffic contends on exactly the counters the checks
    reconcile."""

    def __init__(self, keys: int):
        self.keys = keys

    def generate_request(self, rng):
        key = f"c:{rng.randrange(self.keys)}"
        fn = "chaos.bump" if rng.random() < 0.7 else "chaos.read"
        return fn, [key]


def _surge_recorder(history: HistoryRecorder, tally: _Tally):
    """Completion hook for the surge ``OpenLoopClient``s: surge traffic
    must land in the same history and ack tallies as the probes, or a
    probe read of a surge-bumped counter would flag a phantom write."""

    def on_outcome(fn, args, outcome, started, ended):
        if outcome is None:
            tally.fail(fn, args[0], started, ended)
        else:
            tally.ack(history, history.begin(fn, started), args[0], outcome, ended)

    return on_outcome


def run_chaos_case(
    plan: FaultPlan,
    seed: int,
    requests_per_client: int = 25,
    clients_per_region: int = 1,
    regions: Tuple[str, ...] = (Region.JP, Region.CA),
    keys: int = 2,
    think_ms: float = 10.0,
    config: Optional[RadicalConfig] = None,
    shards: int = 1,
    detect: bool = False,
    recovery_horizon_ms: Optional[float] = None,
    on_metrics: Optional[Callable[[Any], None]] = None,
) -> ChaosCaseResult:
    """Run one (plan, seed) case end to end and return its verdict.

    ``shards`` > 1 runs the same plan against a partitioned near-storage
    tier (keys hash across shards; the correctness claims are unchanged —
    a sharded deployment must be exactly as serializable and exactly-once
    as the seed's single server).

    ``detect`` runs the case with in-network conflict detection on: the
    exact same fault plan, but provably non-conflicting reads skip lock
    acquisition and may be served by read replicas.  Every correctness
    claim is unchanged, and two verdicts are added — the runtime
    sanitizer must not flag a single lock-skipped escape, and the dirty
    set must balance at quiescence.

    For overload plans, ``recovery_horizon_ms`` is the grace period after
    the last overload window closes before the metastability check starts
    judging: past it, probe latency must be back at the pre-overload
    median and every probe request must succeed.  The default derives it
    from the config — invocation deadline + breaker cooldown + margin —
    because any request admitted *during* the window may legitimately
    live (queued at the limiter, retrying, draining) until its deadline,
    and the breaker must have had time to re-close; only past both is
    lingering degradation metastable rather than residual.
    """
    cfg = config or chaos_config(
        replicated=plan.replicated, overload=plan.overload, detect=detect
    )
    overload_windows = plan.overload_windows()
    mesh_spec: Optional[MeshSpec] = None
    if plan.mesh:
        mesh_spec = MeshSpec(gossip_interval_ms=120.0)
        if regions == (Region.JP, Region.CA):
            # Mesh plans need a third PoP: when one region is islanded or
            # crashed, its clients must still have somewhere to fail over
            # to *and* the survivors must still form a gossiping pair.
            regions = (Region.JP, Region.CA, Region.IE)
    migrations = plan.migration_windows()
    for w in migrations:
        if w.to_region not in regions:
            raise FaultConfigError(
                f"plan {plan.name!r} migrates to {w.to_region!r}, "
                f"which has no runtime (regions: {', '.join(regions)})"
            )
    if plan.overload:
        # Overload plans probe *queueing*, and the metastability verdict
        # compares latency medians — with the default 2-key keyspace the
        # median flips between the contended and uncontended lock modes
        # (write locks span a WAN round trip) on sampling luck alone.
        # Spreading the counters keeps contention occasional instead of
        # modal; every correctness check still reconciles every key.
        keys = max(keys, 8)
    if recovery_horizon_ms is None:
        recovery_horizon_ms = (
            max(cfg.invocation_deadline_ms, 0.0)
            + max(cfg.breaker_cooldown_ms, 0.0)
            + 500.0
        )
    probe_until: Optional[float] = None
    post_from: Optional[float] = None
    if plan.overload and overload_windows:
        last_end = max(end for _, end in overload_windows)
        post_from = last_end + recovery_horizon_ms
        # Keep probing for a sampling window past the recovery horizon so
        # the post-overload median rests on real measurements.  The window
        # must be long enough that each region's *dominant* path collects
        # the >=3 samples the verdict demands even when the speculative /
        # backup mix is uneven (sharded runs see more backup-path probes
        # from cross-region validation conflicts): at ~200 ms per probe a
        # 3 s window yields ~15 samples per region, so a path carrying
        # even a third of the traffic clears the bar.
        probe_until = post_from + 3_000.0

    def seed_counters(store):
        for i in range(keys):
            store.put("counters", f"c:{i}", 0)

    dep = Deployment.build(
        TopologySpec(
            regions=regions,
            shards=shards,
            seed=seed,
            config=cfg,
            network_jitter_sigma=0.0,
            warm_caches=True,
            persistent_caches=False,
            raft_prewarm_ms=0.0,  # chaos elects its leader under traffic
            fault_plan=plan,
            mesh=mesh_spec,
        ),
        functions=[
            FunctionSpec("chaos.bump", BUMP_SRC, 20.0),
            FunctionSpec("chaos.read", READ_SRC, 20.0),
        ],
        seed_data=seed_counters,
    )
    sim, metrics = dep.sim, dep.metrics

    history = HistoryRecorder()
    tally = _Tally()
    procs = []
    mix = _ChaosMix(keys)
    for region in regions:
        for c in range(clients_per_region):
            rng = dep.streams.stream(f"chaos.client.{region}.{c}")
            body = _chaos_client(
                dep, region, rng, mix, history, tally,
                requests_per_client, think_ms,
                until_ms=probe_until,
                session=Session(f"{region}-{c}") if plan.mesh else None,
                migrations=migrations,
            )
            procs.append(sim.spawn(body, name=f"chaos-client-{region}-{c}"))
    surge_outcome = _surge_recorder(history, tally)
    for i, w in enumerate(plan.surge_windows()):
        if w.region not in dep.runtimes:
            raise FaultConfigError(
                f"plan {plan.name!r} surges from {w.region!r}, which has no runtime"
            )
        surge = OpenLoopClient(
            sim=sim,
            app=mix,
            region=w.region,
            invoke=dep.runtimes[w.region].invoke,
            metrics=metrics,
            rng=dep.streams.stream(f"chaos.surge.{w.region}.{i}"),
            rate_rps=w.rate_rps,
            duration_ms=w.end_ms - w.start_ms,
            label_prefix="surge",
            tolerate_unavailable=True,
            start_after_ms=w.start_ms,
            on_outcome=surge_outcome,
        )
        procs.append(sim.spawn(surge.run(), name=f"chaos-surge-{w.region}-{i}"))
    done = sim.all_of([p.done_event for p in procs])
    sim.run(until_event=done)
    completed = all(p.done for p in procs)
    # Drain: let the last intent timers, retries, and any scheduled
    # restart + recovery settle before reconciling the final state.
    drain_until = max(sim.now, plan.horizon_ms()) + cfg.followup_timeout_ms * 2 + 5_000.0
    sim.run(until=drain_until)

    serializable = True
    violation = ""
    try:
        check_strict_serializability(history.records())
    except ConsistencyViolation as exc:
        serializable = False
        violation = str(exc)

    # Session guarantees + causal cuts (mesh plans only): the per-client
    # histories carry session ids and every PoP kept its gossip
    # application log, so both claims are checked against the actual
    # execution rather than assumed from the protocol argument.
    ryw_msgs: List[str] = []
    mr_msgs: List[str] = []
    causal_msgs: List[str] = []
    if plan.mesh:
        srecords = [r for r in history.records() if r.session]
        ryw_msgs = find_read_your_writes_violations(srecords)
        mr_msgs = find_monotonic_read_violations(srecords)
        if dep.mesh is not None:
            for region in sorted(dep.mesh.pops):
                for label, log in dep.mesh.pop(region).application_logs():
                    causal_msgs.extend(find_causal_cut_violations(log, label=label))
        if not violation:
            for msgs in (ryw_msgs, mr_msgs, causal_msgs):
                if msgs:
                    violation = msgs[0]
                    break

    # Exactly-once reconciliation: for each key,
    #   acked - pending  <=  final value  <=  acked + maybe-applied.
    # A pending intent is an acked speculative write the (still-dead)
    # server has not applied yet; plans that restart their crash targets
    # always settle to pending == 0.
    pending = dep.pending_intents()
    pending_per_key: Dict[str, int] = {}
    for intent in pending:
        key = intent.args[0] if intent.args else "?"
        pending_per_key[key] = pending_per_key.get(key, 0) + 1
    lost = 0
    duplicates = 0
    for i in range(keys):
        key = f"c:{i}"
        item = dep.get_or_none("counters", key)
        value = item.value if item is not None else 0
        version = item.version if item is not None else 0
        acked = tally.acked_bumps.get(key, 0)
        maybe = tally.maybe_bumps.get(key, 0)
        lost += max(0, acked - value - pending_per_key.get(key, 0))
        duplicates += max(0, value - acked - maybe)
        if item is not None and version - 1 != value and not violation:
            serializable = False
            violation = (
                f"{key}: version {version} does not match value {value} "
                f"(non-bump write applied?)"
            )

    # Overload plans use the time-based probe, so the issued count is the
    # ground truth; the fixed-count formula covers everything else.
    if plan.overload:
        total_requests = tally.issued
    else:
        total_requests = requests_per_client * clients_per_region * len(regions)
    deadline_ok = (
        cfg.invocation_deadline_ms <= 0
        or tally.max_invocation_ms <= cfg.invocation_deadline_ms + 1.0
    )

    # Metastability: a system that sheds correctly returns to its
    # pre-overload latency once the offered load does — a metastable one
    # stays collapsed (retry storms, residual queues) long after the
    # trigger is gone.
    metastable_ok = True
    queue_bound_ok = True
    leaked_locks = 0
    pre_p50: Optional[float] = None
    post_p50: Optional[float] = None
    max_queue_depth = max((s.max_admission_queue for s in dep.servers), default=0)
    if cfg.admission_queue_depth > 0:
        queue_bound_ok = max_queue_depth <= cfg.admission_queue_depth
    if plan.overload and overload_windows:
        first_start = min(start for start, _ in overload_windows)
        pre_by: Dict[Tuple[str, str], List[float]] = {}
        post_by: Dict[Tuple[str, str], List[float]] = {}
        for t, lat, region, path in tally.probe_samples:
            if t <= first_start:
                pre_by.setdefault((region, path), []).append(lat)
            elif t >= post_from:
                post_by.setdefault((region, path), []).append(lat)
        late_failures = sum(1 for t in tally.probe_unavailable_at if t >= post_from)
        metastable_ok = late_failures == 0
        # Judge each region against its own healthy baseline, within the
        # region's *dominant* pre-overload path: JP's WAN median is ~50%
        # above CA's, and a backup-path request pays ~18 ms (plus any
        # lock wait) over a speculative one, so a pooled p50 flips with
        # the sampling mix, not with recovery.  The dominant path —
        # speculative, when the tier is healthy — is near-deterministic,
        # and metastable collapse (standing queues, retry storms) delays
        # every path, so its median is both a stable and a sufficient
        # recovery probe.  A region whose dominant pre path has vanished
        # post-recovery has not recovered (LVI's whole point is serving
        # the speculative path again).
        worst_ratio = -1.0
        probed = {region for region, _ in set(pre_by) | set(post_by)}
        for region in sorted(probed):
            candidates = [path for (r, path) in pre_by if r == region]
            if not candidates:
                metastable_ok = False
                continue
            dominant = max(sorted(candidates), key=lambda p: len(pre_by[(region, p)]))
            pre = pre_by[(region, dominant)]
            post = post_by.get((region, dominant))
            if len(pre) < 3 or not post or len(post) < 3:
                metastable_ok = False
                continue
            region_pre = percentile(pre, 50.0)
            region_post = percentile(post, 50.0)
            if region_post > region_pre * 1.10 + 1.0:
                metastable_ok = False
            ratio = region_post / max(region_pre, 1e-9)
            if ratio > worst_ratio:
                worst_ratio = ratio
                pre_p50, post_p50 = region_pre, region_post
        if pre_p50 is None:
            metastable_ok = False
        # Shed requests must abort cleanly — after the drain no execution
        # may still hold locks anywhere in the tier.
        leaked_locks = sum(len(s.locks.held_owners()) for s in dep.servers)

    if on_metrics is not None:
        # Observation hook for the coverage-guided explorer: the full
        # metrics object, before the result narrows it to the `wanted`
        # counter subset (which is frozen — chaos.json depends on it).
        on_metrics(metrics)

    wanted = (
        "fault.injected", "rpc.retry", "rpc.timeout", "rpc.exhausted",
        "breaker.open", "breaker.fast_fail", "reexecution.count", "intent.expedited",
        "followup.lost", "followup.retry", "lvi.replayed_reply",
        "lvi.replay_after_crash", "lvi.duplicate_claim", "recovery.intents",
        "server.crashes", "server.restarts", "server.killed_handlers",
        "validation.failure", "path.speculative", "path.direct",
        "admission.shed", "rpc.overloaded", "limiter.shrink",
        "limiter.grow", "limiter.reject", "limiter.shed",
        "analysis.unsound", "analysis.overapprox", "analysis.wasted_locks",
        "affinity.fast_path",
        "router.lock_skipped", "router.conflict_hit", "router.skip_fallback",
        "router.replica_bounce", "router.skip_bounced",
        "mesh.gossip_sent", "mesh.gossip_timeout", "mesh.updates_shipped",
        "mesh.updates_applied", "mesh.updates_buffered", "mesh.session_stale",
        "mesh.cut_fetched", "mesh.cut_unsatisfied", "mesh.cut_timeout",
        "mesh.attach", "mesh.migrate", "mesh.pop_down",
    )
    unsound = metrics.counter("analysis.unsound")
    counters = {k: metrics.counter(k) for k in wanted if metrics.counter(k)}
    detector = dep.router.detector if dep.router is not None else None
    lat = sorted(tally.latencies)
    return ChaosCaseResult(
        plan=plan.name,
        seed=seed,
        requests=total_requests,
        acked=tally.acked,
        unavailable=tally.unavailable,
        completed=completed,
        deadline_ok=deadline_ok,
        serializable=serializable,
        lost_writes=lost,
        duplicate_writes=duplicates,
        pending_intents=len(pending),
        violation=violation,
        median_ms=percentile(lat, 50.0) if lat else None,
        p99_ms=percentile(lat, 99.0) if lat else None,
        max_invocation_ms=tally.max_invocation_ms,
        counters=counters,
        metastable_ok=metastable_ok,
        queue_bound_ok=queue_bound_ok,
        leaked_locks=leaked_locks,
        shed=metrics.counter("admission.shed"),
        max_queue_depth=max_queue_depth,
        pre_p50_ms=round(pre_p50, 3) if pre_p50 is not None else None,
        post_p50_ms=round(post_p50, 3) if post_p50 is not None else None,
        sanitizer_ok=unsound == 0,
        unsound_executions=unsound,
        ryw_violations=len(ryw_msgs),
        mr_violations=len(mr_msgs),
        causal_violations=len(causal_msgs),
        migrations=tally.migrations,
        dirty_balanced=detector.dirty.balanced if detector is not None else None,
        lock_skipped=(
            metrics.counter("router.lock_skipped") if detector is not None else None
        ),
        dirty=detector.dirty.stats() if detector is not None else None,
    )


def run_chaos_matrix(
    plans: List[FaultPlan],
    seeds,
    **case_kwargs,
) -> List[ChaosCaseResult]:
    """The full plan x seed sweep (what the ``chaos`` scenario kind runs).

    ``seeds`` is either an iterable of seeds or an int N meaning 0..N-1.
    """
    if isinstance(seeds, int):
        seeds = range(seeds)
    return [run_chaos_case(plan, seed, **case_kwargs) for plan in plans for seed in seeds]


def builtin_plans() -> Dict[str, FaultPlan]:
    """The stock fault plans, keyed by name.

    Windows are sized for the default chaos workload (two regions, ~5 s
    of virtual time); every crash window restarts its target so the run
    settles to zero pending intents.
    """
    jp, ca, ie, va = Region.JP, Region.CA, Region.IE, Region.VA
    plans = [
        FaultPlan("baseline", (), "no faults; the control case"),
        FaultPlan(
            "lvi-blackout",
            (
                DropWindow(jp, va, 0.0, math.inf, 1.0, bidirectional=True),
                DropWindow(ca, va, 0.0, math.inf, 1.0, bidirectional=True),
            ),
            "every near-storage request is dropped for the whole run; "
            "every invocation must still terminate cleanly",
        ),
        FaultPlan(
            "partition-pulse",
            (
                PartitionWindow(jp, va, 800.0, 2_000.0),
                PartitionWindow(ca, va, 2_500.0, 3_500.0),
            ),
            "each region loses the primary for a window, then heals",
        ),
        FaultPlan(
            "flaky-links",
            (
                DropWindow(jp, va, 300.0, 4_500.0, 0.25, bidirectional=True),
                DropWindow(ca, va, 300.0, 4_500.0, 0.25, bidirectional=True),
            ),
            "25% loss on both WAN links; retries must absorb it",
        ),
        FaultPlan(
            "dup-storm",
            (
                DuplicateWindow(jp, va, 0.0, math.inf, 1.0, bidirectional=True),
                DuplicateWindow(ca, va, 0.0, math.inf, 1.0, bidirectional=True),
            ),
            "every message delivered twice; dedup must hold",
        ),
        FaultPlan(
            "slow-wan",
            (
                DelayWindow(jp, va, 500.0, 60.0, 3_500.0, bidirectional=True),
                DelayWindow(ca, va, 500.0, 60.0, 3_500.0, bidirectional=True),
            ),
            "congestion adds 60 ms each way; slower but fault-free",
        ),
        FaultPlan(
            "followup-burst",
            (FollowupLossWindow(0.0, 2_500.0),),
            "every write followup is eaten; intent timers re-execute",
        ),
        FaultPlan(
            "server-crash",
            (CrashWindow("lvi-server", 900.0, 2_600.0),),
            "the LVI server crashes mid-run and recovers from intents",
        ),
        FaultPlan(
            "raft-follower-crash",
            (CrashWindow("raft-1", 800.0, 3_000.0),),
            "replicated (§5.6) deployment; one Raft node crashes",
            replicated=True,
        ),
        FaultPlan(
            "raft-leader-mid-validate",
            (CrashWindow("raft-leader", 700.0, 2_800.0),),
            "replicated (§5.6) deployment; whichever Raft node leads at "
            "700 ms crashes while client validations are in flight, so "
            "the survivors must elect a new leader, replay the log, and "
            "keep every in-flight write exactly-once",
            replicated=True,
        ),
        FaultPlan(
            "surge-jp",
            (SurgeWindow(jp, 2_000.0, 3_600.0, rate_rps=220.0),),
            "an open-loop 220 rps surge from JP swamps the ~73 rps "
            "capacity-bounded server; shedding and AIMD backpressure must "
            "hold goodput and recover to the pre-surge median",
            overload=True,
        ),
        FaultPlan(
            "gray-limp",
            (
                # Steady open-loop load a healthy server absorbs with room
                # to spare (~68 of ~125 msg/s)...
                SurgeWindow(jp, 2_000.0, 4_400.0, rate_rps=40.0),
                # ...while the server limps at 60 ms/message (~17 msg/s):
                # the gray window forces admission control to shed.
                SlowServerWindow("lvi-server", 2_500.0, 4_100.0, proc_ms=60.0),
            ),
            "gray failure: the LVI server limps at 60 ms per message "
            "without crashing, under steady open-loop load it could "
            "otherwise absorb; admission control must bound its queue and "
            "latency must return to the pre-limp median after it heals",
            overload=True,
        ),
        FaultPlan(
            "mesh-pop-partition",
            (PoPPartitionWindow(jp, 800.0, 2_600.0, peers=(ca, ie), wan=True),),
            "the JP PoP is a full island for 1.8 s — no gossip peers, no "
            "primary; its clients ride the breaker ladder while the "
            "survivors keep gossiping, and every session guarantee must "
            "hold through the heal",
            mesh=True,
        ),
        FaultPlan(
            "mesh-pop-crash",
            (PoPCrashWindow(jp, 900.0, 2_400.0),),
            "the JP PoP location dies (cache and gossip state lost) and "
            "restarts under a fresh epoch; its clients fail over "
            "mid-session and the reborn PoP re-bootstraps through gossip",
            mesh=True,
        ),
        FaultPlan(
            "mesh-migration-storm",
            (
                MigrationWindow("jp-0", ca, 600.0),
                MigrationWindow("ca-0", ie, 900.0),
                MigrationWindow("ie-0", jp, 1_200.0),
                MigrationWindow("jp-0", ie, 1_500.0),
                MigrationWindow("ca-0", jp, 1_800.0),
                MigrationWindow("ie-0", ca, 2_100.0),
                MigrationWindow("jp-0", jp, 2_400.0),
                MigrationWindow("ie-0", ie, 2_700.0),
            ),
            "every client hops PoPs repeatedly mid-session; the carried "
            "session vectors must keep read-your-writes and "
            "monotonic-reads intact at each new PoP",
            mesh=True,
        ),
    ]
    return {p.name: p for p in plans}


def resolve_plans(spec: str) -> List[FaultPlan]:
    """Parse a ``plans`` selection (``run chaos --set plans=...``).

    Accepts ``all``, or a comma-separated mix of builtin names, glob
    patterns over builtin names (``mesh-*``), and ``@file.json``
    references — a serialized plan or list of plans in the
    :mod:`repro.faults.serde` format, e.g. a corpus reproducer.
    Duplicate selections (a name matched by two patterns) collapse.
    """
    from . import serde

    stock = builtin_plans()
    if spec == "all":
        return list(stock.values())
    chosen: List[FaultPlan] = []
    seen: set = set()

    def add(plan: FaultPlan) -> None:
        if plan.name not in seen:
            seen.add(plan.name)
            chosen.append(plan)

    for name in (s.strip() for s in spec.split(",")):
        if not name:
            continue
        if name.startswith("@"):
            for plan in serde.load_plan_file(name[1:]):
                add(plan)
            continue
        if any(ch in name for ch in "*?["):
            matches = sorted(fnmatch.filter(stock, name))
            if not matches:
                raise FaultConfigError(
                    f"no builtin plan matches pattern {name!r} "
                    f"(available: {', '.join(sorted(stock))})"
                )
            for m in matches:
                add(stock[m])
            continue
        if name not in stock:
            raise FaultConfigError(
                f"unknown plan {name!r} (available: {', '.join(sorted(stock))})"
            )
        add(stock[name])
    if not chosen:
        raise FaultConfigError(f"no plans selected by {spec!r}")
    return chosen
