"""The near-user runtime: speculation overlapped with the LVI request.

This is the component deployed at every near-user location (§3.1).  A
client request is one :class:`_Attempt` record flowing through one
pipeline, each stage a plain call or a ``yield from`` sub-generator:

1. **admit** (:meth:`NearUserRuntime.invoke`) — PoP down, breaker open,
   in-flight limiter: fail fast, or wait for a slot;
2. **admitted** (``_admitted``) — the invocation overheads (Lambda start +
   WASM load, §5.5); the near-storage-only route (``_direct``) where
   speculation cannot run; the cross-shard restart loop;
3. **speculate** (``_speculate``) — *predict*: ``f^rw`` on the cache
   snapshot gives the read/write set, ``f`` runs on the same snapshot;
   *route*: the shards the runtime's :class:`~repro.core.ShardRouter`
   places the keys on.  With conflict detection on, a lock-skippable read
   probes the shard's dirty set first — a routing hint only: a clean
   probe sends it lock-free to the shard's read rotation, whose arrival
   probe is the authoritative one.  The shard that executes a write owns
   its dirty-set entry, start to end;
4. **dispatch** (``_dispatch_single`` / ``_dispatch_cross_shard``) — the
   single LVI request (or a prepare per shard, then the decision)
   *overlapped* with ``f``'s service time: the paper's core latency trick;
5. **settle** — success: ``_commit`` applies the speculative writes to the
   local cache and answers, the write followup going out afterwards;
   failure or cache miss: ``_near_storage_outcome`` answers with the
   backup execution's result and repairs the cache with the fresh items
   (``_install_fresh``): those of the request's own stale and written keys,
   and those of the keys the shard wrote since this location's last repair,
   which only refresh entries the cache already holds.  No install moves a
   key backwards.

Simulation note: the VM executes ``f`` *logically* at snapshot time and the
service time is charged to the virtual clock afterwards.  Because reads
come from a pinned snapshot and writes are buffered, this is equivalent to
the real interleaving — the values read are exactly the ones whose versions
the LVI request validated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Container, Dict, Generator, List, Optional, Tuple

from ..analysis import check_coverage, derive_rwset
from ..errors import GasExhausted, OverloadedError, ProtocolError, UnavailableError, VMTrap
from ..faults.retry import AdaptiveLimiter, CircuitBreaker, RetryPolicy, RtoEstimator
from ..sim import Metrics, Network, RandomStreams, RequestBatcher, RpcTimeout, Simulator
from ..storage import Item, NearUserCache
from ..wasm import VM
from .config import INVOKE_MS, LIMITER_DECREASE_COOLDOWN_MS, WASM_LOAD_MS, RadicalConfig
from .messages import (
    DirectExecRequest,
    LVIRequest,
    LVIResponse,
    ShardDecision,
    ShardPrepare,
    WriteFollowup,
)
from .registry import FunctionRegistry, RegisteredFunction
from .router import ShardRouter
from .storage_library import SnapshotReader, SpeculativeEnv

Key = Tuple[str, str]

__all__ = [
    "InvocationOutcome",
    "NearUserRuntime",
    "PATH_SPECULATIVE",
    "PATH_BACKUP",
    "PATH_MISS",
    "PATH_DIRECT",
]


class _CrossShardStale(Exception):
    """Internal control flow: a cross-shard attempt aborted (stale cache
    slice, busy shard, or lost prepare).  Carries the cache repairs the
    voting shards shipped back; the invoke loop installs them and restarts
    the whole invocation under a fresh attempt id."""

    def __init__(self, fresh: Dict[Key, Any]):
        super().__init__("cross-shard attempt aborted")
        self.fresh = fresh

PATH_SPECULATIVE = "speculative"  # validation succeeded; edge result used
PATH_BACKUP = "backup"            # validation failed; near-storage result
PATH_MISS = "miss"                # cache miss; speculation skipped (§3.2)
PATH_DIRECT = "direct"            # unanalyzable function (§3.3)


@dataclass(slots=True)
class _Attempt:
    """One attempt at one invocation: what ``invoke`` admitted, then what
    each pipeline stage learned about it.  A cross-shard restart gets a
    fresh one (new attempt id, nothing learned yet)."""

    record: RegisteredFunction
    args: List[Any]
    execution_id: str
    seq: int                 # the invocation's sequence number (restarts share it)
    invoked_at: float
    deadline_at: float
    session: Any = None
    # Learned by the speculative stage's prediction.
    rwset: Any = None        # f^rw's predicted read/write set
    versions: Any = None     # cached version per predicted read (-1 = miss)
    spec_env: Any = None     # the speculative execution's buffered writes
    spec_trace: Any = None   # ... and its result and access trace
    exec_ms: float = 0.0     # f's (jittered) service time
    frw_ms: float = 0.0      # f^rw's share of it


@dataclass
class InvocationOutcome:
    """Everything the client (and the history recorder) learns."""

    result: Any
    path: str
    invoked_at: float
    responded_at: float
    read_versions: Dict[Key, int] = field(default_factory=dict)
    write_versions: Dict[Key, int] = field(default_factory=dict)
    frw_ms: float = 0.0
    exec_ms: float = 0.0
    function_id: str = ""

    @property
    def latency_ms(self) -> float:
        return self.responded_at - self.invoked_at


class NearUserRuntime:
    """One near-user deployment location (runtime + storage library)."""

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        region: str,
        cache: NearUserCache,
        registry: FunctionRegistry,
        config: Optional[RadicalConfig] = None,
        streams: Optional[RandomStreams] = None,
        metrics: Optional[Metrics] = None,
        external_hub=None,
        router: Optional[ShardRouter] = None,
        pop=None,
    ):
        self.sim = sim
        self.net = net
        self.region = region
        self.cache = cache
        self.registry = registry
        self.config = config or RadicalConfig()
        self.metrics = metrics or Metrics()
        # Shard routing: a hand-built runtime sends everything to the
        # seed's one ``lvi-server``.
        self.router = router or ShardRouter(["lvi-server"])
        self.external_hub = external_hub  # §3.5 services, shared deployment-wide
        # The mesh PoP this location belongs to, when the deployment runs a
        # cache mesh (repro.mesh).  ``pop`` is the same object as ``cache``
        # then; None on seed topologies.  A non-serving PoP (crashed
        # location) makes the whole runtime unavailable.
        self.pop = pop
        # The index is scoped to this experiment's network (not a
        # process-global counter): endpoint names land in trace-span
        # attributes, and a global counter would make two same-seed runs
        # in one process serialize differently.
        self.name = net.unique_endpoint_name(f"runtime-{region}")
        # Jitter is keyed by region (not by the process-global instance
        # counter) so identical experiments draw identical sequences.
        self._jitter = (streams or RandomStreams(0)).stream(f"runtime.{region}")
        # A separate stream for retry backoff jitter: happy-path runs draw
        # nothing from it, so adding retries perturbs no existing stream.
        self._retry_rng = (streams or RandomStreams(0)).stream(f"runtime.{region}.retry")
        self._policy = RetryPolicy.from_config(self.config)
        # One retransmission-timeout estimator per destination endpoint.
        self._rto: Dict[str, RtoEstimator] = {}
        # Destination endpoint -> the region its re-sent copies detour
        # through (``Deployment.build`` fills it in; empty: re-sends go
        # direct).  A destination whose relayed copy answered first is
        # *suspect* — its direct path lost a copy the server answered —
        # and maps here to the instant suspicion began.
        self.relays: Dict[str, str] = {}
        self._suspect: Dict[str, float] = {}
        self._breaker = CircuitBreaker(
            sim,
            failure_threshold=self.config.breaker_failure_threshold,
            cooldown_ms=self.config.breaker_cooldown_ms,
            metrics=self.metrics,
            name=f"breaker.{region}",
        )
        # AIMD backpressure: bounds this runtime's in-flight invocations
        # when the config enables it (limiter_max_inflight > 0), shrinking
        # under OverloadedError replies so sustained overload degrades via
        # the breaker ladder instead of retry-storming the server.
        self._limiter = (
            AdaptiveLimiter(
                sim,
                max_inflight=self.config.limiter_max_inflight,
                decrease_cooldown_ms=LIMITER_DECREASE_COOLDOWN_MS,
                metrics=self.metrics,
                name=f"limiter.{region}",
            )
            if self.config.limiter_max_inflight > 0
            else None
        )
        # The completion floor (RIFL's piggybacked "every execution below N
        # is finished"): an execution's seq is *open* from the moment its
        # id is minted until ``invoke`` has returned and every detached
        # sender it left (the ``xabort`` fan-out, see _detach) has finished.
        # ``_open`` maps open seqs, in minting order, to their holder
        # counts, so its first key is the floor.  Followups hold no seq: the
        # server answers them from its intent table, not its dedup state.
        self._next_seq = 0
        self._open: Dict[int, int] = {}
        # The cache reports hit/miss events to the same collector as the
        # rest of the deployment (a no-op unless tracing is installed) and
        # timestamps entries / emits hit-age samples via the bound clock.
        cache.obs = sim.obs
        cache.bind(sim, self.metrics)
        net.register(self.name, region)
        # Optional per-runtime LVI batcher: coalesces concurrent hot-path
        # requests to the same shard into one physical message (off by
        # default — the window is 0 in every paper experiment).
        self._batcher = (
            RequestBatcher(net, self.name, self.config.lvi_batch_window_ms,
                           metrics=self.metrics)
            if self.config.lvi_batch_window_ms > 0
            else None
        )

    # -- public API -----------------------------------------------------------

    def attach(self, session) -> Generator:
        """Bind a client session to this location (initial attach or a
        migration re-attach); generator, may take virtual time.

        On a mesh deployment the PoP tries to pull the session's
        unsatisfied cut (keys whose floor exceeds the local cached
        version) from live peers; whatever remains unsatisfied is handled
        per-request by floor enforcement in :meth:`invoke` — the stale
        entries read as misses, which routes those requests down the full
        LVI path instead of doomed speculation.
        """
        moved = session.region is not None and session.region != self.region
        session.region = self.region
        session.attaches += 1
        self.metrics.incr("mesh.attach")
        if moved:
            session.migrations += 1
            self.metrics.incr("mesh.migrate")
        if self.pop is not None:
            yield from self.pop.sync_session(session)
        return session

    def invoke(self, function_id: str, args: List[Any], session=None) -> Generator:
        """Handle one client request — the pipeline's *admit* stage;
        generator returning an :class:`InvocationOutcome`.

        ``session`` (a :class:`repro.mesh.Session`, optional) makes the
        attempt session-aware: cached versions below the session's floor
        are treated as misses, and the acked result's observed versions
        are folded back into the session watermark.

        When tracing is enabled, the runtime emits one *phase* span per
        contiguous segment of its critical path (``phase.overhead``,
        ``phase.frw``, then the path-dependent tail) — together with the
        client's hops they sum exactly to the request's e2e latency.
        """
        invoked_at = self.sim.now
        record = self.registry.get(function_id)
        # Open from the moment the id exists: an invocation still waiting
        # at the limiter must hold the floor below its seq.
        seq = self._next_seq
        self._next_seq = seq + 1
        self._open[seq] = 1
        execution_id = f"{self.name}:{seq}"
        cfg = self.config
        deadline_at = (
            invoked_at + cfg.invocation_deadline_ms
            if cfg.invocation_deadline_ms > 0
            else math.inf
        )
        try:
            # A crashed PoP location can run nothing at all — same contract
            # as an open breaker, so session-aware clients migrate off it.
            if self.pop is not None and not self.pop.serving:
                self.metrics.incr("mesh.pop_down")
                raise UnavailableError(f"{self.region}: PoP location is down")

            # Degradation ladder, bottom rung: while the breaker is open the
            # near-storage path is known-dead — fail fast instead of feeding
            # doomed RPCs into the WAN until the cooldown admits a probe.
            if not self._breaker.allow():
                self.metrics.incr("breaker.fast_fail")
                raise UnavailableError(
                    f"{self.region}: near-storage path unavailable (circuit open)"
                )

            limiter = self._limiter
            if limiter is not None:
                # Backpressure gate: wait (FIFO) for an in-flight slot under
                # the AIMD window.  A wait that outlives the deadline is the
                # same clean failure as an exhausted retry budget.
                admitted = yield from limiter.acquire(deadline_at)
                if not admitted:
                    self.metrics.incr("limiter.shed")
                    if self.sim.obs.enabled:
                        self.sim.obs.event("limiter.shed", region=self.region,
                                           window=limiter.window)
                    raise UnavailableError(
                        f"{self.region}: in-flight limit held past the "
                        f"invocation deadline (window {limiter.window})"
                    )
            try:
                outcome = yield from self._admitted(
                    _Attempt(record, args, execution_id, seq, invoked_at, deadline_at, session)
                )
            finally:
                if limiter is not None:
                    limiter.release()
        finally:
            self._close(seq)
        if limiter is not None:
            limiter.on_success()
        if session is not None:
            session.observe(outcome.read_versions, outcome.write_versions)
        return outcome

    # -- the pipeline, stage by stage -------------------------------------------

    def _admitted(self, attempt: _Attempt) -> Generator:
        """The ladder-admitted invocation: overheads, the near-storage-only
        routes, then the speculative attempt/restart loop."""
        cfg = self.config
        obs = self.sim.obs
        execution_id = attempt.execution_id
        probe = self._breaker.probing

        # (§5.5 components 1-2) Lambda instantiation + WASM load.
        yield self.sim.timeout(INVOKE_MS + WASM_LOAD_MS)
        if obs.enabled:
            obs.phase("phase.overhead", start_ms=attempt.invoked_at, region=self.region)

        if not attempt.record.analyzable:
            # Unanalyzable functions always execute near storage (§3.3).
            return (yield from self._direct(attempt, "an unanalyzable function"))
        if probe and self.router.nshards == 1:
            # A half-open breaker routes its single probe near storage too
            # (middle rung: no speculation while the path's health is
            # unknown).  Sharded deployments have no direct path, so their
            # probe is an ordinary speculative attempt.
            return (yield from self._direct(attempt, "a half-open breaker probe"))

        # Cross-shard attempts can abort (stale slice, busy shard, lost
        # prepare); each restart runs under a fresh attempt id so server
        # dedup never conflates it with the aborted attempt.  Single-shard
        # requests never raise _CrossShardStale, so attempt 0 — whose id is
        # the bare execution id — is the only trip through this loop and
        # the seed's behaviour is untouched.
        restart = 0
        while True:
            try:
                return (yield from self._speculate(attempt))
            except _CrossShardStale as stale:
                restart += 1
                self.metrics.incr("xshard.restart")
                self._install_fresh(stale.fresh, attempt.versions)
                remaining = attempt.deadline_at - self.sim.now
                if restart > cfg.cross_shard_max_restarts or remaining <= 0:
                    self.metrics.incr("xshard.exhausted")
                    raise UnavailableError(
                        f"cross-shard invocation {execution_id} aborted "
                        f"{restart} time(s); giving up"
                    ) from None
                backoff = min(self._policy.backoff_ms(restart, self._retry_rng),
                              remaining)
                if backoff > 0:
                    yield self.sim.timeout(backoff)
            attempt = _Attempt(
                attempt.record, attempt.args, f"{execution_id}~r{restart}", attempt.seq,
                attempt.invoked_at, attempt.deadline_at, attempt.session,
            )

    def _speculate(self, attempt: _Attempt) -> Generator:
        """One attempt at the analyzable path: predict (f^rw, then f, on
        one snapshot), route by shard, dispatch."""
        cfg = self.config
        obs = self.sim.obs
        record, args, session = attempt.record, attempt.args, attempt.session
        execution_id = attempt.execution_id

        # (1) Run f^rw on the cache snapshot to predict the access set.
        snapshot = SnapshotReader(self.cache)
        try:
            rwset, frw_gas = derive_rwset(
                record.frw, list(args), snapshot.read, gas_limit=cfg.gas_limit
            )
        except (VMTrap, GasExhausted):
            # f^rw failed at runtime (analysis edge case): fall back to
            # near-storage execution, as §3.3 prescribes.
            self.metrics.incr("frw.runtime_failure")
            return (yield from self._direct(attempt, "a runtime f^rw failure"))
        attempt.rwset = rwset

        # (2a) Speculative execution against the same snapshot.  Executed
        # logically now; its service time is charged to the clock below.
        attempt.spec_env = SpeculativeEnv(snapshot)
        external = (
            self.external_hub.caller_for(execution_id)
            if self.external_hub is not None
            else None
        )
        attempt.spec_trace = VM(
            attempt.spec_env, gas_limit=cfg.gas_limit, external=external
        ).execute(record.f, list(args))
        self._check_prediction(attempt)

        attempt.exec_ms = record.service_ms(self._jitter, cfg.service_jitter_sigma)
        attempt.frw_ms = self._frw_time(frw_gas, attempt.spec_trace.gas_used, attempt.exec_ms)
        frw_started = self.sim.now
        yield self.sim.timeout(attempt.frw_ms)
        if obs.enabled:
            obs.phase(
                "phase.frw", start_ms=frw_started,
                reads=len(rwset.reads), writes=len(rwset.writes),
            )

        # (2b) Gather cached versions for the LVI request.
        versions = attempt.versions = {k: snapshot.version_of(*k) for k in rwset.reads}
        if session is not None:
            # Session-guarantee enforcement (repro.mesh): a cached version
            # below the session's floor is *known* stale — validation would
            # abort it anyway.  Treat it as a miss so the request takes the
            # full LVI path (no doomed speculation) and the response's
            # fresh items repair the cache.
            stale = 0
            for k, v in versions.items():
                if 0 <= v < session.floor(k):
                    versions[k] = -1
                    stale += 1
            if stale:
                self.metrics.incr("mesh.session_stale", stale)

        # (2c) Route by shard: the one-shard case is the seed's single-RPC
        # fast path, byte for byte; touching several shards enters the
        # scatter-gather prepare/commit flow.
        shards = self._shards_touched(attempt)
        if len(shards) > 1:
            return (yield from self._dispatch_cross_shard(attempt, shards))
        # In-network conflict detection: a read-only request whose
        # constraints miss every writer its shard holds skips lock
        # acquisition and goes to the shard's read rotation.  The probe
        # here only picks the route; a hit takes the primary's locked path.
        detector = self.router.detector
        skip_facts = self._skip_facts(attempt) if detector is not None else None
        if skip_facts is not None and detector.probe(shards[0], skip_facts):
            skip_facts = None
        return (yield from self._dispatch_single(attempt, shards[0], skip_facts))

    def _dispatch_single(self, attempt: _Attempt, shard: int, skip_facts) -> Generator:
        """The seed's one-RPC fast path against a single LVI server."""
        cfg = self.config
        obs = self.sim.obs
        execution_id = attempt.execution_id
        primary = self.router.endpoint(shard)
        dst = self.router.read_endpoint(shard) if skip_facts is not None else primary
        request = self._lvi_request(attempt, skip_facts)

        if any(v == -1 for v in attempt.versions.values()):
            # Validation is guaranteed to fail: skip speculation (§3.2).
            self.metrics.incr("path.miss")
            response = yield from self._lvi_round_trip(attempt, request, dst, miss=True)
            return self._near_storage_outcome(attempt, response, PATH_MISS)

        if cfg.speculate:
            # Overlap the LVI round trip with the function's execution: the
            # service time is one armed timer, the round trip runs in this
            # process, and whichever ends last ends the phase.
            started = self.sim.now
            exec_done = self.sim.timeout(attempt.exec_ms)
            response: LVIResponse = yield from self._call_with_retry(
                request, attempt.deadline_at, "lvi", dst=dst, batch=True,
                backup_ms=attempt.record.service_time_ms,
            )
            if not exec_done.triggered:
                yield exec_done
            self._overlap_spans(attempt, started, "phase.spec_overlap")
        else:
            # Ablation: serialize the LVI request before execution.
            response = yield from self._lvi_round_trip(attempt, request, dst)
            yield from self._charge_exec(attempt)

        if not response.ok:
            self.metrics.incr("path.backup")
            return self._near_storage_outcome(attempt, response, PATH_BACKUP)

        writes = attempt.spec_env.buffered_writes()
        outcome = self._commit(
            attempt, writes, response.validated_versions, response.new_versions
        )
        if not attempt.rwset.writes:
            return outcome
        # The server created an intent whenever the *predicted* write set
        # was non-empty; the followup must settle it even if the execution
        # took a branch that wrote nothing (otherwise the intent timer
        # would pointlessly re-execute the function).  A writer skips no
        # locks, so its request went to the primary.
        if cfg.single_request:
            # (8a) Followup goes out *after* responding to the client.
            self.sim.spawn(self._send_followup(execution_id, writes, primary),
                           name=f"followup({execution_id})")
        else:
            # Ablation: a second synchronous round trip (validate-then-
            # commit), paying the latency Radical's design avoids — the
            # client is answered only once it returns.
            followup_started = self.sim.now
            yield from self._send_followup(execution_id, writes, primary)
            if obs.enabled:
                obs.phase("phase.followup", start_ms=followup_started)
            outcome.responded_at = self.sim.now
        return outcome

    def _dispatch_cross_shard(self, attempt: _Attempt, shards: List[int]) -> Generator:
        """Scatter-gather prepare across every touched shard, then a
        presumed-abort commit.

        The strict-serializability rule: *every* shard must hold the
        request's locks, have validated its read slice, and have durably
        staged its write slice (as an apply-kind intent) before any shard
        settles a write.  Commit is decided by durably recording it at the
        coordinating shard — the lowest-numbered touched shard — before any
        fan-out; a participant whose decision message is lost asks the
        coordinator when its lease fires, and a query for an unrecorded
        decision forces an abort tombstone.  Exactly one global outcome can
        win, so no partial application is ever visible.
        """
        obs = self.sim.obs
        execution_id = attempt.execution_id
        rwset, versions = attempt.rwset, attempt.versions
        writes = attempt.spec_env.buffered_writes()
        if any(v == -1 for v in versions.values()):
            # A cache miss guarantees validation failure on that shard; let
            # the prepare bounce with repairs and restart (the single-shard
            # path instead falls through to the server's backup execution,
            # which does not exist across shards).
            self.metrics.incr("xshard.miss")

        read_groups = self._by_shard(rwset.reads)
        write_groups = self._by_shard(rwset.writes)
        write_slices = self._by_shard(writes)
        coord = shards[0]
        coord_ep = self.router.endpoint(coord)

        # (3') Scatter one prepare per shard, overlapped with the
        # function's (speculative) execution — the paper's overlap trick
        # carries over; the round trip is simply the slowest shard's.
        procs = []
        for shard in shards:
            req = ShardPrepare(
                execution_id=execution_id,
                function_id=attempt.record.function_id,
                read_keys=tuple(read_groups.get(shard, ())),
                write_keys=tuple(write_groups.get(shard, ())),
                versions={k: versions[k] for k in read_groups.get(shard, ())},
                writes=tuple(write_slices.get(shard, ())),
                shard=shard,
                coordinator=coord_ep,
                seq=attempt.seq,
                floor=self._floor(),
            )
            procs.append(self.sim.spawn(
                self._catching_call(req, attempt.deadline_at, f"prepare.s{shard}",
                                    self.router.endpoint(shard), batch=True),
                name=f"prepare({execution_id}:{shard})",
            ))
        yield from self._overlap_exec(
            attempt, procs, "phase.xshard_prepare", shards=len(shards)
        )

        # (4') Tally the votes.  Any shard that failed to vote yes —
        # unreachable (None), busy, or stale — aborts the whole attempt.
        votes = [p.result for p in procs]
        committed = False
        if all(vote is not None and vote.ok for vote in votes):
            # (5') Unanimous yes: durably record COMMIT at the coordinator
            # *before* telling anyone else.  An UnavailableError here means
            # the outcome is unknown (the record may or may not have landed)
            # and propagates to the client as a clean failure; the shards'
            # leases settle the attempt either way.
            commit_started = self.sim.now
            decision = ShardDecision(execution_id=execution_id, commit=True,
                                     record_decision=True, seq=attempt.seq,
                                     floor=self._floor())
            status = yield from self._call_with_retry(
                decision, attempt.deadline_at, "xcommit", dst=coord_ep
            )
            committed = status in ("applied", "released")
            if not committed:
                # A lease-driven abort tombstone beat our commit record:
                # the attempt aborted globally and cleanly.  Restart.
                self.metrics.incr("xshard.commit_beaten")
        else:
            self.metrics.incr("xshard.prepare_abort")
        if not committed:
            # The abort fan-out is spawned (not awaited) so the restart
            # isn't serialized behind it, and presumed abort makes it safe
            # either way: without a commit record this attempt can never
            # apply anywhere.  The no-votes' cache repairs ride along.
            self._detach(
                attempt.seq,
                self._scatter_decision(attempt, shards, commit=False, coord_ep=coord_ep),
                name=f"xabort({execution_id})",
            )
            fresh: Dict[Key, Any] = {}
            for vote in votes:
                if vote is not None:
                    fresh.update(vote.fresh)
            raise _CrossShardStale(fresh)

        # (6') Commit is durable: fan the decision out to the remaining
        # shards.  A lost ack is not a failure — the participant's durable
        # intent plus its lease query guarantees it applies — so the client
        # is answered on the recorded decision, not the fan-out.
        others = [s for s in shards if s != coord]
        if others:
            acks = yield from self._scatter_decision(attempt, others, commit=True, coord_ep=coord_ep)
            lost = sum(1 for ack in acks if ack is None)
            if lost:
                self.metrics.incr("xshard.decision_lost", lost)
        if obs.enabled:
            obs.phase("phase.xshard_commit", start_ms=commit_started,
                      shards=len(shards))

        self.metrics.incr("xshard.commit")
        new_versions: Dict[Key, int] = {}
        validated: Dict[Key, int] = {}
        for vote in votes:
            new_versions.update(vote.new_versions)
            validated.update(vote.validated_versions)
        return self._commit(attempt, writes, validated, new_versions)

    def _direct(self, attempt: _Attempt, what: str) -> Generator:
        """The near-storage-only route (§3.3): the *whole* function runs
        on one server, so it only exists on single-shard deployments.  The
        Deployment builder rejects unanalyzable apps on sharded topologies;
        this one guard catches whatever slips through (``what`` asked)."""
        function_id = attempt.record.function_id
        if self.router.nshards > 1:
            raise ProtocolError(
                f"{function_id}: {what} needs direct execution, which a "
                f"sharded deployment does not have (it is single-shard only)"
            ) from None
        request = DirectExecRequest(
            execution_id=attempt.execution_id,
            function_id=function_id,
            args=tuple(attempt.args),
            seq=attempt.seq,
            floor=self._floor(),
        )
        self.metrics.incr("path.direct")
        rtt_started = self.sim.now
        response = yield from self._call_with_retry(
            request, attempt.deadline_at, "direct", dst=self.router.endpoint(0),
            backup_ms=attempt.record.service_time_ms,
        )
        if self.sim.obs.enabled:
            self.sim.obs.phase("phase.direct_rtt", start_ms=rtt_started, function=function_id)
        return self._near_storage_outcome(attempt, response, PATH_DIRECT)

    def _commit(self, attempt: _Attempt, writes, validated, new_versions) -> InvocationOutcome:
        """Validation succeeded (on one shard, or on all of them): the
        speculative result is linearizable.  Apply its writes to the local
        cache at the versions the server(s) promised, and answer with it."""
        self.metrics.incr("path.speculative")
        for table, key, value in writes:
            self.cache.apply_local_write(table, key, value, new_versions[(table, key)])
        return InvocationOutcome(
            result=attempt.spec_trace.result,
            path=PATH_SPECULATIVE,
            invoked_at=attempt.invoked_at,
            responded_at=self.sim.now,
            read_versions=dict(validated),
            write_versions=dict(new_versions),
            frw_ms=attempt.frw_ms,
            exec_ms=attempt.exec_ms,
            function_id=attempt.record.function_id,
        )

    def _near_storage_outcome(self, attempt: _Attempt, response, path: str) -> InvocationOutcome:
        """(8b)-(9b): answer with a near-storage execution's result (the
        backup copy, or a direct execution) and install the cache repairs
        it shipped."""
        if response.fresh:
            self._install_fresh(
                response.fresh,
                attempt.versions.keys() | response.backup_write_versions.keys(),
            )
        return InvocationOutcome(
            result=response.result,
            path=path,
            invoked_at=attempt.invoked_at,
            responded_at=self.sim.now,
            read_versions=dict(response.backup_read_versions),
            write_versions=dict(response.backup_write_versions),
            frw_ms=attempt.frw_ms,
            function_id=attempt.record.function_id,
        )

    # -- helpers -----------------------------------------------------------------

    def _lvi_request(self, attempt: _Attempt, skip_facts=None) -> LVIRequest:
        """The one coordination request (lock-free under ``skip_facts``)."""
        return LVIRequest(
            execution_id=attempt.execution_id,
            function_id=attempt.record.function_id,
            args=tuple(attempt.args),
            read_keys=tuple(attempt.rwset.reads),
            write_keys=tuple(attempt.rwset.writes),
            versions=attempt.versions,
            skip_locks=skip_facts is not None,
            read_facts=tuple(skip_facts) if skip_facts is not None else (),
            seq=attempt.seq,
            floor=self._floor(),
        )

    def _floor(self) -> int:
        """Every execution of this runtime below the returned seq is
        finished: the smallest open seq, or the next one to mint."""
        return next(iter(self._open), self._next_seq)

    def _close(self, seq: int) -> None:
        """One holder of ``seq`` is done; the last one closes it."""
        left = self._open[seq] - 1
        if left:
            self._open[seq] = left
        else:
            del self._open[seq]

    def _detach(self, seq: int, gen: Generator, name: str) -> None:
        """Spawn ``gen``, a sender of execution ``seq`` nobody waits for:
        ``seq`` stays open until it finishes, however soon ``invoke``
        returns (the hold is taken now, before the caller can close)."""
        self._open[seq] += 1

        def holding() -> Generator:
            try:
                return (yield from gen)
            finally:
                self._close(seq)

        self.sim.spawn(holding(), name=name)

    def _lvi_round_trip(self, attempt: _Attempt, request, dst: str, **phase_tags) -> Generator:
        """An LVI request nothing overlaps (a cache miss, the ablation): a
        critical-path phase of its own."""
        rtt_started = self.sim.now
        response = yield from self._call_with_retry(
            request, attempt.deadline_at, "lvi", dst=dst, batch=True,
            backup_ms=attempt.record.service_time_ms,
        )
        if self.sim.obs.enabled:
            self.sim.obs.phase("phase.lvi_rtt", start_ms=rtt_started, **phase_tags)
        return response

    def _overlap_exec(self, attempt: _Attempt, procs, phase: str, **phase_tags) -> Generator:
        """Wait for the validation RPCs ``procs`` of a cross-shard fan-out
        overlapped with f's service time: the phase's length is max(exec,
        slowest round trip), the paper's core overlap (§3.2).  (Under the
        ``speculate=False`` ablation: one after the other.)"""
        obs = self.sim.obs
        started = self.sim.now
        replies = [p.done_event for p in procs]
        if not self.config.speculate:
            yield self.sim.all_of(replies)
            if obs.enabled:
                obs.phase(phase, start_ms=started, **phase_tags)
            yield from self._charge_exec(attempt)
            return
        yield self.sim.all_of([self.sim.timeout(attempt.exec_ms)] + replies)
        self._overlap_spans(attempt, started, phase, **phase_tags)

    def _overlap_spans(self, attempt: _Attempt, started: float, phase: str, **phase_tags) -> None:
        """The overlap phase, with the spec.exec interval it encloses; the
        child rpc spans let the analyzer name the winner."""
        obs = self.sim.obs
        if obs.enabled:
            exec_ms = attempt.exec_ms
            obs.span_at(
                "spec.exec", started, started + exec_ms,
                kind="exec", function=attempt.record.function_id,
            )
            obs.phase(phase, start_ms=started, exec_ms=exec_ms, **phase_tags)

    def _charge_exec(self, attempt: _Attempt) -> Generator:
        """Ablation (``speculate=False``): f runs only *after* validation."""
        exec_started = self.sim.now
        yield self.sim.timeout(attempt.exec_ms)
        if self.sim.obs.enabled:
            self.sim.obs.phase("phase.exec", start_ms=exec_started,
                               function=attempt.record.function_id)

    def _by_shard(self, items) -> Dict[int, list]:
        """Group keys — or ``(table, key, value)`` writes — by owning shard."""
        groups: Dict[int, list] = {}
        for item in items:
            groups.setdefault(self.router.shard_of(item[0], item[1]), []).append(item)
        return groups

    def _shards_touched(self, attempt: _Attempt) -> List[int]:
        """The shards the predicted access set maps to, ascending (shard 0
        for a function that touches no storage at all)."""
        rwset = attempt.rwset
        all_keys = list(rwset.reads) + list(rwset.writes)
        if all_keys and attempt.record.analyzed.single_shard_affine:
            # Statically proven single-key (repro.analysis.ir.summary):
            # every access renders the same key string, so hashing the
            # first one routes the whole invocation.  Provably the same
            # shard set as the enumeration below — just cheaper.
            self.metrics.incr("affinity.fast_path")
            return [self.router.shard_of(*all_keys[0])]
        return sorted({self.router.shard_of(t, k) for (t, k) in all_keys}) or [0]

    def _catching_call(self, request, deadline_at, label, dst, batch=False) -> Generator:
        """Retry-wrapped RPC that never raises: returns the response, or
        ``None`` once its budget is exhausted, so a scatter-gather can tally
        partial failures without the kernel seeing an unwatched failed
        process."""
        try:
            return (yield from self._call_with_retry(
                request, deadline_at, label, dst=dst, batch=batch
            ))
        except UnavailableError:
            return None

    def _scatter_decision(self, attempt: _Attempt, shards, commit: bool, coord_ep: str) -> Generator:
        """Fan a :class:`ShardDecision` out to ``shards`` in parallel and
        wait for every ack; returns a status per shard, ``None`` if lost.
        A *commit* runs under the invocation's deadline.  An *abort* is
        best-effort (presumed abort makes it optional: it only accelerates
        lock release ahead of the shards' leases) and runs detached, on a
        budget of its own; the coordinator's copy records the abort
        tombstone so late lease queries settle instantly."""
        label = "decision" if commit else "abort"
        deadline_at = (
            attempt.deadline_at if commit
            else self.sim.now + self.config.rpc_timeout_ms * self._policy.max_attempts
        )
        procs = [
            self.sim.spawn(
                self._catching_call(
                    ShardDecision(
                        execution_id=attempt.execution_id, commit=commit,
                        record_decision=(
                            not commit and self.router.endpoint(shard) == coord_ep
                        ),
                        seq=attempt.seq, floor=self._floor(),
                    ),
                    deadline_at, f"{label}.s{shard}", self.router.endpoint(shard),
                ),
                name=f"{label}({attempt.execution_id}:{shard})",
            )
            for shard in shards
        ]
        yield self.sim.all_of([p.done_event for p in procs])
        return [p.result for p in procs]

    def _call_with_retry(
        self, request, deadline_at: float, label: str, dst: str, batch: bool = False,
        breaker: bool = True, backup_ms: float = 0.0,
    ) -> Generator:
        """One logical near-storage RPC under the retry policy: one request
        with one reply slot, which an answer to any of its copies completes
        (the server's execution-id dedup makes copies safe).

        Every attempt is bounded by ``rpc_timeout_ms`` (clipped to the
        invocation's remaining deadline) and sends one copy — and a second
        one through ``dst``'s relay when the direct path may be losing
        copies: the last attempt timed out, or ``dst`` is suspect
        (:meth:`_judge_path`).  Inside it, each time the destination's
        retransmission timeout (plus ``backup_ms``, the near-storage
        execution a call that may take the backup path waits for) runs
        out the timeout doubles, and another copy goes out, through the
        relay, when the destination's :class:`RtoEstimator` judges the
        last one lost.  Failed attempts back off with deterministic
        jitter, and exhaustion — of attempts or of the deadline — surfaces
        as a clean :class:`UnavailableError`.  An answer to an earlier
        attempt's copy that lands later still ends the call.  With ``breaker``, the call's outcome — answered, or
        unavailable — feeds the circuit breaker once; followups pass False.
        """
        cfg = self.config
        policy = self._policy
        obs = self.sim.obs
        # Hot-path LVI traffic goes through the batcher when one is
        # configured; control messages (followups, decisions) never batch.
        call = (
            self._batcher.rpc(dst, request) if (batch and self._batcher is not None)
            else self.net.rpc(self.name, dst, request)
        )
        relay = call.relay = self.relays.get(dst)
        rto = self._rto.get(dst)
        if rto is None:
            rto = self._rto[dst] = RtoEstimator()
        relayed = False  # whether a copy went through the relay

        def resend(call) -> bool:
            nonlocal relayed
            if not rto.may_resend(call.last_sent_at):
                return False
            self.metrics.incr("rpc.retransmit")
            if obs.enabled:
                obs.event("rpc.retransmit", label=label,
                          execution_id=request.execution_id, send=call.sends + 1)
            if relay is not None:
                relayed = True
                self._note_relayed(label, request, relay, hedge=False)
            return True

        attempt = 0
        timed_out = False  # the last attempt ended at its deadline
        while True:
            remaining = deadline_at - self.sim.now
            if remaining <= 0:  # never for a followup: it has no deadline
                self._breaker.record_failure()
                self.metrics.incr("rpc.deadline_exceeded")
                raise UnavailableError(
                    f"{label} {request.execution_id}: invocation deadline exhausted "
                    f"after {attempt} attempt(s)"
                )
            attempt += 1
            # The direct path may be losing copies: hedge it with the detour.
            call.hedged = relay is not None and (timed_out or dst in self._suspect)
            if call.hedged and not call.answered:
                relayed = True
                self._note_relayed(label, request, relay, hedge=True)
            rto_ms = rto.rto_ms
            try:
                response = yield from call.attempt(
                    min(cfg.rpc_timeout_ms, remaining),
                    None if rto_ms is None else rto_ms + backup_ms, resend,
                )
            except (RpcTimeout, OverloadedError) as exc:
                # A timeout says nothing about what the server did.  An
                # OverloadedError says it shed the request at admission: a
                # definite, retryable failure that did no work server-side.
                # It shrinks the AIMD window, and its backoff honors the
                # server's retry-after hint.
                shed = isinstance(exc, OverloadedError)
                timed_out = not shed
                if breaker:
                    self.metrics.incr("rpc.overloaded" if shed else "rpc.timeout")
                if shed and self._limiter is not None:
                    self._limiter.on_overload()
                if attempt >= policy.max_attempts:
                    how = (
                        f"shed by overloaded server on all {attempt} attempt(s)"
                        if shed else f"all {attempt} attempts timed out"
                    )
                    if breaker:
                        self._breaker.record_failure()
                        self.metrics.incr("rpc.exhausted")
                        if obs.enabled:
                            obs.event(
                                "rpc.exhausted", label=label,
                                execution_id=request.execution_id, attempts=attempt,
                            )
                    raise UnavailableError(f"{label} {request.execution_id}: {how}") from None
                if breaker:
                    self.metrics.incr("rpc.retry")
                    if obs.enabled:
                        obs.event(
                            "rpc.retry", label=label, **({"overloaded": True} if shed else {}),
                            execution_id=request.execution_id, attempt=attempt,
                        )
                else:
                    self.metrics.incr(f"{label}.retry")
                backoff = policy.backoff_ms(attempt, self._retry_rng)
                if shed:
                    backoff = max(backoff, exc.retry_after_ms)
                backoff = min(backoff, max(0.0, deadline_at - self.sim.now))
                if backoff > 0:
                    yield self.sim.timeout(backoff)
            else:
                # Karn's rule: only an answer to the only copy is a
                # round trip of known length.
                rtt = call.rtt_ms()
                if rtt is not None:
                    rto.sample(rtt)
                rto.answered(call.first_sent_at, call.answered_at)
                if relayed:
                    self._judge_path(dst, call, label, request)
                if breaker:
                    self._breaker.record_success()
                return response

    def _note_relayed(self, label: str, request, relay: str, hedge: bool) -> None:
        """A copy of ``request`` goes out through ``relay``: a re-send, or
        (``hedge``) an attempt's second copy."""
        self.metrics.incr("rpc.relayed")
        obs = self.sim.obs
        if obs.enabled:
            obs.event("rpc.relayed", label=label, execution_id=request.execution_id,
                      via=relay, hedge=hedge)

    def _judge_path(self, dst: str, call, label: str, request) -> None:
        """A call that sent a relayed copy was answered.  An answer through
        the relay that beat the direct copy proves the server alive and the
        direct path lossy (a queueing server answers the direct copy first:
        the relayed one waits behind it), so ``dst`` turns suspect.  A
        direct answer to a call sent after suspicion began ends it."""
        since = self._suspect.get(dst)
        obs = self.sim.obs
        if call.answered_via is not None:
            if since is None:
                self._suspect[dst] = self.sim.now
                self.metrics.incr("rpc.suspect")
                if obs.enabled:
                    obs.event("rpc.suspect", label=label, dst=dst, via=call.answered_via,
                              execution_id=request.execution_id)
        elif since is not None and call.first_sent_at >= since:
            del self._suspect[dst]
            if obs.enabled:
                obs.event("rpc.unsuspect", label=label, dst=dst,
                          execution_id=request.execution_id)

    def _send_followup(self, execution_id: str, writes, dst: str) -> Generator:
        """(8a) Settle the intent: the followup rides the same retrying,
        re-sending call as every runtime RPC, but never feeds the breaker —
        the client is already answered — and a followup every attempt of
        which dies is only counted: the intent timer guarantees the writes
        land anyway (§3.4)."""
        followup = WriteFollowup(execution_id=execution_id, writes=tuple(writes))
        try:
            yield from self._call_with_retry(
                followup, math.inf, "followup", dst=dst, breaker=False
            )
        except UnavailableError:
            self.metrics.incr("followup.lost")

    def _install_fresh(self, fresh: Dict[Key, Any], own: Container[Key]) -> None:
        """Install the authoritative items a server shipped back into the
        local cache (validation-failure repairs, §3.2).  An item installs
        only when it is newer than the cached entry, absence markers
        included: a reply is built at its validation instant and can land
        after this location wrote the key speculatively at its promised
        version.  An item of a key outside ``own`` — the request's reads
        and the backup's writes, which bootstrap the cache — is another
        location's write, and installs only over an entry already held."""
        cache = self.cache
        for (table, key), item in fresh.items():
            cached = cache.version(table, key)
            if item.version <= cached or (cached < 0 and (table, key) not in own):
                continue
            cache.install(table, key, None if item.absent else Item(item.value, item.version))

    def _skip_facts(self, attempt: _Attempt) -> Optional[Tuple[KeyFact, ...]]:
        """Instantiated read constraints iff this request may skip locks.

        Eligible only when the function is statically read-only with a
        fully precise predicate, this invocation's concrete predicted read
        set is covered by the instantiated facts, and every read hit the
        cache (a miss takes the full path anyway).  Any failure of the
        soundness chain downstream — an access outside these facts during
        re-execution — is a hard protocol failure, not a fallback.
        """
        rwset = attempt.rwset
        if rwset.writes or any(v == -1 for v in attempt.versions.values()):
            return None
        summary = attempt.record.analyzed.summary
        if summary is None or not summary.lock_skippable:
            return None
        facts = summary.predicate.instantiate(list(attempt.args))
        if not facts.precise or not facts.covers_reads(rwset.reads):
            return None
        return facts.reads

    def _check_prediction(self, attempt: _Attempt) -> None:
        """The analyzer's contract: predicted sets cover the actual ones.
        A miss here is an analyzer bug — consistency would be at risk — so
        it fails loudly, before any LVI request is sent.  The sanitizer's
        full report flows through the obs spine: ``analysis.unsound`` on
        the hard failure, ``analysis.overapprox`` (plus a wasted-locks
        metric) when the prediction locked keys the execution never used."""
        function_id = attempt.record.function_id
        report = check_coverage(function_id, attempt.rwset, attempt.spec_trace)
        obs = self.sim.obs
        if not report.sound:
            self.metrics.incr("analysis.unsound")
            if obs.enabled:
                obs.event(
                    "analysis.unsound",
                    function=function_id,
                    reads=[list(k) for k in report.unsound_reads],
                    writes=[list(k) for k in report.unsound_writes],
                )
            raise ProtocolError(report.describe())
        if report.wasted_locks > 0:
            self.metrics.incr("analysis.overapprox")
            self.metrics.incr("analysis.wasted_locks", report.wasted_locks)
            if obs.enabled:
                obs.event(
                    "analysis.overapprox",
                    function=function_id,
                    wasted_locks=report.wasted_locks,
                )

    def _frw_time(self, frw_gas: int, f_gas: int, exec_ms: float) -> float:
        """f^rw latency model: the slice's share of the function's gas,
        scaled by the (jittered) service time.  Login's f^rw is ~8 gas vs
        ~20k for f, so this is microseconds; a dependent-read heavy
        function pays proportionally more (§3.3's overhead discussion)."""
        if f_gas <= 0:
            return 0.0
        fraction = min(1.0, frw_gas / max(f_gas, 1))
        return exec_ms * fraction
