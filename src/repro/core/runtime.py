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
   *route*: shards, dirty-set enrollment; after dispatch, settle or leak
   that entry by the attempt's ``fate`` (no other stage does);
4. **dispatch** (``_dispatch_single`` / ``_dispatch_cross_shard``) — the
   single LVI request (or a prepare per shard, then the decision)
   *overlapped* with ``f``'s service time: the paper's core latency trick;
5. **settle** — success: ``_commit`` applies the speculative writes to the
   local cache and answers, the write followup going out afterwards;
   failure or cache miss: ``_near_storage_outcome`` answers with the
   backup execution's result and repairs the cache with the fresh items.

Simulation note: the VM executes ``f`` *logically* at snapshot time and the
service time is charged to the virtual clock afterwards.  Because reads
come from a pinned snapshot and writes are buffered, this is equivalent to
the real interleaving — the values read are exactly the ones whose versions
the LVI request validated.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Tuple

from ..analysis import KeyFact, check_coverage, derive_rwset
from ..errors import GasExhausted, OverloadedError, ProtocolError, UnavailableError, VMTrap
from ..faults.retry import AdaptiveLimiter, CircuitBreaker, RetryPolicy
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


class _SingleShardRouter:
    """Implicit router for the seed's one-server topology: every key maps
    to shard 0 at the configured endpoint.  Keeps ``core`` independent of
    ``repro.topology`` — a real :class:`~repro.topology.ShardRouter` is
    injected by the Deployment builder when shards > 1."""

    nshards = 1

    def __init__(self, endpoint: str):
        self._endpoint = endpoint

    def shard_of(self, table: str, key: str) -> int:
        return 0

    def endpoint(self, shard: int) -> str:
        return self._endpoint

    def read_endpoint(self, shard: int) -> str:
        return self._endpoint


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

# ``_Attempt.fate``: what dispatch learned about the writes it enrolled in
# the router's dirty set (None until it has learned anything).
_FATE_KNOWN = "known"        # applied, or never will be: settle the entry
_FATE_FOLLOWUP = "followup"  # the followup sender will learn it (ack / loss)
_FATE_UNKNOWN = "unknown"    # unknowable (lost ack, exhausted RPC): leak it


@dataclass(slots=True)
class _Attempt:
    """One attempt at one invocation: what ``invoke`` admitted, then what
    each pipeline stage learned about it.  A cross-shard restart gets a
    fresh one (new attempt id, nothing learned yet)."""

    record: RegisteredFunction
    args: List[Any]
    execution_id: str
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
    # Learned by dispatch; read by the speculative stage's settle point.
    fate: Optional[str] = None


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
        server_name: str = "lvi-server",
        external_hub=None,
        router=None,
        pop=None,
    ):
        self.sim = sim
        self.net = net
        self.region = region
        self.cache = cache
        self.registry = registry
        self.config = config or RadicalConfig()
        self.metrics = metrics or Metrics()
        # Shard routing: absent an explicit router the runtime behaves
        # exactly like the seed (every request goes to ``server_name``).
        self.router = router if router is not None else _SingleShardRouter(server_name)
        self.server_name = server_name if router is None else router.endpoint(0)
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
        self._exec_counter = itertools.count()
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
        execution_id = f"{self.name}:{next(self._exec_counter)}"
        cfg = self.config
        deadline_at = (
            invoked_at + cfg.invocation_deadline_ms
            if cfg.invocation_deadline_ms > 0
            else math.inf
        )

        # A crashed PoP location can run nothing at all — same contract as
        # an open breaker, so session-aware clients migrate off it.
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
                _Attempt(record, args, execution_id, invoked_at, deadline_at, session)
            )
        finally:
            if limiter is not None:
                limiter.release()
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
                self._install_fresh(stale.fresh)
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
                attempt.record, attempt.args, f"{execution_id}~r{restart}",
                attempt.invoked_at, attempt.deadline_at, attempt.session,
            )

    def _speculate(self, attempt: _Attempt) -> Generator:
        """One attempt at the analyzable path: predict (f^rw, then f, on
        one snapshot), route by shard, dispatch — and settle the attempt's
        dirty-set entry, whichever way dispatch ends."""
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
        # In-network conflict detection: a writer enrolls its instantiated
        # write constraints in the router's dirty set *before* the request
        # is sent, so a reader's probe can never miss an in-flight write.
        # A read-only request whose constraints provably miss every
        # enrolled writer skips lock acquisition and may be served by any
        # read replica of its shard.
        detector = getattr(self.router, "detector", None)
        skip_facts = None
        if detector is not None and rwset.writes:
            detector.enroll(shards, execution_id, self._writer_facts(attempt))
        elif detector is not None and len(shards) == 1:
            skip_facts = self._skip_facts(attempt)
            if skip_facts is not None and detector.probe(shards[0], skip_facts):
                # Runtime-side probe hit: an in-flight writer may touch
                # our keys, so take the ordinary locked path.
                skip_facts = None
        try:
            if len(shards) > 1:
                return (yield from self._dispatch_cross_shard(attempt, shards))
            return (yield from self._dispatch_single(attempt, shards[0], skip_facts))
        except _CrossShardStale:
            # The attempt aborted globally (presumed abort: without a
            # commit record its staged writes can never apply) — its
            # enrollment settles; the restart enrolls afresh.
            attempt.fate = _FATE_KNOWN
            raise
        except UnavailableError:
            # Outcome unknown (the server may yet validate and apply via
            # its intent timer): keep the entry forever rather than risk
            # an unsound probe miss.
            attempt.fate = _FATE_UNKNOWN
            raise
        finally:
            # The settle point (a no-op for a reader, which never enrolled).
            # _FATE_FOLLOWUP, or any other failure, leaves the entry alone.
            if detector is not None and attempt.fate == _FATE_KNOWN:
                detector.settle(execution_id)
            elif detector is not None and attempt.fate == _FATE_UNKNOWN:
                detector.leak(execution_id)

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
                request, attempt.deadline_at, "lvi", dst=dst, batch=True
            )
            if not exec_done.triggered:
                yield exec_done
            self._overlap_spans(attempt, started, "phase.spec_overlap")
        else:
            # Ablation: serialize the LVI request before execution.
            response = yield from self._lvi_round_trip(attempt, request, dst)
            yield from self._charge_exec(attempt)

        if skip_facts is not None and response.bounced:
            # A replica declined the lock-skipped request (arrival-time
            # probe hit) without touching any state: retry the full locked
            # path at the shard primary under the same execution id.
            self.metrics.incr("router.skip_bounced")
            response = yield from self._lvi_round_trip(
                attempt, self._lvi_request(attempt), primary, bounced=True
            )

        if not response.ok:
            self.metrics.incr("path.backup")
            return self._near_storage_outcome(attempt, response, PATH_BACKUP)

        writes = attempt.spec_env.buffered_writes()
        outcome = self._commit(
            attempt, writes, response.validated_versions, response.new_versions
        )
        if not attempt.rwset.writes:
            # Read-only validation success: nothing was ever in flight.
            attempt.fate = _FATE_KNOWN
            return outcome
        # The server created an intent whenever the *predicted* write set
        # was non-empty; the followup must settle it even if the execution
        # took a branch that wrote nothing (otherwise the intent timer
        # would pointlessly re-execute the function).  A writer skips no
        # locks, so its request went to the primary.
        attempt.fate = _FATE_FOLLOWUP
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
                origin_region=self.region,
                shard=shard,
                coordinator=coord_ep,
                nshards=len(shards),
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
                                     record_decision=True)
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
            self.sim.spawn(
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
        # is answered on the recorded decision, not the fan-out.  But such
        # a participant applies at an unknowable time, so the attempt's
        # dirty-set entry must outlive it.
        others = [s for s in shards if s != coord]
        lost = 0
        if others:
            acks = yield from self._scatter_decision(attempt, others, commit=True, coord_ep=coord_ep)
            lost = sum(1 for ack in acks if ack is None)
            if lost:
                self.metrics.incr("xshard.decision_lost", lost)
        attempt.fate = _FATE_UNKNOWN if lost else _FATE_KNOWN
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
        execution_id = attempt.execution_id
        if self.router.nshards > 1:
            raise ProtocolError(
                f"{function_id}: {what} needs direct execution, which a "
                f"sharded deployment does not have (it is single-shard only)"
            ) from None
        request = DirectExecRequest(
            execution_id=execution_id,
            function_id=function_id,
            args=tuple(attempt.args),
            origin_region=self.region,
        )
        self.metrics.incr("path.direct")
        obs = self.sim.obs
        # A direct execution's access set is unknown until it runs: enroll
        # the universal fact so every probe conservatively hits while it
        # is in flight.
        detector = getattr(self.router, "detector", None)
        if detector is not None:
            detector.enroll([0], execution_id, (KeyFact(None, "any"),))
        rtt_started = self.sim.now
        try:
            response = yield from self._call_with_retry(request, attempt.deadline_at, "direct")
        except UnavailableError:
            if detector is not None:
                detector.leak(execution_id)
            raise
        if detector is not None:
            detector.settle(execution_id)
        if obs.enabled:
            obs.phase("phase.direct_rtt", start_ms=rtt_started, function=function_id)
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
        it shipped.  It applied its writes before replying: fate known."""
        attempt.fate = _FATE_KNOWN
        self._install_fresh(response.fresh)
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
            origin_region=self.region,
            skip_locks=skip_facts is not None,
            read_facts=tuple(skip_facts) if skip_facts is not None else (),
        )

    def _lvi_round_trip(self, attempt: _Attempt, request, dst: str, **phase_tags) -> Generator:
        """An LVI request nothing overlaps (a cache miss, the ablation, the
        retry after a replica's bounce): a critical-path phase of its own."""
        rtt_started = self.sim.now
        response = yield from self._call_with_retry(
            request, attempt.deadline_at, "lvi", dst=dst, batch=True
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
        self, request, deadline_at: float, label: str,
        dst: Optional[str] = None, batch: bool = False,
    ) -> Generator:
        """One logical near-storage RPC under the retry policy.

        Every attempt is bounded by ``rpc_timeout_ms`` (clipped to the
        invocation's remaining deadline), failed attempts back off with
        deterministic jitter, and exhaustion — of attempts or of the
        deadline — surfaces as a clean :class:`UnavailableError`.  Each
        attempt's outcome feeds the circuit breaker.
        """
        cfg = self.config
        policy = self._policy
        obs = self.sim.obs
        if dst is None:
            dst = self.server_name
        # Hot-path LVI traffic goes through the batcher when one is
        # configured; control messages (followups, decisions) never batch.
        caller = (
            self._batcher.call if (batch and self._batcher is not None)
            else lambda d, req, timeout: self.net.call(self.name, d, req,
                                                       timeout=timeout)
        )
        attempt = 0
        while True:
            remaining = deadline_at - self.sim.now
            if remaining <= 0:
                self._breaker.record_failure()
                self.metrics.incr("rpc.deadline_exceeded")
                raise UnavailableError(
                    f"{label} {request.execution_id}: invocation deadline exhausted "
                    f"after {attempt} attempt(s)"
                )
            attempt += 1
            try:
                response = yield from caller(
                    dst, request, timeout=min(cfg.rpc_timeout_ms, remaining)
                )
            except (RpcTimeout, OverloadedError) as exc:
                # A timeout says nothing about what the server did.  An
                # OverloadedError says it shed the request at admission: a
                # definite, retryable failure that did no work server-side.
                # It still counts against the breaker (sustained shedding
                # should degrade to the direct probe, not hammer the
                # queue); on top of that it shrinks the AIMD window, and
                # its backoff honors the server's retry-after hint.
                shed = isinstance(exc, OverloadedError)
                self._breaker.record_failure()
                if shed and self._limiter is not None:
                    self._limiter.on_overload()
                self.metrics.incr("rpc.overloaded" if shed else "rpc.timeout")
                if attempt >= policy.max_attempts:
                    self.metrics.incr("rpc.exhausted")
                    if obs.enabled:
                        obs.event(
                            "rpc.exhausted", label=label,
                            execution_id=request.execution_id, attempts=attempt,
                        )
                    how = (
                        f"shed by overloaded server on all {attempt} attempt(s)"
                        if shed else f"all {attempt} attempts timed out"
                    )
                    raise UnavailableError(f"{label} {request.execution_id}: {how}") from None
                self.metrics.incr("rpc.retry")
                if obs.enabled:
                    obs.event(
                        "rpc.retry", label=label, **({"overloaded": True} if shed else {}),
                        execution_id=request.execution_id, attempt=attempt,
                    )
                backoff = policy.backoff_ms(attempt, self._retry_rng)
                if shed:
                    backoff = max(backoff, exc.retry_after_ms)
                backoff = min(backoff, max(0.0, deadline_at - self.sim.now))
                if backoff > 0:
                    yield self.sim.timeout(backoff)
            else:
                self._breaker.record_success()
                return response

    def _send_followup(self, execution_id: str, writes, dst: str) -> Generator:
        followup = WriteFollowup(execution_id=execution_id, writes=tuple(writes))
        policy = self._policy
        detector = getattr(self.router, "detector", None)
        attempt = 0
        while True:
            attempt += 1
            try:
                yield from self.net.call(
                    self.name, dst, followup,
                    timeout=self.config.rpc_timeout_ms,
                )
                if detector is not None:
                    # The ack means the followup was applied (or the intent
                    # already settled another way): fate known.
                    detector.settle(execution_id)
                return
            except RpcTimeout:
                # Followup losses never feed the breaker: the client is
                # already answered, and the intent timer guarantees the
                # writes land even if every retry dies (§3.4).
                if attempt >= policy.max_attempts:
                    self.metrics.incr("followup.lost")
                    if detector is not None:
                        # The timer will apply the writes at an unknowable
                        # future time: the dirty entry must outlive them.
                        detector.leak(execution_id)
                    return
                self.metrics.incr("followup.retry")
                yield self.sim.timeout(policy.backoff_ms(attempt, self._retry_rng))

    def _install_fresh(self, fresh: Dict[Key, Any]) -> None:
        """Install the authoritative items a server shipped back into the
        local cache (validation-failure repairs, §3.2)."""
        for (table, key), item in fresh.items():
            if item.absent:
                self.cache.install(table, key, None)
            else:
                self.cache.install(table, key, Item(item.value, item.version))

    def _writer_facts(self, attempt: _Attempt) -> Tuple[KeyFact, ...]:
        """Instantiated write constraints to enroll in the dirty set.

        Prefers the static predicate's write facts (argument-sensitive,
        possibly a prefix/interval wider than this invocation's concrete
        writes — wider is sound, it only costs probe precision); falls
        back to exact facts over the concrete predicted write set, which
        f^rw's own sanitized soundness makes a correct bound.
        """
        summary = attempt.record.analyzed.summary
        predicate = summary.predicate if summary is not None else None
        if predicate is not None:
            facts = predicate.instantiate(list(attempt.args))
            if facts.writes and facts.covers_writes(attempt.rwset.writes):
                return facts.writes
        return tuple(KeyFact(t, "exact", k) for (t, k) in attempt.rwset.writes)

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
