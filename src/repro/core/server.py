"""The LVI server: the near-storage half of the protocol (§3.2, Figure 3).

One server (per deployment) runs alongside the primary store and handles:

* **LVI requests** — acquire read/write locks in lexicographic order,
  validate cached versions against the primary (one storage round trip),
  then either (a) install a write intent + timer and answer success, or
  (b) run the backup copy of the function under the held locks and answer
  failure with the result and cache repairs.
* **Write followups** — apply the speculative writes, complete the intent,
  release the locks.  Late/duplicate followups lose the intent's
  compare-and-set and are discarded (§3.6 case 3).
* **Intent timers** — if no followup arrives in time, deterministically
  re-execute the function against the primary (read locks guarantee it
  sees the same state the speculation validated) and apply its writes.

Locks are held until the data they protect has been read or written, and
never across a wait.  A backup execution that writes nothing runs *on the
validation fetch* — the reads linearize at that instant, under the locks —
and releases before its service time is charged; a writer's locks cover
its service time because its writes do not exist until the computation
ends.  A pending intent is only waiting for its followup, so the first
request that queues behind its locks fires the intent timer on the spot;
the intent's compare-and-set arbitrates the race with the followup as it
always has, and ``followup_timeout_ms`` remains the backstop for a
followup that is lost.

With conflict detection on, a shard primary also owns the dirty-set entry
of every write it executes (enrolled when its handler owns the execution,
dropped by ``_settle``), and a read replica serves lock-free reads and
forwards everything else to its primary (``_forward``).

§5.6's replicated variant stores each lock through a real Raft cluster
(serial commits, ~2.3 ms each) and claims an idempotency key (~3 ms) before
any near-storage execution, making executions at-most-once per site even
across server failovers.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Tuple

from ..analysis import KeyFact
from ..analysis.sanitizer import constraint_checker
from ..errors import ConditionFailed, OverloadedError, ProtocolError
from ..raft import RaftCluster
from ..sim import NO_REPLY, Batched, Metrics, Network, RandomStreams, Region, RpcTimeout, Simulator
from ..storage import (
    KIND_APPLY,
    IdempotencyTable,
    IntentStatus,
    IntentTable,
    KVStore,
    LockManager,
    WriteOp,
)
from ..wasm import VM
from .config import (
    PREPARE_LOCK_TIMEOUT_MS,
    REPLICATED_IDEM_MS,
    SERVER_STORAGE_RTT_MS,
    RadicalConfig,
)
from .messages import (
    DirectExecRequest,
    Forwarded,
    FreshItem,
    LVIRequest,
    LVIResponse,
    ShardDecision,
    ShardDecisionQuery,
    ShardPrepare,
    WriteFollowup,
)
from .registry import FunctionRegistry
from .storage_library import PrimaryEnv, SnapshotEnv, SnapshotEscape

Key = Tuple[str, str]

__all__ = ["LVIServer", "DECISION_TABLE"]

#: Cross-shard commit/abort records, stored in the *coordinating* shard's
#: primary store.  Like the intent tables, the ``_radical`` prefix keeps
#: the table out of cache warming and application scans.
DECISION_TABLE = "_radical_decisions"

#: Barrier key serializing direct executions against validated ones.  A
#: direct execution (§3.3, unanalyzable function) learns its read/write
#: set only by running the VM, so it cannot take per-key locks up front —
#: left unguarded it can read a version that a pending speculative intent
#: is about to overwrite and mint a duplicate write of the same version.
#: Every LVI/prepare lock set therefore includes this key in READ mode
#: (shared: validated executions never contend on it with each other),
#: and the direct path takes it in WRITE mode, waiting out all in-flight
#: validations and pending intents before touching primary state.  The
#: empty table name sorts before every real table, so the barrier is
#: always the *first* lock acquired and the sorted-order deadlock-freedom
#: argument still holds.
_DIRECT_BARRIER: Tuple[str, str] = ("", "#direct-barrier")

#: What a direct execution enrolls in the dirty set: its access set is
#: unknown until it runs, so the universal fact makes every probe hit.
_ANY_KEY = (KeyFact(None, "any"),)

#: :meth:`LVIServer._dedup`'s verdict for a request never seen before.
_FRESH = object()

#: The phases of an execution that owes a settlement (``None``: it owes none).
_INTENT = "intent"        # LVI intent waiting for its followup; expeditable
_EXPEDITED = "expedited"  # ... whose re-execution contention has started
_PREPARED = "prepared"    # cross-shard slice waiting for its decision


@dataclass(slots=True)
class _Execution:
    """What this server incarnation holds for one execution id, shaped
    like RIFL's completion record: who answers a redelivery, and what is
    left to settle (:meth:`LVIServer._settle` is its one exit).  It leaves
    ``_executions`` once settled and keeping nothing for a retry (its
    client's floor passed it, or it never kept a reply)."""

    owned: bool = False    # a handler owns the id: a redelivery is a duplicate
    reply: Any = None      # the answer a retry of the request gets
    decision: Any = None   # ... and a retry of its ShardDecision
    phase: Optional[str] = None
    timer: Any = None      # the intent timer or prepare lease of ``phase``

    def kept(self) -> bool:  # whether the record still answers a retry
        return self.owned or self.reply is not None or self.decision is not None


@dataclass(slots=True)
class _Client:
    """One sender's completion floor, and a heap of ``(seq, execution_id)``
    of its records that keep something for a retry."""

    floor: int = 0
    filed: list = field(default_factory=list)


class LVIServer:
    """Handles LVI requests and followups at the near-storage location."""

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        registry: FunctionRegistry,
        store: KVStore,
        config: Optional[RadicalConfig] = None,
        streams: Optional[RandomStreams] = None,
        metrics: Optional[Metrics] = None,
        region: str = Region.VA,
        name: str = "lvi-server",
        raft_cluster: Optional[RaftCluster] = None,
        external_hub=None,
        shard: int = 0,
        primary: Optional[str] = None,
    ):
        self.sim = sim
        self.net = net
        self.registry = registry
        self.store = store
        self.config = config or RadicalConfig()
        self.metrics = metrics or Metrics()
        self.region = region
        self.name = name
        self.shard = shard
        self.locks = self._new_lock_table()
        self.intents = IntentTable(store, sim=sim)
        self.idem = IdempotencyTable(store)
        self._jitter = (streams or RandomStreams(0)).stream(f"server.{name}.exec")
        self.raft = raft_cluster
        self.external_hub = external_hub  # shared with the near-user runtimes
        # A read replica (conflict detection) names its shard primary's
        # endpoint: it shares the primary's KVStore object but owns no
        # locks, intents, or raft state — it serves lock-skipped reads
        # and forwards everything else to the primary (_forward).
        self.primary = primary
        # Injected by the deployment when conflict detection is on: the
        # shared in-network ConflictDetector.  A primary enrolls each
        # writer it owns and settles it in _settle; every server probes
        # it at the arrival of a lock-skipped read (see DirtySet).
        self.detector = None
        if self.config.replicated and self.raft is None and primary is None:
            raise ProtocolError("replicated config requires a raft cluster")
        # The network is at-least-once under failure injection: a
        # redelivered request must not execute twice, and a retry whose
        # response was lost must get the same answer.  A record lives until
        # it is settled and its client's completion floor has passed it
        # (see _stale), so the maps hold the executions in flight, not the
        # run.  In-memory on purpose: they die with the process (crash()).
        self._executions: Dict[str, _Execution] = {}
        self._clients: Dict[str, _Client] = {}  # keyed by client endpoint
        self._crashed = False
        # Bumped by crash(): handlers resumed under a newer incarnation
        # stop instead of mutating state from beyond the grave.
        self._incarnation = 0
        # Serial processing model: the virtual time at which the server's
        # (single) CPU frees up.  Only advances when server_proc_ms > 0.
        self._proc_free_at = 0.0
        # Gray-failure hook: a "limping" server's inflated per-message cost
        # (None = healthy, use the config's server_proc_ms).
        self._proc_override: Optional[float] = None
        # Admission control: messages admitted but not yet served by the
        # CPU.  Bounded by admission_queue_depth; the peak is what the
        # chaos harness checks against the configured bound.
        self._admission_queue = 0
        self.max_admission_queue = 0
        net.serve(name, region, self._handle)

    # -- dispatch -----------------------------------------------------------

    #: message type -> (handler, admission-gated, floored).  Handlers are
    #: held by *name* and resolved at dispatch, never as function objects:
    #: a test that plants a bug with ``monkeypatch.setattr(LVIServer,
    #: "_handle_followup", ...)`` must change what runs.  A floored
    #: message carries its sender's ``seq``/``floor``, and its handler is
    #: also told the sender (the client the floor belongs to).
    _HANDLERS = {
        LVIRequest: ("_handle_lvi", True, True),
        WriteFollowup: ("_handle_followup", False, False),
        DirectExecRequest: ("_handle_direct", True, True),
        ShardPrepare: ("_handle_prepare", True, True),
        ShardDecision: ("_handle_decision", False, True),
        ShardDecisionQuery: ("_handle_query", False, False),
    }

    def _handle(self, payload: Any, src: str) -> Generator:
        batch_index = 0
        if isinstance(payload, Batched):
            batch_index = payload.index
            payload = payload.payload
        if isinstance(payload, Forwarded):
            # A replica's hand-off: the request is its original sender's.
            payload, src = payload.request, payload.client
        kind = type(payload)
        if kind not in self._HANDLERS:
            raise ProtocolError(f"unknown message {kind.__name__}")
        handler, gated, floored = self._HANDLERS[kind]
        if gated and self._is_copy(payload.execution_id):
            # A copy of an execution this server owns or has answered (a
            # re-sent, relayed or hedged request) pays no processing and
            # takes no admission slot: its handler stays silent or replays
            # the reply, from the record alone.
            return self._guarded(getattr(self, handler)(payload, src))
        # Admission control gates only *request* traffic.  Followups,
        # decisions, and lease queries always get through: shedding them
        # would strand held locks and pending intents, hurting liveness
        # instead of protecting it.  A raise here happens before any handler
        # state is touched — no dedup entry, no locks, no intent — so the
        # caller's retry is re-admitted cleanly, and the network layer turns
        # the exception into a failed reply at the client's ``net.call``.
        admitted = gated and self._admit(kind.__name__)
        if floored:
            inner = getattr(self, handler)(payload, src)
        else:
            inner = getattr(self, handler)(payload)
        return self._guarded(self._charge_proc(inner, batch_index, admitted))

    def _is_copy(self, eid: str) -> bool:
        """Whether a request for ``eid`` is a copy ``_dedup`` answers from
        the record: the execution is owned here, or its reply is kept."""
        rec = self._executions.get(eid)
        return rec is not None and (rec.owned or rec.reply is not None)

    def _effective_proc_ms(self) -> float:
        """Per-message CPU cost right now: the gray-failure override when a
        limp window is active, else the configured ``server_proc_ms``."""
        if self._proc_override is not None:
            return self._proc_override
        return self.config.server_proc_ms

    def set_proc_override(self, proc_ms: Optional[float]) -> None:
        """Install (or with ``None`` clear) a limping-server override of the
        per-message CPU cost — the fault scheduler's gray-failure hook."""
        if proc_ms is not None and proc_ms < 0:
            raise ProtocolError(f"proc override must be non-negative: {proc_ms}")
        self._proc_override = proc_ms

    def _admit(self, kind: str) -> bool:
        """Bounded-queue admission check.  Returns True when the request
        was counted into the admission queue (so ``_charge_proc`` must
        count it back out); raises :class:`OverloadedError` to shed it.

        Two triggers, both deterministic functions of server state: the
        depth cap (``admission_queue_depth`` requests already admitted)
        and the CoDel-flavoured sojourn bound (the CPU backlog alone
        already exceeds ``admission_sojourn_ms``, so even an admitted
        request would wait longer than the configured target)."""
        cap = self.config.admission_queue_depth
        proc = self._effective_proc_ms()
        if cap <= 0 or proc <= 0:
            return False
        backlog_ms = max(0.0, self._proc_free_at - self.sim.now)
        sojourn = self.config.admission_sojourn_ms
        if self._admission_queue >= cap or (sojourn > 0 and backlog_ms > sojourn):
            self.metrics.incr("admission.shed")
            obs = self.sim.obs
            if obs.enabled:
                obs.event(
                    "server.shed", server=self.name, request=kind,
                    depth=self._admission_queue, backlog_ms=backlog_ms,
                )
            raise OverloadedError(self.name, backlog_ms + proc)
        self._admission_queue += 1
        if self._admission_queue > self.max_admission_queue:
            self.max_admission_queue = self._admission_queue
        self.metrics.record_tagged(
            "admission.depth", float(self._admission_queue), server=self.name
        )
        return True

    def _charge_proc(self, inner: Generator, batch_index: int, admitted: bool = False) -> Generator:
        """Serialize handlers through the server's CPU when a per-message
        cost is configured (the scalability model's bottleneck) or a
        gray-failure override is limping the server.  Members of a
        coalesced batch after the first pay only the marginal
        ``server_batch_item_ms``.  With the cost at 0 — every paper
        experiment — the handler is returned untouched, so the virtual
        timeline is byte-identical to the un-modelled seed."""
        eff = self._effective_proc_ms()
        if eff <= 0:
            return inner
        cost = self.config.server_batch_item_ms if batch_index > 0 else eff

        def flow() -> Generator:
            start = max(self.sim.now, self._proc_free_at)
            self._proc_free_at = start + cost
            delay = self._proc_free_at - self.sim.now
            if delay > 0:
                yield self.sim.timeout(delay)
            if admitted:
                # Service begins: the request leaves the admission queue.
                # (A crash resets the counter wholesale, so handlers fenced
                # mid-wait cannot strand it.)
                self._admission_queue -= 1
            result = yield from inner
            return result

        return flow()

    def _guarded(self, inner: Generator) -> Generator:
        """Run ``inner`` but fence it against crashes: the moment the
        server's incarnation changes, the handler stops *before* its next
        step runs — in-flight executions die with the process, exactly as
        a real crash would kill them.  (The completed steps stand: a crash
        lands on some yield boundary.)"""
        incarnation = self._incarnation
        to_send: Any = None
        to_throw: Optional[BaseException] = None
        while True:
            if self._incarnation != incarnation:
                inner.close()
                self.metrics.incr("server.killed_handlers")
                return NO_REPLY
            try:
                if to_throw is not None:
                    exc, to_throw = to_throw, None
                    step = inner.throw(exc)
                else:
                    step = inner.send(to_send)
            except StopIteration as stop:
                return stop.value
            try:
                to_send = yield step
            except GeneratorExit:
                # Closed or collected while suspended, not resumed: nothing
                # to fence and nothing to count.
                inner.close()
                raise
            except BaseException as exc:  # forward interrupts/failures inward
                to_send, to_throw = None, exc

    # -- stages shared by the request-bearing handlers --------------------------

    def _dedup(self, req, client: Optional[str], durable: bool):
        """The dedup prologue of every request-bearing handler: the reply a
        redelivered request gets (a cached response, or ``NO_REPLY`` for
        silence), or ``_FRESH`` for a request never seen before.

        First the sender's completion floor: a higher one trims the
        client's records below it, and a request below its client's floor
        is *stale* — every execution that could still wait for it has
        finished — so it gets silence and touches nothing.  ``client`` is
        None for a handler called directly, outside dispatch: no floor.

        ``durable`` also consults what survives a crash — the intent table
        and the idempotency claims — for requests that leave such records.
        A ``_FRESH`` id is *not* marked owned here: the handler does that
        once it owns the execution, so a bounced request leaves no trace.
        """
        if self._stale(req, client):
            return NO_REPLY
        eid = req.execution_id
        rec = self._executions.get(eid)
        if rec is not None and rec.reply is not None:
            # Client retry after a lost *response*: replay the original
            # answer verbatim (idempotent execution-id semantics).
            self.metrics.incr("lvi.replayed_reply")
            return rec.reply
        if rec is not None and rec.owned:
            # Duplicate delivery: the original handler owns this execution
            # and will answer; a duplicate must stay completely silent (a
            # fast ok=False here would race ahead of the real response).
            self.metrics.incr("lvi.duplicate_request")
            return NO_REPLY
        if durable and self.intents.get(eid) is not None:
            # Retry of a request the *previous incarnation* already
            # validated (or voted yes on): the durable intent proves it.
            # The reply cache died with the crash, so we cannot reconstruct
            # the answer — stay silent and let the intent timer, the
            # decision/lease machinery, or recovery settle the write
            # exactly once while the client exhausts its budget.
            self._file(req, client).owned = True
            self.metrics.incr("lvi.replay_after_crash")
            return NO_REPLY
        if durable and self.idem.claimed(eid, IdempotencyTable.NEAR_STORAGE):
            # The intent is gone but the durable claim remains: a previous
            # incarnation already *settled* this execution's writes (via
            # followup, timer, or recovery).  Validating it afresh would
            # mint a second intent and double-apply — stay silent.
            self._file(req, client).owned = True
            self.metrics.incr("lvi.settled_replay")
            return NO_REPLY
        return _FRESH

    def _stale(self, req, client: Optional[str]) -> bool:
        """Take in the completion floor ``req`` carries — a higher one ends
        the dedup role of the client's records below it, dropping those
        with nothing left to settle (floors only rise: a retry resends the
        one it was built with) — and say, counting it, whether ``req``
        itself is below its client's floor."""
        if client is None:
            return False
        sender = self._clients.get(client) or self._clients.setdefault(client, _Client())
        if req.floor > sender.floor:
            sender.floor = req.floor
            filed, executions = sender.filed, self._executions
            while filed and filed[0][0] < req.floor:
                # A filed record keeps something, so _settle left it here.
                eid = heapq.heappop(filed)[1]
                rec = executions[eid]
                rec.owned, rec.reply, rec.decision = False, None, None
                if rec.phase is None:
                    del executions[eid]
        if req.seq >= sender.floor:
            return False
        self.metrics.incr("lvi.stale_request")
        return True

    def _file(self, req, client: Optional[str]) -> _Execution:
        """``req``'s record, filed under its client's floor once it keeps
        something for a retry.  ``_file(...).owned = True``: this server
        owns the execution, a redelivery is a duplicate."""
        eid = req.execution_id
        rec = self._executions.get(eid) or self._executions.setdefault(eid, _Execution())
        if client is not None and not rec.kept():
            heapq.heappush(self._clients[client].filed, (req.seq, eid))
        return rec

    def _cache_reply(self, req, client: Optional[str], response: Any,
                     decision: bool = False) -> None:
        """Keep ``response`` on ``req``'s record for a retry of it (or,
        ``decision``, of its ShardDecision), ending the handler's
        ownership.  A handler that finishes after its client's floor has
        passed it keeps nothing: every later copy of its request is stale."""
        if client is not None and req.seq < self._clients[client].floor:
            return
        rec = self._file(req, client)
        if decision:
            rec.decision = response
        else:
            rec.owned, rec.reply = False, response

    def _arm(self, eid: str, phase: str, delay: float, callback, *args) -> None:
        """Put ``eid`` in ``phase``, its record holding the timer that runs
        ``callback(eid, *args)`` after ``delay``."""
        rec = self._executions.get(eid) or self._executions.setdefault(eid, _Execution())
        rec.phase = phase
        rec.timer = self.sim.schedule(delay, callback, eid, *args)

    def _settle(self, eid: str) -> None:
        """The one exit of ``eid``'s settlement role: cancel its timer,
        release the locks it holds, drop its dirty-set entry on this
        shard, and drop its record unless it keeps something for a
        retry."""
        if self.detector is not None:
            self.detector.settle(eid, self.shard)
        rec = self._executions.get(eid)
        if rec is not None:
            if rec.timer is not None:
                rec.timer.cancel()
            rec.phase = rec.timer = None
            if not rec.kept():
                del self._executions[eid]
        if self.locks.held_by(eid):
            self._release(eid)

    def _lock_and_validate(self, req, bounded: bool, **span_tags) -> Generator:
        """(4)-(5): take the request's locks, then validate under them.
        Returns ``(authoritative, stale)`` — ``(None, None)`` when a
        ``bounded`` acquisition timed out, with nothing held."""
        eid = req.execution_id
        obs = self.sim.obs
        all_keys = list(dict.fromkeys(list(req.read_keys) + list(req.write_keys)))
        # Locks are taken sorted lexicographically (deadlock freedom).
        lock_started = self.sim.now
        acquire = self.locks.acquire_all(eid, (*req.read_keys, _DIRECT_BARRIER), req.write_keys)
        if not bounded:
            yield from acquire
        elif not (yield from self._acquire_bounded(eid, acquire)):
            return None, None
        if obs.enabled:
            obs.span_at(
                "server.lock_acquire", lock_started, self.sim.now,
                kind="server", locks=len(all_keys), **span_tags,
            )
        if self.config.replicated:
            yield from self._persist_locks_via_raft(eid, all_keys)
            yield self.sim.timeout(REPLICATED_IDEM_MS)
        return (yield from self._validate(req, all_keys, **span_tags))

    def _acquire_bounded(self, eid: str, acquire: Generator) -> Generator:
        """Run a lock acquisition under the prepare timeout; returns
        whether the locks were granted.  A timed-out acquisition is
        cancelled cleanly (granted locks released, queued waiters purged)
        so it cannot wedge the shard's lock table."""
        proc = self.sim.spawn(acquire, name=f"locks({eid})")
        first = yield self.sim.any_of(
            [proc.done_event, self.sim.timeout(PREPARE_LOCK_TIMEOUT_MS)]
        )
        if proc.done_event in first:
            return True
        proc.kill()
        self.locks.cancel(eid)
        return False

    def _validate(self, req, keys: List[Key], **span_tags) -> Generator:
        """(5) Validate: one storage round trip fetches every version.
        Returns the authoritative versions of ``keys`` and the stale reads."""
        obs = self.sim.obs
        validate_started = self.sim.now
        yield self.sim.timeout(SERVER_STORAGE_RTT_MS)
        authoritative = self.store.batch_versions(keys)
        stale = [
            k for k in req.read_keys if authoritative.get(k, 0) != req.versions.get(k, -1)
        ]
        if obs.enabled:
            obs.span_at(
                "server.validate", validate_started, self.sim.now,
                kind="server", stale=len(stale), ok=not stale, **span_tags,
            )
        self.metrics.incr("validation.failure" if stale else "validation.success")
        return authoritative, stale

    def _yes_vote(self, req, authoritative: Dict[Key, int]) -> LVIResponse:
        """Validation succeeded: confirm the versions read, and promise the
        versions the writes WILL have once applied."""
        return LVIResponse(
            execution_id=req.execution_id,
            ok=True,
            validated_versions={k: authoritative[k] for k in req.read_keys},
            new_versions={k: authoritative.get(k, 0) + 1 for k in req.write_keys},
        )

    def _write_intent(self, eid: str, function_id: str, span_tags: dict,
                      **intent_fields) -> Generator:
        """(6a) Durably record a write intent (one storage round trip).
        The trace id rides along, so a settlement by a recovered replacement
        server is attributed to the *original* invocation end-to-end."""
        obs = self.sim.obs
        intent_started = self.sim.now
        yield self.sim.timeout(SERVER_STORAGE_RTT_MS)
        ctx = self.sim.trace_context
        self.intents.create(
            eid, function_id, now=self.sim.now,
            trace_id=ctx.trace_id if ctx is not None else 0, **intent_fields,
        )
        if obs.enabled:
            obs.span_at(
                "server.intent_write", intent_started, self.sim.now,
                kind="server", **span_tags,
            )

    def _run_near_storage(self, req, span_name: str, repair=None, client=None,
                          constrain_to=None, **span_tags) -> Generator:
        """A near-storage execution whose effects exist only once its
        computation ends: charge the service time, then run ``f`` on the
        primary (whatever locks protect it are the caller's to hold across
        both)."""
        yield from self._charge_service(req, span_name, **span_tags)
        return self._execute_near_storage(
            req, PrimaryEnv(self.store), repair, client, constrain_to
        )

    def _charge_service(self, req, span_name: str, **span_tags) -> Generator:
        """Charge ``req``'s function its service time; the interval is the
        span a near-storage execution shows up as."""
        obs = self.sim.obs
        record = self.registry.get(req.function_id)
        exec_started = self.sim.now
        yield self.sim.timeout(record.service_ms(self._jitter, self.config.service_jitter_sigma))
        if obs.enabled:
            obs.span_at(
                span_name, exec_started, self.sim.now,
                kind="exec", function=req.function_id, **span_tags,
            )

    def _execute_near_storage(self, req, env: PrimaryEnv, repair=None, client=None,
                              constrain_to=None) -> LVIResponse:
        """Run ``req``'s function on ``env`` at this instant and build the
        one ``ok=False`` reply: result and versions, plus — given
        ``repair``, the stale reads — the repair ``_collect_fresh`` builds
        for ``client`` over those keys and every key written, so the
        near-user cache can repair itself (§3.2 step 8b).  An access
        outside ``constrain_to`` (instantiated key constraints) — or any
        write at all — means the static summary that let the request skip
        locks was unsound, which is a hard protocol failure."""
        violations: List[Tuple[str, str, str]] = []
        trace = VM(
            env, gas_limit=self.config.gas_limit,
            external=self._external_for(req.execution_id),
            access_hook=(
                constraint_checker(constrain_to, violations)
                if constrain_to is not None else None
            ),
        ).execute(self.registry.get(req.function_id).f, list(req.args))
        if violations:
            self.metrics.incr("analysis.unsound")
            raise ProtocolError(
                f"lock-skipped {req.function_id} escaped its static key "
                f"constraints: {violations[:3]}"
            )
        return LVIResponse(
            execution_id=req.execution_id,
            ok=False,
            result=trace.result,
            fresh=(
                self._collect_fresh(repair + list(env.write_versions), client)
                if repair is not None else None
            ),
            backup_read_versions=dict(env.read_versions),
            backup_write_versions=dict(env.write_versions),
        )

    # -- the LVI request path -------------------------------------------------

    def _handle_lvi(self, req: LVIRequest, client: Optional[str] = None) -> Generator:
        eid = req.execution_id
        reply = self._dedup(req, client, durable=True)
        if reply is not _FRESH:
            return reply
        probe_hit = (
            req.skip_locks
            and self.detector is not None
            and self.detector.probe(self.shard, req.read_facts)
        )
        if self.primary is not None and (probe_hit or not req.skip_locks):
            # A replica only ever serves lock-skipped reads, and on an
            # arrival-time probe hit it cannot fall back to the locked path
            # (its lock table is not the shard's): the primary serves it.
            return (yield from self._forward(req, client))
        self._file(req, client).owned = True
        if req.write_keys and self.detector is not None:
            self.detector.enroll(self.shard, eid, self._writer_facts(req))
        if req.skip_locks and not probe_hit:
            response = yield from self._serve_lock_free(req, client)
            self._cache_reply(req, client, response)
            return response
        if req.skip_locks:
            # Probe hit at the primary: serve through the full locked path.
            self.metrics.incr("router.skip_fallback")

        authoritative, stale = yield from self._lock_and_validate(req, bounded=False)
        if not stale:
            response = self._yes_vote(req, authoritative)
            if req.write_keys:
                # (6a) Write intent + timer; locks stay held until the
                # followup (or re-execution) applies the writes.  The args
                # ride along in the intent so re-execution works even from
                # a recovered replacement server.
                yield from self._write_intent(eid, req.function_id, {}, args=req.args)
                # The timer callback inherits this handler's trace context
                # (the kernel snapshots it at schedule time), so a timer-
                # driven re-execution lands in the invocation's trace.
                self._arm(eid, _INTENT, self.config.followup_timeout_ms, self._on_intent_timer)
                # Waiters that arrived while the intent was being written
                # saw no intent to fire; do it for them.
                if any(k != _DIRECT_BARRIER for k in self.locks.contended_keys(eid)):
                    self._expedite(eid)
            else:
                # Read-only execution: nothing to wait for.
                self._release(eid)
            self._cache_reply(req, client, response)
            return response

        # (6b) Validation failed: run the backup copy under the held locks.
        if not self.idem.claim(eid, IdempotencyTable.NEAR_STORAGE):
            # An earlier incarnation (or another replica) already ran this
            # execution near storage; running it again would double-apply
            # its writes.  The claim is in primary storage, so the check
            # survives server crashes — §5.6's at-most-once-per-site rule,
            # enforced unconditionally now that crash/restart is routine.
            self.metrics.incr("lvi.duplicate_claim")
            self._settle(eid)
            return NO_REPLY
        # (7b) Release locks, then ship the result plus cache repairs.  A
        # request predicted to write nothing has taken its last lock, so its
        # reads may linearize right here: the validation fetch is the
        # snapshot, the locks go now, and only the reply waits out the
        # computation.
        response = None if req.write_keys else self._snapshot_backup(req, stale, client)
        if response is not None:
            self._release(eid)
            yield from self._charge_service(req, "server.backup_exec", snapshot=True)
        else:
            response = yield from self._run_near_storage(
                req, "server.backup_exec", repair=stale, client=client
            )
            self._settle(eid)
        self._cache_reply(req, client, response)
        return response

    def _forward(self, req: LVIRequest, client: Optional[str]) -> Generator:
        """A replica hands ``req`` to its shard primary over the intra-DC
        hop: locks on, the same execution id, filed under ``client``.  The
        primary's answer is the replica's; a primary that stays silent
        (crashed, or the forward was lost) leaves the replica silent, and
        a primary's shed raises here, reaching the client with its
        retry-after — both just as if the replica had failed the call."""
        self.metrics.incr("router.replica_bounce")
        locked = LVIRequest(
            req.execution_id, req.function_id, req.args, req.read_keys,
            req.write_keys, req.versions, seq=req.seq, floor=req.floor,
        )
        try:
            return (yield from self.net.call(
                self.name, self.primary, Forwarded(locked, client),
                timeout=self.config.rpc_timeout_ms,
            ))
        except RpcTimeout:
            return NO_REPLY

    def _writer_facts(self, req: LVIRequest) -> Tuple[KeyFact, ...]:
        """Instantiated write constraints to enroll in the dirty set.

        Prefers the static predicate's write facts (argument-sensitive,
        possibly a prefix/interval wider than this invocation's concrete
        writes — wider is sound, it only costs probe precision); falls
        back to exact facts over the predicted write set, which f^rw's
        own sanitized soundness makes a correct bound.
        """
        summary = self.registry.get(req.function_id).analyzed.summary
        predicate = summary.predicate if summary is not None else None
        if predicate is not None:
            facts = predicate.instantiate(list(req.args))
            if facts.writes and facts.covers_writes(req.write_keys):
                return facts.writes
        return tuple(KeyFact(t, "exact", k) for (t, k) in req.write_keys)

    def _snapshot_backup(self, req: LVIRequest, stale: List[Key],
                         client: Optional[str]) -> Optional[LVIResponse]:
        """Run a backup execution predicted to be read-only at the
        validation instant, on a read-only view of the read keys it locked.
        ``None`` when ``f`` wrote, or read outside the locked set: the
        prediction came from a stale cache, and the trial is thrown away
        (it touched nothing; external calls dedup on the execution id)."""
        try:
            response = self._execute_near_storage(
                req, SnapshotEnv(self.store, req.read_keys), repair=stale, client=client
            )
        except SnapshotEscape:
            self.metrics.incr("backup.escaped")
            return None
        self.metrics.incr("backup.snapshot")
        return response

    def _serve_lock_free(self, req: LVIRequest, client: Optional[str]) -> Generator:
        """Validate a detector-cleared read-only request without locks.

        Sound because (a) the arrival-time dirty probe proved no in-flight
        writer can touch a key this request's constraints admit, and
        (b) ``batch_versions`` reads every version in one synchronous
        virtual instant, so the observed cut is consistent even though no
        read locks are held.  The backup path (stale cache) re-executes
        under the request's *instantiated key constraints*.
        """
        self.metrics.incr("router.lock_skipped")
        authoritative, stale = yield from self._validate(req, list(req.read_keys), lock_free=True)
        if not stale:
            return self._yes_vote(req, authoritative)
        return (yield from self._run_near_storage(
            req, "server.backup_exec", repair=stale, client=client,
            constrain_to=req.read_facts, lock_free=True,
        ))

    def _persist_locks_via_raft(self, execution_id: str, keys: List[Key]) -> Generator:
        """§5.6: every lock is a serial Raft commit (~2.3 ms each) — or,
        with the batching optimization the paper suggests, one commit for
        the whole lock set."""
        if self.config.replicated_batch_locks:
            pairs = tuple(
                (f"lock:{t}/{k}", execution_id) for (t, k) in sorted(keys)
            )
            yield from self.raft.submit(("mput", pairs))
            return
        for table, key in sorted(keys):
            yield from self.raft.submit(("put", f"lock:{table}/{key}", execution_id))

    def _new_lock_table(self) -> LockManager:
        """An empty lock table (at boot, and again after a crash) that
        reports contention to this server."""
        return LockManager(
            self.sim, metrics=self.metrics, name=self.name,
            on_contention=self._on_lock_contention,
        )

    def _release(self, execution_id: str) -> None:
        released = self.locks.release_all(execution_id)
        self.metrics.incr("locks.released", released)
        if self.config.replicated:
            # Lock-record deletion replicates off the critical path; its
            # first step submits here, and the commit resumes it in place.
            self.sim.spawn_in_dispatch(
                self.raft.submit(("put", f"unlock:{execution_id}", True)),
                name=f"unlock({execution_id})",
            )

    # -- the cross-shard prepare / decision path ------------------------------
    #
    # Commit rule (docs/TOPOLOGY.md): no shard settles a write intent until
    # *every* shard of the transaction has prepared.  The runtime scatters
    # ShardPrepare messages; each shard validates its slice, takes its
    # locks, and durably records an ``apply`` intent carrying the writes.
    # On a unanimous vote the runtime first records COMMIT at the
    # coordinating shard (which then applies its own slice), then fans the
    # decision out.  Presumed abort: a participant whose decision message
    # never arrives queries the coordinator at lease expiry, and the query
    # itself forces an abort tombstone if no COMMIT record exists — the
    # tombstone and the COMMIT record race through a conditional put, so
    # exactly one global outcome ever wins.

    def _handle_prepare(self, req: ShardPrepare, client: Optional[str] = None) -> Generator:
        eid = req.execution_id
        reply = self._dedup(req, client, durable=True)
        if reply is not _FRESH:
            return reply
        self._file(req, client).owned = True
        if (req.write_keys or req.writes) and self.detector is not None:
            written = (*req.write_keys, *((t, k) for (t, k, _v) in req.writes))
            self.detector.enroll(self.shard, eid, tuple(
                KeyFact(t, "exact", k) for (t, k) in dict.fromkeys(written)
            ))

        # Locks are still taken in lexicographic order *within* the shard,
        # but no order exists across shards, so the wait is bounded: a
        # timeout votes no ("busy") and the runtime restarts the
        # invocation with backoff, breaking any distributed deadlock.
        authoritative, stale = yield from self._lock_and_validate(
            req, bounded=True, shard=req.shard
        )
        if authoritative is None:
            self.metrics.incr("prepare.lock_timeout")
            response = LVIResponse(execution_id=eid, ok=False)
            self._settle(eid)
        elif stale:
            self.metrics.incr("prepare.stale")
            response = LVIResponse(
                execution_id=eid, ok=False, fresh=self._collect_fresh(stale, client)
            )
            self._settle(eid)
        else:
            if req.write_keys:
                # Durable yes-vote: the intent carries this shard's resolved
                # writes, so the decision (or a recovered replacement) can
                # apply them without re-executing the function — one shard
                # cannot re-execute anyway, it holds only a slice of the
                # read set.
                yield from self._write_intent(
                    eid, req.function_id, {"shard": req.shard}, kind=KIND_APPLY,
                    writes=tuple(req.writes), coordinator=req.coordinator,
                )
            # Read-only or not, the slice keeps its locks until the
            # decision.  The lease: if none arrives — lost messages, dead
            # coordinator-side runtime — the shard settles by consulting
            # the coordinating shard's decision record, not by guessing.
            self._arm(
                eid, _PREPARED, self.config.followup_timeout_ms,
                self._on_prepare_lease, req.coordinator,
            )
            response = self._yes_vote(req, authoritative)
        self._cache_reply(req, client, response)
        return response

    def _handle_decision(self, req: ShardDecision, client: Optional[str] = None) -> Generator:
        if self._stale(req, client):
            return NO_REPLY
        rec = self._executions.get(req.execution_id)
        if rec is not None and rec.decision is not None:
            return rec.decision
        status = yield from self._apply_decision(
            req.execution_id, "commit" if req.commit else "abort", record=req.record_decision
        )
        self._cache_reply(req, client, status, decision=True)
        return status

    def _handle_query(self, req: ShardDecisionQuery) -> Generator:
        """Coordinator-side outcome lookup: read the decision record,
        forcing an abort tombstone into existence if none is there yet
        (see ShardDecisionQuery's docstring for why this is safe)."""
        yield self.sim.timeout(SERVER_STORAGE_RTT_MS)
        outcome = self._record_decision(req.execution_id, "abort")
        self.metrics.incr("xshard.decision_query")
        return outcome

    def _apply_decision(self, eid: str, want: str, record: bool) -> Generator:
        """Settle this shard's slice of a cross-shard transaction.

        ``record`` marks the coordinating shard: it durably records the
        outcome first, and a COMMIT that loses the conditional put to an
        impatient participant's abort tombstone downgrades to abort —
        nothing has been applied anywhere at that point, so the downgrade
        is a clean global abort.
        """
        outcome = want
        if record:
            yield self.sim.timeout(SERVER_STORAGE_RTT_MS)
            outcome = self._record_decision(eid, want)
            if want == "commit" and outcome != "commit":
                self.metrics.incr("xshard.commit_lost_race")
        if outcome != "commit":
            self._abort_prepared(eid)
            return "aborted"
        intent = self.intents.get(eid)
        if intent is not None and intent.kind == KIND_APPLY:
            yield self.sim.timeout(SERVER_STORAGE_RTT_MS)
            applied = self._apply_intent_writes(eid, intent)
            return "applied" if applied else "discarded"
        # Read-only slice (or a duplicate decision): release and go.
        self._settle(eid)
        if self.idem.claimed(eid, IdempotencyTable.NEAR_STORAGE):
            return "applied"
        return "released"

    def _record_decision(self, eid: str, want: str) -> str:
        """Read-or-write the transaction outcome; first writer wins."""
        item = self.store.get_or_none(DECISION_TABLE, eid)
        if item is not None:
            return item.value["status"]
        try:
            self.store.conditional_put(
                DECISION_TABLE, eid, {"status": want}, expected_version=0
            )
        except ConditionFailed:
            return self.store.get(DECISION_TABLE, eid).value["status"]
        return want

    def _apply_intent_writes(self, eid: str, intent) -> bool:
        """Apply an ``apply``-kind intent's writes exactly once (the CAS
        on the intent is the at-most-once gate, as in the followup path)."""
        if not self.intents.try_complete(eid):
            return self.idem.claimed(eid, IdempotencyTable.NEAR_STORAGE)
        self.store.apply_writes([WriteOp(t, k, v) for (t, k, v) in intent.writes])
        self.idem.claim(eid, IdempotencyTable.NEAR_STORAGE)
        self.intents.remove(eid)
        self._settle(eid)
        self.metrics.incr("xshard.applied")
        return True

    def _abort_prepared(self, eid: str) -> None:
        """Drop a prepared slice: intent removed un-applied, locks freed."""
        # Claim the settlement right via the same CAS the apply path
        # uses, so a racing lease-apply and this abort cannot both win.
        if self.intents.get(eid) is not None and self.intents.try_complete(eid):
            self.intents.remove(eid)
        self._settle(eid)
        self.metrics.incr("xshard.aborted")

    def _live(self, eid: str, *phases: str) -> Optional[_Execution]:
        """``eid``'s record if it is in one of ``phases``, else None."""
        rec = self._executions.get(eid)
        return rec if rec is not None and rec.phase in phases else None

    def _on_prepare_lease(self, eid: str, coordinator: str) -> None:
        if self._live(eid, _PREPARED) is not None:  # else settled: cancelled
            self.sim.spawn(
                self._guarded(self._settle_via_coordinator(eid, coordinator)),
                name=f"xshard-settle({eid})",
            )

    def _settle_via_coordinator(self, eid: str, coordinator: str) -> Generator:
        """Lease expiry / recovery: learn the transaction's outcome from
        the coordinating shard's decision record and settle accordingly.
        Unreachable coordinator → re-arm and try again next lease."""
        if self._live(eid, _PREPARED) is None:
            return  # the decision settled the slice since the lease fired
        self.metrics.incr("xshard.lease_query")
        if coordinator == self.name:
            yield self.sim.timeout(SERVER_STORAGE_RTT_MS)
            outcome = self._record_decision(eid, "abort")
        else:
            try:
                outcome = yield from self.net.call(
                    self.name, coordinator, ShardDecisionQuery(eid),
                    timeout=self.config.rpc_timeout_ms,
                )
            except RpcTimeout:
                if self._live(eid, _PREPARED) is not None:
                    self._arm(
                        eid, _PREPARED, self.config.followup_timeout_ms,
                        self._on_prepare_lease, coordinator,
                    )
                return
        if outcome != "commit":
            self.metrics.incr("xshard.lease_abort")
        yield from self._apply_decision(eid, outcome, record=False)

    # -- the followup path ---------------------------------------------------------

    def _handle_followup(self, followup: WriteFollowup) -> Generator:
        """(9)-(10): apply speculative writes, complete intent, unlock.

        The intent CAS and the write application happen in one atomic
        step *after* the storage round trip has been charged: a crash can
        then only land before the commit point (intent stays PENDING,
        recovery re-executes) or after it (everything durable) — never in
        between, which would strand a completed-but-unapplied intent.
        """
        intent = self.intents.get(followup.execution_id)
        if intent is None or intent.status != IntentStatus.PENDING:
            # Late or duplicate: the timer's re-execution won the race and
            # the writes are already durable.  Discard (§3.6 case 3).
            self.metrics.incr("followup.discarded")
            return "discarded"
        apply_started = self.sim.now
        yield self.sim.timeout(SERVER_STORAGE_RTT_MS)
        if not self.intents.try_complete(followup.execution_id):
            self.metrics.incr("followup.discarded")
            return "discarded"
        self.store.apply_writes([WriteOp(t, k, v) for (t, k, v) in followup.writes])
        # Durable settlement marker: if this server crashes and the client's
        # original request is redelivered to the replacement, the claim is
        # what stops a second validation from double-applying the writes.
        self.idem.claim(followup.execution_id, IdempotencyTable.NEAR_STORAGE)
        self.intents.remove(followup.execution_id)
        self._settle(followup.execution_id)
        self.metrics.incr("followup.applied")
        obs = self.sim.obs
        if obs.enabled:
            obs.span_at(
                "server.followup_apply", apply_started, self.sim.now,
                kind="server", writes=len(followup.writes),
            )
        return "applied"

    # -- the re-execution path --------------------------------------------------------

    def _on_lock_contention(self, key: Key, holders: List[str]) -> None:
        """A request just queued on ``key`` behind ``holders``: settle any
        of them that is a pending intent.  Never for the direct barrier —
        every validated execution holds it, so one direct execution would
        stampede every pending intent into re-execution."""
        if key != _DIRECT_BARRIER:
            for owner in holders:
                self._expedite(owner)

    def _expedite(self, execution_id: str) -> None:
        """Fire the intent timer of a pending LVI intent now, once: its
        write locks protect writes that already exist (in the followup, and
        in the intent's own arguments), so a request blocked on them waits
        for one execution instead of the followup's WAN round trip.  The
        intent CAS arbitrates the race with the followup; the timer stays
        armed until the intent settles."""
        rec = self._live(execution_id, _INTENT)
        if rec is not None:
            rec.phase = _EXPEDITED
            self.metrics.incr("intent.expedited")
            self._on_intent_timer(execution_id, trigger="contention")

    def _on_intent_timer(self, execution_id: str, trigger: str = "timer") -> None:
        """Start the re-execution inside the caller's queue entry: the timer's
        own entry, or the handler that just queued behind the intent — each
        is the wake-up, and nobody joins the process."""
        if self._live(execution_id, _INTENT, _EXPEDITED) is not None:  # else cancelled
            self.sim.spawn_in_dispatch(
                self._guarded(self._reexecute(execution_id, trigger)),
                name=f"reexec({execution_id})",
            )

    def _reexecute(self, execution_id: str, trigger: str) -> Generator:
        """Deterministic re-execution (§3.4): the followup never arrived,
        or (``trigger="contention"``) somebody is waiting for it.

        The replay inputs come from the intent record in primary storage,
        so this path also works on a replacement server recovering after
        the original crashed (see :meth:`recover_pending`).  Re-execution
        spans carry the *original* invocation's trace id: the timer path
        inherits it through the kernel; every other trigger runs in
        somebody else's context (the waiter's) or in none (recovery) and
        resurrects it from the intent record, so re-executions stay
        attributable end-to-end.
        """
        intent = self.intents.get(execution_id)
        if intent is None or intent.status != IntentStatus.PENDING:
            return
        obs = self.sim.obs
        span = None
        if obs.enabled:
            parent = self.sim.trace_context
            # Replacement server: the live context died with the crash.
            recovered = parent is None and bool(intent.trace_id)
            if recovered or trigger != "timer":
                # Re-join the invocation's trace via the persisted id.
                parent = obs.resume_context(intent.trace_id)
            span = obs.start(
                "server.reexec", kind="server", parent=parent,
                execution_id=execution_id, function=intent.function_id,
                recovered=recovered, trigger=trigger,
            )
        record = self.registry.get(intent.function_id)
        env = PrimaryEnv(self.store)
        # Charge the execution and the conditional-apply round trip first;
        # the commit point below (intent CAS + execute + apply) is a single
        # synchronous step, so a crash either precedes it (intent stays
        # PENDING and recovery retries) or follows it (writes durable).
        yield self.sim.timeout(record.service_ms(self._jitter, self.config.service_jitter_sigma))
        yield self.sim.timeout(SERVER_STORAGE_RTT_MS)
        if not self.intents.try_complete(execution_id):
            if span is not None:
                span.finish(self.sim.now, status="lost_race")
            return  # lost the race to a very late followup
        if not self.idem.claim(execution_id, IdempotencyTable.NEAR_STORAGE):
            if span is not None:
                span.finish(self.sim.now, status="already_claimed")
            self._settle(execution_id)
            return
        self.metrics.incr("reexecution.count")
        VM(
            env, gas_limit=self.config.gas_limit,
            external=self._external_for(execution_id),
        ).execute(record.f, list(intent.args))
        if span is not None:
            span.finish(self.sim.now)
        self.intents.remove(execution_id)
        self._settle(execution_id)  # a recovering server holds no locks for it

    def recover_pending(self) -> Generator:
        """Crash recovery: settle every intent left PENDING in primary
        storage by a failed predecessor (§3.4 durability + §5.6).  Run
        before serving traffic on a replacement server; a generator
        returning the number of intents recovered."""
        pending = self.intents.pending()
        for intent in pending:
            if intent.kind == KIND_APPLY:
                # A cross-shard slice's outcome lives at the coordinating
                # shard.  Re-take its write locks on the fresh table (instant:
                # recovered slices are disjoint), or a reader could see the
                # pre-commit value before the lease settles the slice; the
                # lease is deferred so the endpoint is up before the query.
                # Its record owns the lease but not the id: a redelivered
                # prepare still answers through the durable intent.
                keys = tuple(dict.fromkeys((t, k) for (t, k, _v) in intent.writes))
                if keys and not self.locks.held_by(intent.execution_id):
                    yield from self.locks.acquire_all(intent.execution_id, (), keys)
                self._arm(
                    intent.execution_id, _PREPARED, 1.0,
                    self._on_prepare_lease, intent.coordinator or self.name,
                )
                continue
            yield from self._guarded(self._reexecute(intent.execution_id, "recovery"))
        self.metrics.incr("recovery.intents", len(pending))
        return len(pending)

    # -- crash / restart lifecycle (driven by the fault scheduler) -----------

    def crash(self) -> None:
        """Kill the server process: the endpoint disappears (in-flight
        messages to it are dropped), its in-memory state — the lock table,
        every execution record with its timer, the clients' completion
        floors — is lost, and handlers still in flight are fenced off
        before their next step.  Durable state (the primary store, intents,
        idempotency claims) survives, exactly as §3.4 assumes: recovery
        settles the intents, and ``_dedup``'s durable checks answer a
        redelivery after the restart."""
        if self._crashed:
            raise ProtocolError(f"server {self.name} is already crashed")
        self._crashed = True
        self._incarnation += 1
        self.net.unregister(self.name)
        for rec in self._executions.values():
            if rec.timer is not None:
                rec.timer.cancel()
        self._executions = {}
        self._clients = {}
        self.locks = self._new_lock_table()
        if self.detector is not None:
            # The executions that died with the process write nothing any
            # more; one whose intent is durably pending still writes, via
            # recovery, which settles its entry then.
            for eid in self.detector.dirty.executions(self.shard):
                intent = self.intents.get(eid)
                if intent is None or intent.status != IntentStatus.PENDING:
                    self.detector.settle(eid, self.shard)
        self._proc_free_at = 0.0
        self._admission_queue = 0
        self.metrics.incr("server.crashes")
        obs = self.sim.obs
        if obs.enabled:
            obs.event("server.crash", server=self.name)

    def restart(self) -> None:
        """Boot a replacement: recover every pending intent from primary
        storage *before* serving traffic again (the §3.4 replacement-server
        rule) — requests arriving mid-recovery are dropped and surface to
        clients as retries or a clean ``UnavailableError``."""
        if not self._crashed:
            raise ProtocolError(f"server {self.name} is not crashed")
        self._crashed = False
        self.metrics.incr("server.restarts")
        obs = self.sim.obs
        if obs.enabled:
            obs.event("server.restart", server=self.name)
        self.sim.spawn(self._restart_flow(), name=f"restart({self.name})")

    def _restart_flow(self) -> Generator:
        yield from self._guarded(self.recover_pending())
        if self._crashed:
            return  # crashed again mid-recovery; the next restart retries
        self.net.serve(self.name, self.region, self._handle)

    # -- direct execution (unanalyzable functions, §3.3) ---------------------------------

    def _handle_direct(self, req: DirectExecRequest, client: Optional[str] = None) -> Generator:
        eid = req.execution_id
        reply = self._dedup(req, client, durable=False)
        if reply is not _FRESH:
            return reply
        self._file(req, client).owned = True
        if not self.idem.claim(eid, IdempotencyTable.NEAR_STORAGE):
            # A previous incarnation already executed this id (and its
            # answer died with it).  Executing again would double-apply
            # the function's writes; stay silent instead.
            self.metrics.incr("lvi.duplicate_claim")
            return NO_REPLY
        if self.detector is not None:
            self.detector.enroll(self.shard, eid, _ANY_KEY)
        # Serialize against validated executions: the write-mode barrier
        # waits (FIFO) for every in-flight validation and pending
        # speculative intent to settle before the VM reads primary state.
        obs = self.sim.obs
        barrier_started = self.sim.now
        yield from self.locks.acquire_all(eid, (), (_DIRECT_BARRIER,))
        if obs.enabled and self.sim.now > barrier_started:
            obs.span_at(
                "server.direct_barrier", barrier_started, self.sim.now, kind="server",
            )
        response = yield from self._run_near_storage(req, "server.direct_exec")
        # Released here, not by _settle: the barrier has no Raft lock record.
        self.metrics.incr("locks.released", self.locks.release_all(eid))
        self._settle(eid)
        self.metrics.incr("direct.count")
        self._cache_reply(req, client, response)
        return response

    # -- helpers ----------------------------------------------------------------------

    def _external_for(self, execution_id: str):
        """The §3.5 service hook for a near-storage execution; keys are
        derived from the execution id, so backup/re-execution calls dedup
        against the speculative execution's calls."""
        if self.external_hub is None:
            return None
        return self.external_hub.caller_for(execution_id)

    def _collect_fresh(self, keys: List[Key], client: Optional[str]) -> Dict[Key, FreshItem]:
        """The repair an ``ok=False`` reply carries (§3.2 step 8b), built
        here and nowhere else: the authoritative item — or an absence — of
        every key in ``keys`` (the request's stale reads and the keys its
        execution wrote), and, for a reply to a near-user location
        (``client``: the endpoint its dedup state is filed under, a
        replica's forward included), of every application key this shard's
        store wrote since that location's last repair.  Without those extra
        items a cache hears of another location's write only by failing on
        that very key; its runtime installs them only over entries it
        already holds, and only when newer.  A lost reply loses them:
        validation still guards every read."""
        if client is not None:
            keys = [*keys, *self.store.changed_since_repair(client)]
        fresh: Dict[Key, FreshItem] = {}
        for table, key in dict.fromkeys(keys):
            item = self.store.get_or_none(table, key)
            if item is None:
                fresh[(table, key)] = FreshItem(value=None, version=0, absent=True)
            else:
                fresh[(table, key)] = FreshItem(value=item.value, version=item.version)
        return fresh
