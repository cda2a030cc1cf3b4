"""Overload robustness: server-side admission control, the AIMD in-flight
limiter, the direct-path barrier lock, the overload chaos plans with the
metastability verdict, and the goodput plateau-vs-collapse sweep."""

import pytest

from repro.consistency import HistoryRecorder, check_strict_serializability
from repro.core import RadicalConfig
from repro.core.messages import DirectExecRequest, LVIRequest, WriteFollowup
from repro.core.runtime import PATH_DIRECT, PATH_SPECULATIVE
from repro.core.server import _DIRECT_BARRIER
from repro.errors import FaultConfigError, OverloadedError, UnavailableError
from repro.faults import (
    AdaptiveLimiter,
    SlowServerWindow,
    SurgeWindow,
    builtin_plans,
    run_chaos_case,
)
from repro.sim import Metrics, Region, Simulator

from conftest import build_counter_deployment

KEY = ("counters", "c:x")


def overload_test_config(**overrides) -> RadicalConfig:
    base = dict(
        service_jitter_sigma=0.0,
        server_proc_ms=5.0,
        admission_queue_depth=4,
        admission_sojourn_ms=50.0,
        retry_max_attempts=2,
        retry_base_backoff_ms=1.0,
        retry_jitter_frac=0.0,
    )
    base.update(overrides)
    return RadicalConfig(**base)


def lvi_read(eid: str) -> LVIRequest:
    return LVIRequest(
        execution_id=eid, function_id="t.read", args=("x",),
        read_keys=(KEY,), write_keys=(), versions={KEY: 1},
        origin_region=Region.JP,
    )


class TestAdmissionControl:
    def test_backlogged_server_sheds_with_retry_after_hint(self):
        dep = build_counter_deployment(seed=1, config=overload_test_config())
        sim, net, server = dep.sim, dep.net, dep.server
        rt = dep.runtimes[Region.JP]
        caught = []

        def flood():
            server._proc_free_at = sim.now + 500.0  # CPU backlog >> sojourn
            try:
                yield from net.call(rt.name, server.name, lvi_read("shed-1"),
                                    timeout=10_000.0)
            except OverloadedError as exc:
                caught.append(exc)

        sim.spawn(flood())
        sim.run(until=1_000.0)
        assert len(caught) == 1
        # The hint is the server's backlog plus one service time — enough
        # that an honoring client lands after the queue drained.
        assert caught[0].retry_after_ms > 300.0
        assert dep.metrics.counter("admission.shed") == 1

    def test_shed_leaves_no_state_and_retry_is_readmitted(self):
        dep = build_counter_deployment(seed=1, config=overload_test_config())
        sim, net, server = dep.sim, dep.net, dep.server
        rt = dep.runtimes[Region.JP]
        outcomes = []

        def scenario():
            server._proc_free_at = sim.now + 500.0
            try:
                yield from net.call(rt.name, server.name, lvi_read("re-1"),
                                    timeout=10_000.0)
            except OverloadedError:
                outcomes.append("shed")
            yield sim.timeout(600.0)  # backlog drained
            resp = yield from net.call(rt.name, server.name, lvi_read("re-1"),
                                       timeout=10_000.0)
            outcomes.append(resp.ok)

        sim.spawn(scenario())
        sim.run(until=2_000.0)
        # The same execution id is admitted cleanly the second time: the
        # shed left no dedup entry, no locks, no intent behind.
        assert outcomes == ["shed", True]
        assert dep.metrics.counter("lvi.duplicate_request") == 0
        assert server.locks.held_owners() == []

    def test_depth_cap_bounds_queue_and_sheds_excess(self):
        dep = build_counter_deployment(
            seed=1, config=overload_test_config(admission_sojourn_ms=0.0)
        )
        sim, net, server = dep.sim, dep.net, dep.server
        rt = dep.runtimes[Region.JP]
        ok, shed = [], []

        def one(i):
            try:
                resp = yield from net.call(rt.name, server.name,
                                           lvi_read(f"flood-{i}"),
                                           timeout=60_000.0)
                ok.append(resp.ok)
            except OverloadedError:
                shed.append(i)

        for i in range(30):
            sim.spawn(one(i))
        sim.run(until=5_000.0)
        assert len(ok) + len(shed) == 30
        assert shed, "a 30-deep instantaneous burst must overflow depth 4"
        assert all(ok)
        assert server.max_admission_queue <= 4
        assert server.locks.held_owners() == []


class TestRuntimeBackpressure:
    def test_runtime_honors_retry_after_and_recovers(self):
        dep = build_counter_deployment(seed=2, config=overload_test_config())
        sim, server = dep.sim, dep.server
        rt = dep.runtimes[Region.JP]
        done = []

        def scenario():
            server._proc_free_at = sim.now + 300.0
            started = sim.now
            outcome = yield sim.spawn(rt.invoke("t.read", ["x"]))
            done.append((outcome, sim.now - started))

        sim.spawn(scenario())
        sim.run(until=5_000.0)
        assert len(done) == 1
        outcome, elapsed = done[0]
        assert outcome.result == 0
        # One shed attempt, then a backoff of at least the server's
        # retry-after hint (~300 ms backlog), then a clean admission.
        assert dep.metrics.counter("rpc.overloaded") == 1
        assert dep.metrics.counter("rpc.retry") == 1
        assert elapsed >= 300.0


class TestAdaptiveLimiter:
    def test_validation(self):
        sim = Simulator()
        with pytest.raises(FaultConfigError):
            AdaptiveLimiter(sim, max_inflight=0)
        with pytest.raises(FaultConfigError):
            AdaptiveLimiter(sim, max_inflight=4, decrease_cooldown_ms=-1.0)
        with pytest.raises(FaultConfigError):
            AdaptiveLimiter(sim, max_inflight=4, max_queue=-1)

    def test_aimd_window_halves_grows_and_floors(self):
        sim = Simulator()
        lim = AdaptiveLimiter(sim, max_inflight=8, decrease_cooldown_ms=100.0)
        assert lim.window == 8
        lim.on_overload()
        assert lim.window == 4
        lim.on_overload()  # inside the cooldown: one burst counts once
        assert lim.window == 4
        sim.run(until=150.0)
        lim.on_overload()
        assert lim.window == 2
        lim.on_success()
        lim.on_success()  # one full window of successes -> +1 slot
        assert lim.window == 3
        for _ in range(10):
            sim.run(until=sim.now + 200.0)
            lim.on_overload()
        assert lim.window == 1  # floor: the half-open probe always fits

    def test_bounded_wait_queue_rejects_immediately(self):
        sim = Simulator()
        metrics = Metrics()
        lim = AdaptiveLimiter(sim, max_inflight=1, max_queue=1, metrics=metrics)
        order = []

        def holder():
            ok = yield from lim.acquire(deadline_at=10_000.0)
            order.append(("holder", ok, sim.now))
            yield sim.timeout(50.0)
            lim.release()

        def waiter(tag):
            ok = yield from lim.acquire(deadline_at=10_000.0)
            order.append((tag, ok, sim.now))
            if ok:
                lim.release()

        sim.spawn(holder())
        sim.spawn(waiter("queued"))
        sim.spawn(waiter("rejected"))
        sim.run(until=1_000.0)
        assert ("holder", True, 0.0) in order
        # Second waiter found the (bounded) queue full: rejected at once,
        # not enqueued behind an unbounded backlog.
        assert ("rejected", False, 0.0) in order
        assert ("queued", True, 50.0) in order
        assert metrics.counter("limiter.reject") == 1

    def test_deadline_expires_while_queued(self):
        sim = Simulator()
        lim = AdaptiveLimiter(sim, max_inflight=1, max_queue=4)
        result = []

        def holder():
            yield from lim.acquire(deadline_at=10_000.0)
            yield sim.timeout(100.0)
            lim.release()

        def waiter():
            ok = yield from lim.acquire(deadline_at=30.0)
            result.append((ok, sim.now))

        sim.spawn(holder())
        sim.spawn(waiter())
        sim.run(until=1_000.0)
        assert result == [(False, 30.0)]


class TestDirectBarrier:
    def test_direct_execution_waits_out_pending_intent(self):
        """Regression for the direct-path race: a direct execution used to
        run against primary state with no locks, so it could read the same
        version a pending speculative intent was about to overwrite and
        mint a duplicate write of that version (found by the gray-limp
        chaos plan).  The write-mode barrier must hold it until the
        intent's followup lands."""
        dep = build_counter_deployment(seed=2, followup_timeout=5_000.0)
        sim, net, server = dep.sim, dep.net, dep.server
        rt = dep.runtimes[Region.JP]

        def speculative():
            req = LVIRequest(
                execution_id="spec-1", function_id="t.bump", args=("x",),
                read_keys=(KEY,), write_keys=(KEY,), versions={KEY: 1},
                origin_region=Region.JP,
            )
            resp = yield from net.call(rt.name, server.name, req, timeout=10_000.0)
            return resp

        p1 = sim.spawn(speculative())
        sim.run(until=400.0)
        assert p1.done and p1.result.ok
        assert p1.result.new_versions[KEY] == 2  # intent pending, locks held

        p2_done_at = []

        def direct():
            req = DirectExecRequest(
                execution_id="dir-1", function_id="t.bump", args=("x",),
                origin_region=Region.JP,
            )
            resp = yield from net.call(rt.name, server.name, req, timeout=60_000.0)
            p2_done_at.append(sim.now)
            return resp

        p2 = sim.spawn(direct())
        sim.run(until=1_500.0)
        # Far longer than an unimpeded direct round trip: the barrier is
        # holding the direct execution behind the pending intent.
        assert not p2.done

        def followup():
            yield from net.call(
                rt.name, server.name,
                WriteFollowup("spec-1", ((KEY[0], KEY[1], 1),)),
                timeout=10_000.0,
            )

        sim.spawn(followup())
        sim.run(until=3_000.0)
        assert p2.done
        # The direct execution observed the intent's write: distinct
        # version, no lost update.
        assert p2.result.backup_write_versions[KEY] == 3
        item = dep.store.get_or_none(*KEY)
        assert (item.value, item.version) == (2, 3)
        assert server.locks.held_owners() == []


    def test_half_open_probe_goes_direct_and_waits_at_the_barrier(self):
        """The path gray-limp found, constructed so it cannot go vacuous
        when ties move: a validated intent is pending (its followup lost),
        the breaker is opened by hand, and the probe the cooldown admits
        must take the direct path, queue on the barrier behind the intent,
        and run only after the intent's timer settled it."""
        config = RadicalConfig(
            service_jitter_sigma=0.0, followup_timeout_ms=3_000.0,
            breaker_cooldown_ms=1_000.0,
        )
        dep = build_counter_deployment(seed=2, config=config)
        sim, net, server, metrics = dep.sim, dep.net, dep.server, dep.metrics
        writer, prober = dep.runtimes[Region.CA], dep.runtimes[Region.JP]
        history = HistoryRecorder()
        net.add_drop_filter(lambda src, dst, payload: isinstance(payload, WriteFollowup))

        def client(runtime):
            record = history.begin("t.bump", sim.now)
            outcome = yield from runtime.invoke("t.bump", ["x"])
            history.finish(record, sim.now, reads=outcome.read_versions,
                           writes=outcome.write_versions)
            return outcome

        spec = sim.spawn(client(writer))
        sim.run(until=400.0)
        assert spec.done and spec.result.path == PATH_SPECULATIVE
        (intent,) = dep.pending_intents()  # validated, followup lost

        breaker = prober._breaker
        for _ in range(config.breaker_failure_threshold):
            breaker.record_failure()

        def fast_fail():
            with pytest.raises(UnavailableError, match="circuit open"):
                yield from prober.invoke("t.bump", ["x"])

        sim.run_process(fast_fail())
        sim.run(until=sim.now + config.breaker_cooldown_ms)

        probe = sim.spawn(client(prober))
        sim.run(until=2_500.0)
        # Admitted as the half-open probe, sent direct, and held at the
        # barrier: the intent (timer due at ~3.1 s) still owns its locks.
        assert metrics.counter("breaker.half_open") == 1
        assert metrics.counter("path.direct") == 1
        assert not probe.done
        assert server.locks.queue_length(_DIRECT_BARRIER) == 1
        assert server.locks.holders_of(_DIRECT_BARRIER) == [intent.execution_id]

        sim.run(until=10_000.0)
        assert probe.done and probe.result.path == PATH_DIRECT
        assert metrics.counter("reexecution.count") == 1
        assert metrics.counter("breaker.closed") == 1
        # The direct execution observed the intent's write: two bumps, two
        # distinct versions, a serializable history, nothing left held.
        assert spec.result.write_versions[KEY] == 2
        assert probe.result.write_versions[KEY] == 3
        item = dep.store.get_or_none(*KEY)
        assert (item.value, item.version) == (2, 3)
        check_strict_serializability(history.records())
        assert server.locks.held_owners() == []
        assert dep.pending_intents() == []


class TestLockStats:
    def test_lock_wait_stats_tagged_and_reset_across_crash(self):
        dep = build_counter_deployment(seed=3)
        sim = dep.sim
        rt = dep.runtimes[Region.JP]

        def traffic():
            for _ in range(3):
                yield sim.spawn(rt.invoke("t.bump", ["x"]))

        sim.spawn(traffic())
        sim.run(until=3_000.0)
        server = dep.server
        assert server.locks.acquisitions > 0
        # The same wait numbers flow into the shared metrics bag tagged by
        # server, so observability survives the lock table being replaced.
        samples = dep.metrics.samples_tagged("lock.wait", server=server.name)
        assert len(samples) >= server.locks.acquisitions // 2
        old_locks = server.locks
        server.crash()
        assert server.locks is not old_locks
        assert server.locks.acquisitions == 0
        assert server.locks.total_wait_ms == 0.0
        assert server.locks.max_wait_ms == 0.0
        assert server.locks.held_owners() == []
        server.restart()
        sim.run(until=sim.now + 2_000.0)

        def after():
            outcome = yield sim.spawn(rt.invoke("t.read", ["x"]))
            return outcome

        p = sim.spawn(after())
        sim.run(until=sim.now + 2_000.0)
        assert p.done
        assert server.locks.acquisitions > 0  # fresh table counts afresh


class TestShardedOverload:
    def _sharded_dep(self, **config_overrides):
        from test_sharded_protocol import (  # same sys.path trick as conftest
            HIGH, LOW, build_xfer_deployment,
        )

        config = RadicalConfig(
            service_jitter_sigma=0.0,
            server_proc_ms=5.0,
            admission_queue_depth=4,
            admission_sojourn_ms=50.0,
            rpc_timeout_ms=300.0,
            retry_max_attempts=3,
            retry_base_backoff_ms=10.0,
            retry_max_backoff_ms=50.0,
            retry_jitter_frac=0.0,
            followup_timeout_ms=400.0,
            **config_overrides,
        )
        return build_xfer_deployment(seed=4, config=config), LOW, HIGH

    def test_prepare_shed_aborts_cleanly_then_succeeds(self):
        dep, low, high = self._sharded_dep()
        sim = dep.sim
        rt = dep.runtimes[Region.JP]
        high_server = dep.servers[dep.shard_of("counters", high)]
        done = []

        def scenario():
            # The HIGH shard sheds the first prepare(s); the backlog
            # drains while the runtime backs off, so a later attempt
            # commits the transaction whole.
            high_server._proc_free_at = sim.now + 200.0
            outcome = yield sim.spawn(rt.invoke("t.xfer", [low, high]))
            done.append(outcome)

        sim.spawn(scenario())
        sim.run(until=10_000.0)
        sim.run(until=sim.now + 3 * 400.0 + 1_000.0)  # lease drain
        assert len(done) == 1
        assert dep.metrics.counter("rpc.overloaded") >= 1
        # Exactly-once: both slices applied exactly once, or neither.
        assert dep.get_or_none("counters", low).value == 1
        assert dep.get_or_none("counters", high).value == 1
        for server in dep.servers:
            assert server.locks.held_owners() == []
        assert dep.pending_intents() == []

    def test_deadline_expires_during_retry_backoff_no_partial_commit(self):
        """Satellite: the invocation deadline lands *inside* the overload
        retry backoff on the scatter-gather path (the shed shard's
        retry-after hint exceeds the remaining budget, so the runtime
        sleeps straight into the deadline).  The invocation must fail
        cleanly: no partial commit, no leaked locks, no orphan intents."""
        dep, low, high = self._sharded_dep(invocation_deadline_ms=600.0)
        sim = dep.sim
        rt = dep.runtimes[Region.JP]
        high_server = dep.servers[dep.shard_of("counters", high)]
        failures = []

        def scenario():
            high_server._proc_free_at = sim.now + 1e9  # permanent backlog
            started = sim.now
            try:
                yield sim.spawn(rt.invoke("t.xfer", [low, high]))
            except UnavailableError:
                failures.append(sim.now - started)

        sim.spawn(scenario())
        sim.run(until=10_000.0)
        high_server._proc_free_at = 0.0  # let the drain phase settle
        sim.run(until=sim.now + 3 * 400.0 + 2_000.0)
        assert len(failures) == 1
        # Failed at (not before, not long after) the deadline, which fell
        # mid-backoff after at least one shed prepare.
        assert 600.0 <= failures[0] <= 900.0
        assert dep.metrics.counter("rpc.overloaded") >= 1
        # Presumed abort: the prepared LOW slice must not commit alone.
        assert dep.get_or_none("counters", low).value == 0
        assert dep.get_or_none("counters", high).value == 0
        for server in dep.servers:
            assert server.locks.held_owners() == []
        assert dep.pending_intents() == []


class TestOverloadChaosPlans:
    def test_plan_windows_validate(self):
        with pytest.raises(FaultConfigError):
            SurgeWindow(Region.JP, 0.0, 100.0, rate_rps=0.0).validate()
        with pytest.raises(FaultConfigError):
            SurgeWindow(Region.JP, 0.0, float("inf"), rate_rps=10.0).validate()
        with pytest.raises(FaultConfigError):
            SlowServerWindow("s", 100.0, 50.0, proc_ms=5.0).validate()
        with pytest.raises(FaultConfigError):
            SlowServerWindow("s", 0.0, 100.0, proc_ms=0.0).validate()
        plans = builtin_plans()
        assert plans["surge-jp"].overload
        assert plans["gray-limp"].overload
        assert plans["surge-jp"].surge_windows()
        assert list(plans["gray-limp"].slow_targets()) == ["lvi-server"]

    def test_surge_plan_sheds_and_recovers(self):
        result = run_chaos_case(builtin_plans()["surge-jp"], seed=0)
        assert result.ok
        assert result.shed > 0, "a 220 rps surge must trip admission control"
        assert result.queue_bound_ok
        assert result.max_queue_depth > 0
        assert result.leaked_locks == 0
        assert result.metastable_ok
        assert result.pre_p50_ms is not None and result.post_p50_ms is not None
        # Metastability: post-surge p50 back within 10% of pre-surge.
        assert result.post_p50_ms <= result.pre_p50_ms * 1.10 + 1.0

    def test_gray_limp_regression_direct_path_serializable(self):
        """gray-limp is the plan that exposed the unlocked direct execution
        (a half-open breaker probe going down the direct path minted a
        duplicate write of one version).  Whether any seed's probe takes
        that path depends on the whole timeline's same-instant ties, so
        the path itself is pinned by the constructed case in
        ``TestDirectBarrier``; here every seed must stay correct whichever
        path its probes take."""
        for seed in range(1, 9):
            result = run_chaos_case(builtin_plans()["gray-limp"], seed=seed)
            assert result.ok, (seed, result.violation)
            assert result.serializable, seed
            assert result.duplicate_writes == 0, seed
            assert result.counters.get("admission.shed", 0) > 0, seed


class TestOverloadSweep:
    def test_goodput_plateaus_with_shedding_and_collapses_without(self):
        from repro.bench import sweep_overload

        payload = sweep_overload(rates=(60.0, 160.0), duration_ms=1_200.0, seed=42)
        goodput = {
            (p["series"], p["rate_rps"]): p["goodput_rps"]
            for p in payload["points"]
        }
        # Below capacity the stacks agree; far past it the shedding stack
        # keeps (most of) its capacity while the unprotected one collapses
        # under retry amplification.
        assert goodput[("shed-on", 160.0)] > goodput[("shed-off", 160.0)]
        assert goodput[("shed-off", 160.0)] < goodput[("shed-off", 60.0)]
        assert goodput[("shed-on", 160.0)] >= goodput[("shed-on", 60.0)]
        by_point = {(p["series"], p["rate_rps"]): p for p in payload["points"]}
        assert by_point[("shed-on", 160.0)]["shed"] > 0
        assert by_point[("shed-off", 160.0)]["shed"] == 0
        assert by_point[("shed-off", 160.0)]["rpc_timeouts"] > \
            by_point[("shed-on", 160.0)]["rpc_timeouts"]

    def test_overload_point_is_deterministic(self):
        from repro.bench import run_overload_point

        a = run_overload_point(100.0, True, duration_ms=800.0, seed=7)
        b = run_overload_point(100.0, True, duration_ms=800.0, seed=7)
        assert a == b
