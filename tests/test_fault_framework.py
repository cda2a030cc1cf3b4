"""Fault-plan validation, network knob validation, and scheduler replay."""

import math

import pytest

from repro.errors import FaultConfigError, ReproError
from repro.faults import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CrashWindow,
    DelayWindow,
    DropWindow,
    DuplicateWindow,
    FaultPlan,
    FaultScheduler,
    FollowupLossWindow,
    PartitionWindow,
)
from repro.sim import (
    Metrics,
    Network,
    RandomStreams,
    Region,
    Simulator,
    paper_latency_table,
)

from conftest import build_counter_stack


def make_net(seed=1):
    sim = Simulator()
    net = Network(sim, paper_latency_table(), RandomStreams(seed))
    return sim, net


class TestKnobValidation:
    def test_drop_probability_rejects_out_of_range(self):
        _, net = make_net()
        with pytest.raises(FaultConfigError):
            net.set_drop_probability(Region.JP, Region.VA, 1.5)
        with pytest.raises(FaultConfigError):
            net.set_drop_probability(Region.JP, Region.VA, -0.1)

    def test_duplicate_probability_rejects_out_of_range(self):
        _, net = make_net()
        with pytest.raises(FaultConfigError):
            net.set_duplicate_probability(Region.JP, Region.VA, 2.0)

    def test_extra_delay_rejects_negative(self):
        _, net = make_net()
        with pytest.raises(FaultConfigError):
            net.set_extra_delay(Region.JP, Region.VA, -5.0)

    def test_fault_config_error_is_both_repro_and_value_error(self):
        # Callers that predate the fault framework catch ValueError.
        assert issubclass(FaultConfigError, ReproError)
        assert issubclass(FaultConfigError, ValueError)


class TestPlanValidation:
    def test_empty_window_rejected(self):
        with pytest.raises(FaultConfigError):
            PartitionWindow(Region.JP, Region.VA, start_ms=100.0, end_ms=100.0).validate()

    def test_negative_start_rejected(self):
        with pytest.raises(FaultConfigError):
            DropWindow(Region.JP, Region.VA, start_ms=-1.0).validate()

    def test_probability_out_of_range_rejected(self):
        with pytest.raises(FaultConfigError):
            DropWindow(Region.JP, Region.VA, start_ms=0.0, probability=1.01).validate()
        with pytest.raises(FaultConfigError):
            DuplicateWindow(Region.JP, Region.VA, start_ms=0.0, probability=-0.5).validate()

    def test_negative_extra_delay_rejected(self):
        with pytest.raises(FaultConfigError):
            DelayWindow(Region.JP, Region.VA, start_ms=0.0, extra_ms=-10.0).validate()

    def test_restart_before_crash_rejected(self):
        with pytest.raises(FaultConfigError):
            CrashWindow("lvi-server", crash_at_ms=500.0, restart_at_ms=400.0).validate()

    def test_nameless_plan_rejected(self):
        with pytest.raises(FaultConfigError):
            FaultPlan(name="").validate()

    def test_plan_validate_recurses_into_actions(self):
        plan = FaultPlan(
            name="bad",
            actions=(DropWindow(Region.JP, Region.VA, start_ms=0.0, probability=7.0),),
        )
        with pytest.raises(FaultConfigError):
            plan.validate()

    def test_horizon_ignores_open_windows(self):
        plan = FaultPlan(
            name="mixed",
            actions=(
                DropWindow(Region.JP, Region.VA, start_ms=100.0, end_ms=math.inf),
                PartitionWindow(Region.CA, Region.VA, start_ms=200.0, end_ms=900.0),
                CrashWindow("lvi-server", crash_at_ms=300.0, restart_at_ms=650.0),
            ),
        )
        assert plan.horizon_ms() == 900.0
        assert plan.crash_targets() == ("lvi-server",)


class TestScheduler:
    def test_unbound_crash_target_rejected_up_front(self):
        sim, net = make_net()
        plan = FaultPlan(
            name="crashy", actions=(CrashWindow("nope", crash_at_ms=10.0),)
        )
        with pytest.raises(FaultConfigError, match="nope"):
            FaultScheduler(sim, net, plan)

    def test_start_is_once_only(self):
        sim, net = make_net()
        sched = FaultScheduler(sim, net, FaultPlan(name="empty"))
        sched.start()
        with pytest.raises(FaultConfigError):
            sched.start()

    def test_windows_flip_knobs_at_exact_virtual_times(self):
        sim, net = make_net()
        plan = FaultPlan(
            name="pulse",
            actions=(
                DropWindow(Region.JP, Region.VA, start_ms=100.0, end_ms=300.0,
                           probability=0.5),
                DelayWindow(Region.CA, Region.VA, start_ms=150.0, extra_ms=40.0,
                            end_ms=250.0),
            ),
        )
        metrics = Metrics()
        sched = FaultScheduler(sim, net, plan, metrics=metrics)
        sched.start()
        sim.run(until=1000.0)
        times_events = [(t, e) for t, e, _ in sched.injected]
        assert times_events == [
            (100.0, "drop"),
            (150.0, "delay"),
            (250.0, "delay"),
            (300.0, "drop"),
        ]
        assert metrics.counter("fault.injected") == 4

    def test_same_plan_same_seed_identical_injection_log(self):
        def run_once():
            sim, net = make_net(seed=7)
            plan = FaultPlan(
                name="flaky",
                actions=(
                    DropWindow(Region.JP, Region.VA, start_ms=50.0, end_ms=400.0,
                               probability=0.25, bidirectional=True),
                    FollowupLossWindow(start_ms=100.0, end_ms=600.0),
                ),
            )
            sched = FaultScheduler(sim, net, plan)
            sched.start()
            sim.run(until=1000.0)
            return sched.injected

        assert run_once() == run_once()

    def test_followup_loss_window_forces_reexecution(self):
        sim, net, store, server, runtimes, metrics = build_counter_stack()
        plan = FaultPlan(
            name="eat-followups",
            actions=(FollowupLossWindow(start_ms=0.0, end_ms=2000.0),),
        )
        FaultScheduler(sim, net, plan, metrics=metrics).start()
        rt = runtimes[Region.JP]
        proc = sim.spawn(rt.invoke("t.bump", ["x"]))
        sim.run(until_event=proc.done_event)
        sim.run(until=sim.now + 4000.0)
        assert store.get("counters", "c:x").value == 1
        assert metrics.counter("reexecution.count") == 1
        assert server.intents.pending() == []

    def test_scheduled_crash_and_restart_recovers_server(self):
        sim, net, store, server, runtimes, metrics = build_counter_stack()
        plan = FaultPlan(
            name="bounce",
            actions=(CrashWindow("lvi-server", crash_at_ms=120.0,
                                 restart_at_ms=900.0),),
        )
        FaultScheduler(sim, net, plan, targets={"lvi-server": server},
                       metrics=metrics).start()
        rt = runtimes[Region.JP]
        proc = sim.spawn(rt.invoke("t.bump", ["x"]))
        sim.run(until_event=proc.done_event)
        sim.run(until=sim.now + 8000.0)
        assert metrics.counter("server.crashes") == 1
        assert metrics.counter("server.restarts") == 1
        assert server.intents.pending() == []
        # The write either landed exactly once or was never acked; no dup.
        assert store.get("counters", "c:x").value in (0, 1)


class TestRetryEdges:
    """Boundary conditions of the retry/backoff/breaker machinery, pinned
    at exact virtual times."""

    def test_deadline_expiring_exactly_at_retry_boundary(self):
        # Timeline with 100 ms attempts and flat 50 ms backoffs against a
        # blackholed link: attempt [0,100), backoff [100,150), attempt
        # [150,250), backoff [250,300) — the second backoff ends at the
        # deadline to the tick, so the loop re-enters with remaining ==
        # 0.0 exactly and must take the deadline branch, not a third try.
        from types import SimpleNamespace

        from repro.core.config import RadicalConfig
        from repro.errors import UnavailableError

        cfg = RadicalConfig(
            rpc_timeout_ms=100.0,
            retry_max_attempts=10,
            retry_base_backoff_ms=50.0,
            retry_backoff_multiplier=1.0,
            retry_max_backoff_ms=50.0,
            retry_jitter_frac=0.0,
        )
        sim, net, store, server, runtimes, metrics = build_counter_stack(
            config=cfg
        )
        net.set_drop_probability(Region.JP, Region.VA, 1.0)
        rt = runtimes[Region.JP]
        outcome = {}

        def driver():
            try:
                yield from rt._call_with_retry(
                    SimpleNamespace(execution_id="edge"),
                    deadline_at=300.0, label="test", dst="lvi-server",
                )
            except UnavailableError as exc:
                outcome["error"] = str(exc)
                outcome["at"] = sim.now

        sim.run_process(driver())
        assert "deadline exhausted" in outcome["error"]
        assert outcome["at"] == 300.0
        assert metrics.counter("rpc.timeout") == 2
        assert metrics.counter("rpc.retry") == 2
        assert metrics.counter("rpc.deadline_exceeded") == 1
        # The breaker counts calls, not attempts: the one call that ended
        # unavailable fed it once.
        assert rt._breaker.failures == 1

    def test_overload_retry_after_zero_retries_immediately(self):
        # retry_after_ms == 0 is the server saying "again, now": with a
        # zero-backoff policy the retry must happen at the same virtual
        # instant — no sleep, no hang, no failure.
        from types import SimpleNamespace

        from repro.core.config import RadicalConfig
        from repro.errors import OverloadedError

        cfg = RadicalConfig(
            retry_max_attempts=3,
            retry_base_backoff_ms=0.0,
            retry_jitter_frac=0.0,
        )
        sim, net, store, server, runtimes, metrics = build_counter_stack(
            config=cfg
        )
        rt = runtimes[Region.JP]
        calls = []

        def shed_once_attempt(timeout=None, rto_ms=None, resend=None):
            if False:
                yield  # generator protocol, like RpcCall.attempt
            calls.append(sim.now)
            if len(calls) == 1:
                raise OverloadedError("lvi-server", retry_after_ms=0.0)
            return "ok"

        rt.net = SimpleNamespace(rpc=lambda src, dst, req: SimpleNamespace(
            attempt=shed_once_attempt, rtt_ms=lambda: None,
            first_sent_at=0.0, answered_at=0.0,
        ))

        def driver():
            outcome["result"] = yield from rt._call_with_retry(
                SimpleNamespace(execution_id="edge"),
                deadline_at=1_000.0, label="test", dst="lvi-server",
            )

        outcome = {}
        sim.run_process(driver())
        assert outcome["result"] == "ok"
        assert calls == [0.0, 0.0]  # second attempt at the same instant
        assert metrics.counter("rpc.overloaded") == 1
        assert metrics.counter("rpc.retry") == 1
        assert rt._breaker.state == CLOSED  # success re-closed it

    def test_breaker_recloses_after_recovery(self):
        # Trip -> cooldown -> probe succeeds -> CLOSED with the failure
        # count fully reset (one later failure must not re-trip).
        from repro.faults import CircuitBreaker
        from repro.sim import Metrics, Simulator

        sim = Simulator()
        breaker = CircuitBreaker(
            sim, failure_threshold=2, cooldown_ms=100.0, metrics=Metrics()
        )
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()
        sim.schedule(100.0, lambda: None)
        sim.run()
        assert sim.now == 100.0
        assert breaker.allow()  # the cooldown elapsed: one probe admitted
        assert breaker.state == HALF_OPEN
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.failures == 0
        breaker.record_failure()  # a single post-recovery blip
        assert breaker.state == CLOSED  # threshold is 2; no re-trip
