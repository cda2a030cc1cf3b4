"""Retry-policy determinism, circuit-breaker state machine, and the
runtime's degradation ladder under a total near-storage blackout."""

import math

import pytest

from repro.core import RadicalConfig
from repro.errors import FaultConfigError, UnavailableError
from repro.faults import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    DropWindow,
    FaultPlan,
    FaultScheduler,
    RetryPolicy,
)
from repro.sim import Metrics, RandomStreams, Region, Simulator

from conftest import build_counter_stack


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(FaultConfigError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(FaultConfigError):
            RetryPolicy(base_backoff_ms=-1.0)
        with pytest.raises(FaultConfigError):
            RetryPolicy(backoff_multiplier=0.5)
        with pytest.raises(FaultConfigError):
            RetryPolicy(jitter_frac=1.0)

    def test_backoff_grows_exponentially_and_caps(self):
        policy = RetryPolicy(max_attempts=6, base_backoff_ms=10.0,
                             backoff_multiplier=2.0, max_backoff_ms=50.0,
                             jitter_frac=0.0)
        assert policy.schedule() == [10.0, 20.0, 40.0, 50.0, 50.0]

    def test_jitter_stays_within_fraction(self):
        policy = RetryPolicy(max_attempts=50, base_backoff_ms=100.0,
                             backoff_multiplier=1.0, jitter_frac=0.2)
        rng = RandomStreams(3).stream("jitter")
        for delay in policy.schedule(rng):
            assert 80.0 <= delay <= 120.0

    def test_same_seed_byte_identical_schedule(self):
        policy = RetryPolicy(max_attempts=10, jitter_frac=0.3)
        a = policy.schedule(RandomStreams(42).stream("runtime.jp.retry"))
        b = policy.schedule(RandomStreams(42).stream("runtime.jp.retry"))
        assert a == b
        # A different stream name (or seed) must diverge.
        c = policy.schedule(RandomStreams(42).stream("runtime.ca.retry"))
        assert a != c

    def test_from_config_mirrors_knobs(self):
        config = RadicalConfig(retry_max_attempts=7, retry_base_backoff_ms=5.0,
                               retry_backoff_multiplier=3.0,
                               retry_max_backoff_ms=99.0, retry_jitter_frac=0.0)
        policy = RetryPolicy.from_config(config)
        assert policy.max_attempts == 7
        assert policy.schedule() == [5.0, 15.0, 45.0, 99.0, 99.0, 99.0]


class TestCircuitBreaker:
    def make(self, threshold=3, cooldown=1000.0):
        sim = Simulator()
        return sim, CircuitBreaker(sim, failure_threshold=threshold,
                                   cooldown_ms=cooldown, metrics=Metrics(),
                                   name="test")

    def test_opens_at_threshold(self):
        _, breaker = self.make(threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED and breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN and not breaker.allow()

    def test_success_resets_consecutive_count(self):
        _, breaker = self.make(threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED

    def test_half_open_probe_after_cooldown(self):
        sim, breaker = self.make(threshold=1, cooldown=1000.0)
        breaker.record_failure()
        assert not breaker.allow()
        sim.run(until=999.0)
        assert not breaker.allow()
        sim.run(until=1000.0)
        assert breaker.allow()          # exactly one probe admitted
        assert breaker.state == HALF_OPEN and breaker.probing
        assert not breaker.allow()      # concurrent requests still fail fast

    def test_probe_success_closes(self):
        sim, breaker = self.make(threshold=1, cooldown=100.0)
        breaker.record_failure()
        sim.run(until=200.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED and breaker.allow()

    def test_probe_failure_reopens_and_restarts_cooldown(self):
        sim, breaker = self.make(threshold=2, cooldown=100.0)
        breaker.record_failure()
        breaker.record_failure()
        sim.run(until=150.0)
        assert breaker.allow()
        breaker.record_failure()        # the probe fails
        assert breaker.state == OPEN and not breaker.allow()
        sim.run(until=249.0)
        assert not breaker.allow()      # cooldown restarted at t=150
        sim.run(until=250.0)
        assert breaker.allow()

    def test_invalid_knobs_rejected(self):
        sim = Simulator()
        with pytest.raises(FaultConfigError):
            CircuitBreaker(sim, failure_threshold=0)
        with pytest.raises(FaultConfigError):
            CircuitBreaker(sim, cooldown_ms=-1.0)


class TestDegradationLadder:
    """A total near-storage blackout: every invocation must still terminate
    within its deadline, ending in a clean ``UnavailableError``.  Total
    means JP's direct path to VA and its relay's (CA's) are both down: a
    cut of the direct path alone is routed around."""

    @staticmethod
    def blackout(end_ms=math.inf):
        return tuple(
            DropWindow(region, Region.VA, start_ms=0.0, end_ms=end_ms,
                       probability=1.0, bidirectional=True)
            for region in (Region.JP, Region.CA)
        )

    def blackout_config(self):
        return RadicalConfig(
            service_jitter_sigma=0.0,
            rpc_timeout_ms=400.0,
            retry_max_attempts=2,
            retry_base_backoff_ms=20.0,
            retry_jitter_frac=0.0,
            invocation_deadline_ms=3000.0,
            breaker_failure_threshold=3,
            breaker_cooldown_ms=1000.0,
        )

    def test_blackout_invocations_terminate_within_deadline(self):
        sim, net, store, server, runtimes, metrics = build_counter_stack(
            config=self.blackout_config()
        )
        plan = FaultPlan(name="blackout", actions=self.blackout())
        FaultScheduler(sim, net, plan, metrics=metrics).start()
        rt = runtimes[Region.JP]
        outcomes = []

        def flow():
            for _ in range(8):
                started = sim.now
                try:
                    yield sim.spawn(rt.invoke("t.bump", ["x"]))
                    outcomes.append(("ok", sim.now - started))
                except UnavailableError:
                    outcomes.append(("unavailable", sim.now - started))

        proc = sim.spawn(flow())
        sim.run(until_event=proc.done_event)
        assert len(outcomes) == 8
        assert all(kind == "unavailable" for kind, _ in outcomes)
        assert all(elapsed <= 3000.0 + 1e-9 for _, elapsed in outcomes)
        # The breaker tripped and later invocations failed fast.
        assert metrics.counter("breaker.open") >= 1
        assert metrics.counter("breaker.fast_fail") >= 1
        # Nothing was acked, so nothing may have landed.
        assert store.get("counters", "c:x").value == 0

    def test_breaker_probe_recovers_after_heal(self):
        sim, net, store, server, runtimes, metrics = build_counter_stack(
            config=self.blackout_config()
        )
        plan = FaultPlan(name="outage-then-heal", actions=self.blackout(end_ms=4000.0))
        FaultScheduler(sim, net, plan, metrics=metrics).start()
        rt = runtimes[Region.JP]
        results = []

        def flow():
            # Trip the breaker during the outage...
            for _ in range(4):
                try:
                    yield sim.spawn(rt.invoke("t.bump", ["x"]))
                    results.append("ok")
                except UnavailableError:
                    results.append("unavailable")
            # ...then keep trying after the link heals: the half-open
            # probe must re-close the breaker and invocations succeed.
            while sim.now < 10_000.0 and results[-1] != "ok":
                yield sim.timeout(500.0)
                try:
                    yield sim.spawn(rt.invoke("t.bump", ["x"]))
                    results.append("ok")
                except UnavailableError:
                    results.append("unavailable")

        proc = sim.spawn(flow())
        sim.run(until_event=proc.done_event)
        sim.run(until=sim.now + 3000.0)
        assert results[-1] == "ok"
        assert metrics.counter("breaker.half_open") >= 1
        assert metrics.counter("breaker.closed") >= 1
        assert store.get("counters", "c:x").value == results.count("ok")
