"""The chaos harness end-to-end: determinism, built-in plans, and the
acceptance properties (strict serializability, exactly-once, bounded
termination) under representative fault plans."""

import pytest

from repro.errors import FaultConfigError
from repro.faults import builtin_plans, resolve_plans, run_chaos_case, run_chaos_matrix


class TestPlanRegistry:
    def test_builtin_plans_validate(self):
        plans = builtin_plans()
        assert {"baseline", "lvi-blackout", "server-crash",
                "raft-follower-crash"} <= set(plans)
        for plan in plans.values():
            plan.validate()

    def test_resolve_all_and_lists(self):
        assert {p.name for p in resolve_plans("all")} == set(builtin_plans())
        two = resolve_plans("baseline,slow-wan")
        assert [p.name for p in two] == ["baseline", "slow-wan"]

    def test_resolve_unknown_plan_raises(self):
        with pytest.raises(FaultConfigError, match="no-such-plan"):
            resolve_plans("baseline,no-such-plan")


class TestDeterminism:
    def test_same_seed_same_plan_identical_results(self):
        plan = builtin_plans()["flaky-links"]
        a = run_chaos_case(plan, seed=5, requests_per_client=15)
        b = run_chaos_case(plan, seed=5, requests_per_client=15)
        assert a.to_dict() == b.to_dict()

    def test_different_seeds_diverge(self):
        plan = builtin_plans()["flaky-links"]
        a = run_chaos_case(plan, seed=1, requests_per_client=15)
        b = run_chaos_case(plan, seed=2, requests_per_client=15)
        assert a.to_dict() != b.to_dict()


class TestAcceptance:
    @pytest.mark.parametrize("name", sorted(builtin_plans()))
    def test_every_builtin_plan_holds_invariants(self, name):
        plan = builtin_plans()[name]
        result = run_chaos_case(plan, seed=3, requests_per_client=12)
        v = result.verdicts
        assert v["completed"] == "", f"{name}: {v['completed']}"
        assert v["deadline"] == "", f"{name}: {v['deadline']}"
        assert v["strict_serializability"] == "", f"{name}: {result.violation}"
        assert v["exactly_once"] == "", f"{name}: {v['exactly_once']}"
        # Judged on every plan, not only the ones that shed.
        assert v["no_held_locks"] == "", f"{name}: {v['no_held_locks']}"
        assert v["no_pending_intents"] == "", f"{name}: {v['no_pending_intents']}"
        assert result.ok

    def test_blackout_terminates_everything_with_zero_availability(self):
        result = run_chaos_case(builtin_plans()["lvi-blackout"], seed=0,
                                requests_per_client=10)
        assert result.acked == 0 and result.availability == 0.0
        assert result.unavailable == result.requests
        assert result.verdicts["completed"] == result.verdicts["deadline"] == ""
        assert result.counters["breaker.open"] >= 1
        assert result.counters["breaker.fast_fail"] >= 1

    def test_baseline_is_fully_available(self):
        result = run_chaos_case(builtin_plans()["baseline"], seed=0,
                                requests_per_client=10)
        assert result.availability == 1.0
        assert result.counters.get("rpc.retry", 0) == 0
        assert result.counters.get("fault.injected", 0) == 0

    def test_server_crash_settles_every_intent(self):
        result = run_chaos_case(builtin_plans()["server-crash"], seed=4,
                                requests_per_client=15)
        assert result.ok
        assert result.verdicts["no_pending_intents"] == ""
        assert result.counters["server.crashes"] == 1
        assert result.counters["server.restarts"] == 1

    def test_matrix_runs_plans_by_seed(self):
        plans = resolve_plans("baseline,followup-burst")
        results = run_chaos_matrix(plans, seeds=2, requests_per_client=8)
        assert len(results) == 4
        assert all(r.ok for r in results)


class TestCompleted:
    def test_client_that_raises_fails_the_case(self, monkeypatch):
        # A client killed by an unexpected exception loses its remaining
        # requests without counting them anywhere; the case must say so.
        from repro.core.runtime import NearUserRuntime

        invoke, calls = NearUserRuntime.invoke, []

        def breaks_on_49th(self, function_id, args, session=None):
            calls.append(function_id)
            if len(calls) == 49:
                raise RuntimeError("planted")
            return (yield from invoke(self, function_id, args, session=session))

        monkeypatch.setattr(NearUserRuntime, "invoke", breaks_on_49th)
        result = run_chaos_case(builtin_plans()["baseline"], seed=0)
        assert not result.ok
        assert result.acked + result.unavailable < result.requests
        assert result.verdicts["completed"].endswith(": RuntimeError: planted")
        assert result.verdicts["completed"].startswith("chaos-client-")
        assert result.violation.startswith("completed: chaos-client-")
