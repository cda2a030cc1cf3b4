"""Tests for §3.5: external services with at-most-once semantics.

The paper's double-charge scenario: a function calls a payment API; the
same logical request may execute twice (backup execution or deterministic
re-execution), so every call must be idempotency-keyed.
"""

import pytest

from repro.core import (
    ExternalServiceHub,
    FunctionRegistry,
    FunctionSpec,
    LVIServer,
    NearUserRuntime,
    RadicalConfig,
)
from repro.errors import VMTrap
from repro.sim import Metrics, Network, RandomStreams, Region, Simulator, paper_latency_table
from repro.storage import KVStore, NearUserCache
from repro.wasm import DictEnv, VM, compile_source

PAY_SRC = '''
def checkout(uid, amount):
    account = db_get("accounts", f"acct:{uid}")
    if account is None:
        return {"ok": False}
    busy(3000)
    receipt = external("payments", {"uid": uid, "amount": amount})
    db_put("orders", f"order:{uid}:{receipt["id"]}", {"amount": amount})
    return {"ok": True, "receipt": receipt["id"]}
'''.replace('receipt["id"]', "receipt['id']")


class TestExternalServiceHub:
    def _hub(self):
        hub = ExternalServiceHub()
        charges = []

        def payments(payload):
            charges.append(payload)
            return {"id": f"r-{payload['uid']}-{payload['amount']}", "ok": True}

        hub.register("payments", payments)
        return hub, charges

    def test_first_call_executes(self):
        hub, charges = self._hub()
        response = hub.get("payments").invoke("k1", {"uid": "u", "amount": 5})
        assert response["ok"]
        assert len(charges) == 1

    def test_same_key_dedups(self):
        hub, charges = self._hub()
        svc = hub.get("payments")
        first = svc.invoke("k1", {"uid": "u", "amount": 5})
        second = svc.invoke("k1", {"uid": "u", "amount": 5})
        assert first == second
        assert svc.side_effects == 1
        assert svc.invocations == 2

    def test_different_keys_charge_separately(self):
        hub, charges = self._hub()
        svc = hub.get("payments")
        svc.invoke("k1", {"uid": "u", "amount": 5})
        svc.invoke("k2", {"uid": "u", "amount": 5})
        assert svc.side_effects == 2

    def test_recorded_response_returned_even_for_different_payload(self):
        # Stripe semantics: the key wins, not the payload.
        hub, _charges = self._hub()
        svc = hub.get("payments")
        first = svc.invoke("k1", {"uid": "u", "amount": 5})
        replay = svc.invoke("k1", {"uid": "u", "amount": 999})
        assert replay == first

    def test_duplicate_registration_rejected(self):
        hub, _ = self._hub()
        from repro.errors import ProtocolError

        with pytest.raises(ProtocolError):
            hub.register("payments", lambda p: p)

    def test_unknown_service_rejected(self):
        from repro.errors import ProtocolError

        with pytest.raises(ProtocolError):
            ExternalServiceHub().get("nope")

    def test_caller_derives_key_from_execution_and_seq(self):
        hub, _ = self._hub()
        call_a = hub.caller_for("exec-1")
        call_b = hub.caller_for("exec-1")  # a replay of the same execution
        call_a("payments", {"uid": "u", "amount": 1}, 0)
        call_b("payments", {"uid": "u", "amount": 1}, 0)
        assert hub.get("payments").side_effects == 1
        # A different execution (or call site) is a fresh charge.
        call_c = hub.caller_for("exec-2")
        call_c("payments", {"uid": "u", "amount": 1}, 0)
        assert hub.get("payments").side_effects == 2


class TestVmIntegration:
    def test_external_call_from_sandbox(self):
        hub = ExternalServiceHub()
        hub.register("payments", lambda p: {"id": "r1", "ok": True})
        fn = compile_source(PAY_SRC)
        env = DictEnv({("accounts", "acct:u"): {"balance": 10}})
        vm = VM(env, external=hub.caller_for("e1"))
        trace = vm.execute(fn, ["u", 5])
        assert trace.result["ok"]
        assert trace.external_calls == [("payments", 0)]

    def test_sandbox_without_services_traps(self):
        fn = compile_source('def f():\n    return external("payments", {})')
        with pytest.raises(VMTrap, match="no external services"):
            VM(DictEnv()).execute(fn, [])

    def test_external_arity_enforced(self):
        from repro.errors import CompileError

        with pytest.raises(CompileError):
            compile_source('def f():\n    return external("payments")')


class TestAnalysis:
    def test_external_result_feeding_key_is_unanalyzable(self):
        # The order key depends on the receipt: f^rw cannot be derived.
        from repro.analysis import try_analyze

        record = try_analyze(PAY_SRC)
        assert not record.analyzable and record.frw is None
        assert "external" in record.error

    def test_external_without_key_dependency_slices_away(self):
        src = """
def notify(uid):
    user = db_get("users", f"u:{uid}")
    external("email", {"to": uid})
    return user
"""
        from repro.analysis import try_analyze
        from repro.wasm import Op

        record = try_analyze(src)
        assert record.analyzable
        # f^rw is side-effect free: no external call survives the slice.
        assert all(i.op != Op.EXT_CALL for i in record.frw.instructions)

    def test_unanalyzable_checkout_registers_for_direct_execution(self):
        reg = FunctionRegistry()
        record = reg.register(FunctionSpec("shop.checkout", PAY_SRC, 40.0))
        assert not record.analyzable


class TestEndToEndDoubleExecution:
    def _world(self, followup_timeout=400.0):
        sim = Simulator()
        streams = RandomStreams(6)
        net = Network(sim, paper_latency_table(), streams)
        metrics = Metrics()
        config = RadicalConfig(service_jitter_sigma=0.0, followup_timeout_ms=followup_timeout)
        hub = ExternalServiceHub()
        charges = []

        def payments(payload):
            charges.append(payload)
            return {"id": f"r{len(charges)}", "ok": True}

        hub.register("payments", payments)
        registry = FunctionRegistry()
        # An analyzable variant: the order key does not depend on the
        # receipt, so Radical can still speculate.
        src = """
def checkout(uid, amount):
    account = db_get("accounts", f"acct:{uid}")
    if account is None:
        return {"ok": False}
    busy(3000)
    receipt = external("payments", {"uid": uid, "amount": amount})
    db_put("orders", f"order:{uid}", {"amount": amount, "receipt": receipt["id"]})
    return {"ok": True, "receipt": receipt["id"]}
"""
        registry.register(FunctionSpec("shop.checkout", src, 30.0))
        store = KVStore()
        store.put("accounts", "acct:u", {"balance": 100})
        server = LVIServer(sim, net, registry, store, config, streams, metrics,
                           external_hub=hub)
        cache = NearUserCache(Region.CA)
        cache.install("accounts", "acct:u", store.get("accounts", "acct:u"))
        runtime = NearUserRuntime(sim, net, Region.CA, cache, registry, config,
                                  streams, metrics, external_hub=hub)
        return sim, net, store, server, runtime, hub, charges, metrics

    def test_happy_path_charges_once(self):
        sim, _net, store, _server, runtime, hub, charges, _m = self._world()
        outcome = sim.run_process(runtime.invoke("shop.checkout", ["u", 25]))
        sim.run(until=sim.now + 2000)
        assert outcome.result["ok"]
        assert len(charges) == 1
        assert store.get("orders", "order:u").value["receipt"] == outcome.result["receipt"]

    def test_lost_followup_reexecution_does_not_double_charge(self):
        # The §3.5 nightmare: the client was charged, the followup dies,
        # the function re-executes near storage — the idempotency key
        # must absorb the second payment call.
        sim, net, store, _server, runtime, hub, charges, metrics = self._world()
        proc = sim.spawn(runtime.invoke("shop.checkout", ["u", 25]))
        sim.run(until_event=proc.done_event)
        assert proc.result.result["ok"]
        net.partition(Region.CA, Region.VA)
        sim.run(until=sim.now + 3000)
        assert metrics.counter("reexecution.count") == 1
        assert len(charges) == 1  # charged exactly once
        # And the re-executed write recorded the SAME receipt (§3.4
        # determinism: the replay observed the recorded response).
        assert (
            store.get("orders", "order:u").value["receipt"]
            == proc.result.result["receipt"]
        )

    def test_validation_failure_backup_does_not_double_charge(self):
        sim, _net, store, _server, runtime, hub, charges, _m = self._world()
        # Make the cache stale: bump the account at the primary.
        store.put("accounts", "acct:u", {"balance": 50})
        outcome = sim.run_process(runtime.invoke("shop.checkout", ["u", 25]))
        sim.run(until=sim.now + 2000)
        assert outcome.path == "backup"
        assert outcome.result["ok"]
        assert len(charges) == 1  # speculative + backup -> one side effect
