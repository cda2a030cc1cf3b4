"""LVI server crash recovery: pending intents survive in primary storage.

§5.6's motivation: a singleton server failure leaves the system
unavailable — and any in-flight write intents un-settled.  Because
intents (with their replay inputs) live in the primary store, a
replacement server can recover them: re-execute deterministically, apply
the writes once, and resume serving.
"""

import pytest

from repro.core import (
    FunctionRegistry,
    FunctionSpec,
    LVIServer,
    NearUserRuntime,
    RadicalConfig,
)
from repro.sim import Metrics, Network, RandomStreams, Region, Simulator, paper_latency_table
from repro.storage import KVStore, NearUserCache

BUMP_SRC = '''
def bump(k):
    busy(2000)
    count = db_get("counters", f"c:{k}")
    if count is None:
        count = 0
    db_put("counters", f"c:{k}", count + 1)
    return count + 1
'''


def build():
    sim = Simulator()
    streams = RandomStreams(12)
    net = Network(sim, paper_latency_table(), streams)
    metrics = Metrics()
    # Long followup timeout: the ORIGINAL server never gets to re-execute;
    # recovery on the replacement must do it.
    config = RadicalConfig(service_jitter_sigma=0.0, followup_timeout_ms=60_000.0)
    registry = FunctionRegistry()
    registry.register(FunctionSpec("t.bump", BUMP_SRC, 20.0))
    store = KVStore()
    store.put("counters", "c:x", 0)
    server = LVIServer(sim, net, registry, store, config, streams, metrics,
                       name="lvi-server")
    cache = NearUserCache(Region.CA)
    cache.install("counters", "c:x", store.get("counters", "c:x"))
    runtime = NearUserRuntime(sim, net, Region.CA, cache, registry, config,
                              streams, metrics)
    return sim, net, store, server, runtime, registry, config, streams, metrics


class TestIntentCarriesArgs:
    def test_intent_record_includes_args(self):
        sim, net, store, server, runtime, *_rest = build()
        proc = sim.spawn(runtime.invoke("t.bump", ["x"]))
        sim.run(until_event=proc.done_event)
        pending = server.intents.pending()
        assert len(pending) == 1
        assert pending[0].function_id == "t.bump"
        assert pending[0].args == ("x",)
        sim.run(until=sim.now + 2000.0)  # let the followup settle

    def test_intent_roundtrips_through_storage(self):
        from repro.storage import IntentTable

        store = KVStore()
        table = IntentTable(store)
        table.create("e1", "f.g", now=5.0, args=("a", 7))
        recovered = IntentTable(store).get("e1")
        assert recovered.args == ("a", 7)


class TestServerFailover:
    def test_replacement_server_recovers_pending_intent(self):
        sim, net, store, server, runtime, registry, config, streams, metrics = build()
        # Client gets its answer; the followup is in flight when the
        # server dies.
        proc = sim.spawn(runtime.invoke("t.bump", ["x"]))
        sim.run(until_event=proc.done_event)
        assert proc.result.result == 1
        net.unregister("lvi-server")  # the server host crashes
        sim.run(until=sim.now + 2000.0)
        # The write never reached the primary.
        assert store.get("counters", "c:x").value == 0
        assert len(server.intents.pending()) == 1

        # A replacement boots against the same primary store and recovers.
        replacement = LVIServer(
            sim, net, registry, store, config, streams, metrics, name="lvi-server"
        )
        recovered = sim.run_process(replacement.recover_pending())
        assert recovered == 1
        assert store.get("counters", "c:x").value == 1  # applied exactly once
        assert replacement.intents.pending() == []

    def test_recovery_idempotent_against_late_followup(self):
        sim, net, store, server, runtime, registry, config, streams, metrics = build()
        proc = sim.spawn(runtime.invoke("t.bump", ["x"]))
        sim.run(until_event=proc.done_event)
        # Delay the followup massively, then fail over and recover first.
        net.set_extra_delay(Region.CA, Region.VA, 5_000.0)
        net.unregister("lvi-server")
        replacement = LVIServer(
            sim, net, registry, store, config, streams, metrics, name="lvi-server"
        )
        sim.run_process(replacement.recover_pending())
        assert store.get("counters", "c:x").value == 1
        # The stale followup eventually arrives at the replacement and is
        # discarded: still exactly once.
        sim.run(until=sim.now + 20_000.0)
        item = store.get("counters", "c:x")
        assert item.value == 1
        assert item.version == 2  # seed put + exactly one increment

    def test_replacement_serves_new_requests_after_recovery(self):
        sim, net, store, server, runtime, registry, config, streams, metrics = build()
        proc = sim.spawn(runtime.invoke("t.bump", ["x"]))
        sim.run(until_event=proc.done_event)
        net.unregister("lvi-server")
        replacement = LVIServer(
            sim, net, registry, store, config, streams, metrics, name="lvi-server"
        )
        sim.run_process(replacement.recover_pending())
        outcome = sim.run_process(runtime.invoke("t.bump", ["x"]))
        sim.run(until=sim.now + 2000.0)
        assert outcome.result == 2
        assert store.get("counters", "c:x").value == 2

    def test_restart_dispatches_no_timer_of_the_crashed_incarnation(self, monkeypatch):
        fired = []
        on_timer = LVIServer._on_intent_timer

        def counting(self, execution_id, trigger="timer"):
            fired.append((execution_id, trigger))
            return on_timer(self, execution_id, trigger)

        monkeypatch.setattr(LVIServer, "_on_intent_timer", counting)
        sim, net, store, server, runtime, _registry, config, *_rest, metrics = build()
        # The client is answered with the followup still on the wire; the
        # crash eats it, and the intent timer armed for it dies too.
        proc = sim.spawn(runtime.invoke("t.bump", ["x"]))
        sim.run(until_event=proc.done_event)
        assert proc.result.result == 1
        server.crash()
        assert server._executions == {}
        server.restart()
        sim.run(until=sim.now + 3 * config.followup_timeout_ms)
        # Recovery settled the intent exactly once; no timer of the first
        # incarnation was dispatched afterwards.
        assert fired == []
        assert metrics.counter("reexecution.count") == 1
        assert metrics.counter("recovery.intents") == 1
        item = store.get("counters", "c:x")
        assert (item.value, item.version) == (1, 2)
        assert server.intents.pending() == []

    def test_recovery_with_no_pending_intents_is_noop(self):
        sim, net, store, server, *_rest = build()
        assert sim.run_process(server.recover_pending()) == 0
