"""Cross-shard LVI protocol: scatter-gather prepare/commit, presumed-abort
decision records, lease settlement, request batching, and the serial
processing model (docs/TOPOLOGY.md §cross-shard commit)."""

import pytest

from repro.consistency import HistoryRecorder, check_strict_serializability
from repro.core import FunctionSpec, RadicalConfig, ShardDecision, ShardDecisionQuery
from repro.errors import ProtocolError, UnavailableError
from repro.sim import Region
from repro.topology import Deployment, TopologySpec

BUMP_SRC = '''
def bump(k):
    busy(2000)
    count = db_get("counters", k)
    if count is None:
        count = 0
    db_put("counters", k, count + 1)
    return count + 1
'''

READ2_SRC = '''
def read2(a, b):
    busy(2000)
    va = db_get("counters", a)
    vb = db_get("counters", b)
    return [va, vb]
'''

XFER_SRC = '''
def xfer(a, b):
    busy(2000)
    va = db_get("counters", a)
    if va is None:
        va = 0
    vb = db_get("counters", b)
    if vb is None:
        vb = 0
    db_put("counters", a, va + 1)
    db_put("counters", b, vb + 1)
    return va + vb
'''

# At two shards the hash places LOW on shard 0 and HIGH on shard 1.
LOW, HIGH = "c:a", "c:y"


def fast_config(**overrides) -> RadicalConfig:
    base = dict(
        service_jitter_sigma=0.0,
        followup_timeout_ms=400.0,
        rpc_timeout_ms=300.0,
        retry_max_attempts=2,
        retry_base_backoff_ms=10.0,
        retry_max_backoff_ms=50.0,
        retry_jitter_frac=0.0,
    )
    base.update(overrides)
    return RadicalConfig(**base)


def build_xfer_deployment(seed=1, config=None, shards=2,
                          regions=(Region.JP, Region.CA)):
    if config is None:
        config = fast_config()
    return Deployment.build(
        TopologySpec(
            regions=regions,
            shards=shards,
            seed=seed,
            config=config,
            network_jitter_sigma=0.0,
            warm_caches=True,
            persistent_caches=False,
            raft_prewarm_ms=0.0,
        ),
        functions=[
            FunctionSpec("t.xfer", XFER_SRC, 20.0),
            FunctionSpec("t.read2", READ2_SRC, 20.0),
            FunctionSpec("t.bump", BUMP_SRC, 20.0),
        ],
        seed_data=lambda store: (
            store.put("counters", LOW, 0),
            store.put("counters", HIGH, 0),
        ),
    )


def drain(dep, ms=3_000.0):
    dep.sim.run(until=dep.sim.now + ms)


class TestCrossShardCommit:
    def test_commit_updates_both_shards(self):
        dep = build_xfer_deployment()
        outcome = dep.sim.run_process(dep.runtimes[Region.JP].invoke("t.xfer", [LOW, HIGH]))
        assert outcome.result == 0
        assert outcome.path == "speculative"
        # Both slices applied at decision time — before the client ack.
        assert dep.stores[0].get("counters", LOW).value == 1
        assert dep.stores[1].get("counters", HIGH).value == 1
        assert dep.metrics.counter("xshard.commit") == 1
        assert dep.metrics.counter("xshard.applied") == 2
        drain(dep)
        assert dep.pending_intents() == []

    def test_single_shard_requests_keep_the_fast_path(self):
        dep = build_xfer_deployment()
        out_low = dep.sim.run_process(dep.runtimes[Region.JP].invoke("t.bump", [LOW]))
        out_high = dep.sim.run_process(dep.runtimes[Region.CA].invoke("t.bump", [HIGH]))
        assert (out_low.result, out_high.result) == (1, 1)
        assert dep.metrics.counter("xshard.commit") == 0
        assert dep.metrics.counter("path.speculative") == 2
        drain(dep)
        assert dep.stores[0].get("counters", LOW).value == 1
        assert dep.stores[1].get("counters", HIGH).value == 1
        assert dep.pending_intents() == []

    def test_read_only_cross_shard(self):
        dep = build_xfer_deployment()
        outcome = dep.sim.run_process(
            dep.runtimes[Region.JP].invoke("t.read2", [LOW, HIGH])
        )
        assert outcome.result == [0, 0]
        assert dep.metrics.counter("xshard.commit") == 1
        # Read-only slices write no intents and apply nothing.
        assert dep.metrics.counter("xshard.applied") == 0
        assert dep.pending_intents() == []

    def test_stale_cache_repairs_and_restarts(self):
        dep = build_xfer_deployment()
        sim = dep.sim
        assert sim.run_process(dep.runtimes[Region.JP].invoke("t.bump", [HIGH])).result == 1
        # CA's cache still holds HIGH's warmed version: the cross-shard
        # prepare fails validation at shard 1, ships repairs, restarts.
        outcome = sim.run_process(dep.runtimes[Region.CA].invoke("t.xfer", [LOW, HIGH]))
        assert outcome.result == 1  # 0 (LOW) + 1 (freshly-read HIGH)
        assert dep.metrics.counter("xshard.restart") >= 1
        assert dep.metrics.counter("xshard.prepare_abort") >= 1
        drain(dep)
        assert dep.stores[0].get("counters", LOW).value == 1
        assert dep.stores[1].get("counters", HIGH).value == 2
        assert dep.pending_intents() == []

    def test_strict_serializability_under_cross_shard_contention(self):
        dep = build_xfer_deployment(config=fast_config(invocation_deadline_ms=30_000.0))
        sim = dep.sim
        history = HistoryRecorder()
        acked = {"xfer": 0, "bump_low": 0, "bump_high": 0}

        def client(region, ops):
            def flow():
                for fn, args, tag in ops:
                    record = history.begin(fn, sim.now)
                    try:
                        outcome = yield sim.spawn(
                            dep.runtimes[region].invoke(fn, args)
                        )
                    except UnavailableError:
                        continue
                    history.finish(
                        record, sim.now,
                        reads=outcome.read_versions, writes=outcome.write_versions,
                    )
                    acked[tag] += 1
                    yield sim.timeout(5.0)
            return flow

        jp_ops = [("t.xfer", [LOW, HIGH], "xfer"), ("t.bump", [LOW], "bump_low")] * 4
        ca_ops = [("t.bump", [HIGH], "bump_high"), ("t.xfer", [LOW, HIGH], "xfer")] * 4
        p1 = sim.spawn(client(Region.JP, jp_ops)(), name="jp-client")
        p2 = sim.spawn(client(Region.CA, ca_ops)(), name="ca-client")
        sim.run(until_event=sim.all_of([p1.done_event, p2.done_event]))
        drain(dep)

        check_strict_serializability(history.records())
        # Exactly-once: every acked bump/xfer increment is in the stores.
        assert dep.stores[0].get("counters", LOW).value == acked["xfer"] + acked["bump_low"]
        assert dep.stores[1].get("counters", HIGH).value == acked["xfer"] + acked["bump_high"]
        assert dep.pending_intents() == []


class TestDecisionLoss:
    def test_all_decisions_lost_aborts_cleanly(self):
        dep = build_xfer_deployment()
        dep.net.add_drop_filter(
            lambda src, dst, payload: isinstance(payload, ShardDecision)
        )

        def watched():
            try:
                yield dep.sim.spawn(
                    dep.runtimes[Region.JP].invoke("t.xfer", [LOW, HIGH])
                )
            except UnavailableError:
                return "unavailable"
            return "acked"

        assert dep.sim.run_process(watched()) == "unavailable"
        drain(dep, 5_000.0)
        # No decision ever arrived; the leases queried the coordinator,
        # forced the abort tombstone, and dropped both slices.
        assert dep.metrics.counter("xshard.lease_abort") >= 1
        assert dep.stores[0].get("counters", LOW).value == 0
        assert dep.stores[1].get("counters", HIGH).value == 0
        assert dep.pending_intents() == []
        # Locks are free again: new traffic flows on both shards.
        dep.net._drop_filters.clear()
        assert dep.sim.run_process(
            dep.runtimes[Region.CA].invoke("t.xfer", [LOW, HIGH])
        ).result == 0

    def test_participant_decision_lost_lease_applies_exactly_once(self):
        dep = build_xfer_deployment()
        dep.net.add_drop_filter(
            lambda src, dst, payload: (
                isinstance(payload, ShardDecision) and dst == "lvi-server-1"
            )
        )
        # The commit record lands at the coordinator, so the client is
        # acked even though the participant never hears the decision.
        outcome = dep.sim.run_process(dep.runtimes[Region.JP].invoke("t.xfer", [LOW, HIGH]))
        assert outcome.result == 0
        assert dep.metrics.counter("xshard.decision_lost") >= 1
        assert dep.stores[0].get("counters", LOW).value == 1
        drain(dep, 5_000.0)
        # The participant's lease queried the coordinator and applied its
        # slice exactly once.
        assert dep.stores[1].get("counters", HIGH).value == 1
        assert dep.metrics.counter("xshard.applied") == 2
        assert dep.pending_intents() == []

    def test_lease_query_lost_re_arms_and_settles_once(self):
        dep = build_xfer_deployment()
        participant = dep.servers[1]
        lease_ms = fast_config().followup_timeout_ms
        first_query = []

        def lose_queries_for_one_lease(src, dst, payload):
            if not isinstance(payload, ShardDecisionQuery):
                return False
            first_query[:] = first_query or [dep.sim.now]
            return dep.sim.now < first_query[0] + lease_ms

        dep.net.add_drop_filter(
            lambda src, dst, payload: (
                isinstance(payload, ShardDecision) and dst == participant.name
            )
        )
        dep.net.add_drop_filter(lose_queries_for_one_lease)
        outcome = dep.sim.run_process(dep.runtimes[Region.JP].invoke("t.xfer", [LOW, HIGH]))
        assert outcome.result == 0
        # The first lease's query timed out: the slice is still prepared,
        # and its record holds the re-armed lease.
        assert dep.metrics.counter("xshard.lease_query") == 1
        [rec] = participant._executions.values()
        assert rec.phase == "prepared"
        assert not (rec.timer.fired or rec.timer.cancelled)
        assert dep.stores[1].get("counters", HIGH).value == 0
        drain(dep, 5 * lease_ms)
        # The re-armed lease's query got through: applied exactly once, and
        # no lease is left to fire.
        assert dep.metrics.counter("xshard.lease_query") == 2
        assert dep.stores[0].get("counters", LOW).value == 1
        assert dep.stores[1].get("counters", HIGH).value == 1
        assert dep.metrics.counter("xshard.applied") == 2
        assert dep.pending_intents() == []
        assert rec.phase is None and rec.timer is None
        drain(dep, 5 * lease_ms)
        assert dep.metrics.counter("xshard.lease_query") == 2


class TestGating:
    def test_unanalyzable_multi_shard_is_a_protocol_error(self):
        dep = build_xfer_deployment()
        # Force the analyzer's verdict: an unanalyzable function has no
        # read/write sets, so it cannot be routed across shards.
        dep.registry.get("t.xfer").analyzed.analyzable = False

        def watched():
            with pytest.raises(ProtocolError, match="unanalyzable"):
                yield dep.sim.spawn(
                    dep.runtimes[Region.JP].invoke("t.xfer", [LOW, HIGH])
                )

        dep.sim.run_process(watched())


class TestBatching:
    def test_concurrent_requests_coalesce(self):
        dep = build_xfer_deployment(
            shards=1, config=fast_config(lvi_batch_window_ms=5.0)
        )
        sim = dep.sim
        procs = [
            sim.spawn(dep.runtimes[Region.JP].invoke("t.bump", [f"c:k{i}"]),
                      name=f"bump{i}")
            for i in range(3)
        ]
        sim.run(until_event=sim.all_of([p.done_event for p in procs]))
        assert [p.result.result for p in procs] == [1, 1, 1]
        assert dep.metrics.counter("batch.coalesced") > 0
        drain(dep)
        for i in range(3):
            assert dep.store.get("counters", f"c:k{i}").value == 1

    def test_batch_of_one_stays_correct(self):
        dep = build_xfer_deployment(
            shards=1, config=fast_config(lvi_batch_window_ms=5.0)
        )
        outcome = dep.sim.run_process(dep.runtimes[Region.JP].invoke("t.bump", [LOW]))
        assert outcome.result == 1
        assert dep.metrics.counter("batch.coalesced") == 0
        drain(dep)
        assert dep.store.get("counters", LOW).value == 1

    def test_window_adds_bounded_delay_only(self):
        plain = build_xfer_deployment(shards=1)
        batched = build_xfer_deployment(
            shards=1, config=fast_config(lvi_batch_window_ms=5.0)
        )
        l_plain = plain.sim.run_process(
            plain.runtimes[Region.JP].invoke("t.bump", [LOW])
        ).latency_ms
        l_batched = batched.sim.run_process(
            batched.runtimes[Region.JP].invoke("t.bump", [LOW])
        ).latency_ms
        assert l_plain <= l_batched <= l_plain + 5.0 + 1e-9

    def test_cross_shard_prepares_ride_the_batcher(self):
        dep = build_xfer_deployment(config=fast_config(lvi_batch_window_ms=5.0))
        outcome = dep.sim.run_process(dep.runtimes[Region.JP].invoke("t.xfer", [LOW, HIGH]))
        assert outcome.result == 0
        assert dep.stores[0].get("counters", LOW).value == 1
        assert dep.stores[1].get("counters", HIGH).value == 1
        drain(dep)
        assert dep.pending_intents() == []


class TestSerialProcessingModel:
    def _two_concurrent(self, server_proc_ms):
        dep = build_xfer_deployment(
            shards=1, config=fast_config(server_proc_ms=server_proc_ms)
        )
        sim = dep.sim
        procs = [
            sim.spawn(dep.runtimes[Region.JP].invoke("t.bump", [f"c:k{i}"]),
                      name=f"bump{i}")
            for i in range(2)
        ]
        sim.run(until_event=sim.all_of([p.done_event for p in procs]))
        return sorted(p.result.latency_ms for p in procs)

    def test_proc_cost_serializes_the_server(self):
        free = self._two_concurrent(0.0)
        charged = self._two_concurrent(10.0)
        assert free[1] - free[0] < 1e-9          # no CPU model: identical
        assert charged[1] - charged[0] >= 10.0 - 1e-9  # serialized behind one CPU
