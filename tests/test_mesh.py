"""The PoP cache mesh: gossip, sessions, migration, crash recovery.

Covers the mesh's core claims end to end on real deployments (gossip
propagates writes, a crashed PoP re-bootstraps under a fresh epoch, a
migrating session never loses its guarantees) and unit-level (causal
buffering of out-of-order digests, the 1-PoP mesh being virtual-time
identical to the seed path), plus the satellite pieces that ride along:
the ``cache.hit_age_ms`` metric, fault-plan overlap validation, and the
mesh chaos plans.  ``TestShipOnceGossip`` pins the one-way protocol's
cost and recovery properties: ship-once, idle suppression, retransmit
after loss, relay around a cut link, and reordering-proof acks.
"""

import math

import pytest

from repro.consistency import find_causal_cut_violations
from repro.errors import FaultConfigError
from repro.faults import (
    CrashWindow,
    DropWindow,
    FaultPlan,
    MigrationWindow,
    PartitionWindow,
    PoPCrashWindow,
    PoPPartitionWindow,
    SlowServerWindow,
)
from repro.mesh import CacheMesh, GossipDigest, MeshSpec, MeshUpdate, Session
from repro.sim import Metrics, Network, RandomStreams, Region, Simulator, paper_latency_table
from repro.storage import NearUserCache
from repro.storage.kvstore import Item

from conftest import build_counter_deployment

KEY = ("counters", "c:x")


def build_mesh_deployment(regions=(Region.JP, Region.CA), gossip_ms=50.0,
                          seed=1, fault_plan=None, **mesh_kwargs):
    return build_counter_deployment(
        seed=seed, regions=regions, fault_plan=fault_plan,
        mesh=MeshSpec(gossip_interval_ms=gossip_ms, **mesh_kwargs),
    )


def bare_mesh():
    """A started JP+CA mesh with no deployment around it: digests are fed
    to the JP PoP by hand."""
    sim = Simulator()
    net = Network(sim, paper_latency_table(), RandomStreams(1))
    mesh = CacheMesh(sim, net, MeshSpec(), [Region.JP, Region.CA], Metrics())
    jp = mesh.make_pop(Region.JP)
    mesh.make_pop(Region.CA)
    mesh.start()
    return mesh, jp


def invoke(dep, region, fn, args, session=None):
    gen = dep.runtimes[region].invoke(fn, args, session=session)
    return dep.sim.run_process(gen)


def attach(dep, region, session):
    return dep.sim.run_process(dep.runtimes[region].attach(session))


class TestGossip:
    def test_write_propagates_to_peer_pop(self):
        dep = build_mesh_deployment()
        jp, ca = dep.mesh.pop(Region.JP), dep.mesh.pop(Region.CA)
        warm = ca.version(*KEY)
        invoke(dep, Region.JP, "t.bump", ["x"])
        dep.sim.run(until=dep.sim.now + 2_000.0)
        assert jp.version(*KEY) > warm
        assert ca.version(*KEY) == jp.version(*KEY)
        assert ca.lookup(*KEY).value == jp.lookup(*KEY).value
        assert dep.metrics.counter("mesh.updates_applied") > 0

    def test_one_pop_mesh_is_virtual_time_identical_to_seed(self):
        def run(mesh):
            dep = build_counter_deployment(seed=7, regions=(Region.JP,), mesh=mesh)
            for _ in range(4):
                invoke(dep, Region.JP, "t.bump", ["x"])
            dep.sim.run(until=dep.sim.now + 1_000.0)
            return dep

        seed_dep, mesh_dep = run(None), run(MeshSpec(gossip_interval_ms=50.0))
        assert mesh_dep.sim.now == seed_dep.sim.now
        assert mesh_dep.metrics.samples("e2e") == seed_dep.metrics.samples("e2e")
        assert mesh_dep.metrics.counter("mesh.gossip_sent") == 0
        assert mesh_dep.store.get(*KEY).version == seed_dep.store.get(*KEY).version

    def test_out_of_order_digest_is_buffered_until_causal(self):
        _mesh, jp = bare_mesh()

        u1 = MeshUpdate("ca#0", 1, "counters", "c:x", 1, 2, deps=())
        u2 = MeshUpdate("ca#0", 2, "counters", "c:x", 2, 3, deps=(("ca#0", 1),))
        jp.receive_digest(GossipDigest(Region.CA, (("ca#0", 2),), (u2,)))
        assert jp.vv.get("ca#0", 0) == 0          # not applied out of order
        assert len(jp.buffered) == 1
        assert jp.version(*KEY) < 2               # cache untouched
        jp.receive_digest(GossipDigest(Region.CA, (("ca#0", 2),), (u1,)))
        assert jp.vv["ca#0"] == 2                 # buffer drained in order
        assert not jp.buffered
        assert jp.version(*KEY) == 3
        assert find_causal_cut_violations(jp.applied_log) == []

    def test_cross_origin_dependency_holds_update_back(self):
        _mesh, jp = bare_mesh()

        # ie's update depends on ca#0:1, which jp has not applied.
        u = MeshUpdate("ie#0", 1, "counters", "c:x", 9, 5, deps=(("ca#0", 1),))
        jp.receive_digest(GossipDigest("ie", (("ie#0", 1),), (u,)))
        assert jp.vv.get("ie#0", 0) == 0 and len(jp.buffered) == 1
        jp.receive_digest(
            GossipDigest(
                Region.CA, (("ca#0", 1),),
                (MeshUpdate("ca#0", 1, "counters", "c:x", 1, 2, deps=()),),
            )
        )
        assert jp.vv.get("ie#0", 0) == 1          # dependency satisfied -> applied
        assert find_causal_cut_violations(jp.applied_log) == []


class TestShipOnceGossip:
    def test_fault_free_run_ships_every_update_once(self):
        dep = build_mesh_deployment()
        for region in (Region.JP, Region.CA, Region.JP):
            invoke(dep, region, "t.bump", ["x"])
        dep.sim.run(until=dep.sim.now + 2_000.0)
        shipped = dep.metrics.counter("mesh.updates_shipped")
        assert shipped > 0
        assert shipped == dep.metrics.counter("mesh.updates_applied")
        assert dep.metrics.counter("mesh.gossip_timeout") == 0

    def test_idle_mesh_only_heartbeats(self):
        dep = build_mesh_deployment(regions=Region.NEAR_USER, gossip_ms=25.0)
        sent = {}

        def count(_now, src, dst, payload):
            if isinstance(payload, GossipDigest):
                sent[(src, dst)] = sent.get((src, dst), 0) + 1

        dep.net.tracer = count
        dep.sim.run(until=dep.sim.now + 2_000.0)
        assert len(sent) == 20                    # every directed link is alive
        bound = math.ceil(2_000.0 / dep.mesh.spec.gossip_timeout_ms) + 1
        assert max(sent.values()) <= bound

    def test_lost_update_is_retransmitted_after_the_horizon(self):
        heal = 1_100.0
        plan = FaultPlan("jp-ca-blackhole", (DropWindow(Region.JP, Region.CA, 100.0, heal),))
        dep = build_mesh_deployment(fault_plan=plan)
        spec = dep.mesh.spec
        assert heal - 100.0 > spec.gossip_timeout_ms
        jp, ca = dep.mesh.pop(Region.JP), dep.mesh.pop(Region.CA)
        dep.sim.run(until=150.0)
        invoke(dep, Region.JP, "t.bump", ["x"])   # written inside the window
        assert dep.sim.now < heal
        dep.sim.run(until=heal)
        assert ca.version(*KEY) < jp.version(*KEY)
        while ca.version(*KEY) < jp.version(*KEY) and dep.sim.now < heal + 5_000.0:
            dep.sim.run(until=dep.sim.now + 5.0)
        one_way = dep.net.latency.one_way(Region.JP, Region.CA)
        assert ca.version(*KEY) == jp.version(*KEY)
        assert dep.sim.now <= heal + spec.gossip_timeout_ms + spec.gossip_interval_ms + one_way + 5.0
        assert dep.metrics.counter("mesh.gossip_timeout") > 0

    def test_update_relays_around_a_partitioned_link(self):
        dep = build_mesh_deployment(regions=(Region.JP, Region.CA, Region.IE))
        dep.net.partition(Region.JP, Region.CA)
        invoke(dep, Region.JP, "t.bump", ["x"])
        dep.sim.run(until=dep.sim.now + 1_000.0)
        jp, ca = dep.mesh.pop(Region.JP), dep.mesh.pop(Region.CA)
        assert ca.version(*KEY) == jp.version(*KEY)
        assert ca.vv.get("jp#0", 0) == jp.vv["jp#0"]   # relayed by IE, origin kept

    def test_reordered_digest_neither_lowers_the_ack_nor_resends(self):
        _mesh, jp = bare_mesh()
        for version in range(1, 6):
            jp.apply_local_write("counters", "c:x", version, version)
        assert len(jp.build_digest(Region.CA, 64).updates) == 5

        jp.receive_digest(GossipDigest(Region.CA, (("jp#0", 5),)))
        jp.receive_digest(GossipDigest(Region.CA, (("jp#0", 3),)))  # late, older
        assert jp.peer_vv[Region.CA] == {"jp#0": 5}
        assert not jp.digest_due(Region.CA)
        assert jp.build_digest(Region.CA, 64).updates == ()

        # Only a new incarnation resets the ack — and with it the mark.
        jp.receive_digest(GossipDigest(Region.CA, (), epoch=1))
        assert jp.peer_vv[Region.CA] == {}
        assert jp.digest_due(Region.CA)
        assert len(jp.build_digest(Region.CA, 64).updates) == 5
        jp.receive_digest(GossipDigest(Region.CA, (("jp#0", 5),)))  # dead incarnation
        assert jp.peer_vv[Region.CA] == {}

    def test_dependency_buffer_is_keyed_and_its_high_water_mark_exported(self):
        mesh, jp = bare_mesh()
        metrics = mesh.metrics
        chain = [
            MeshUpdate("ca#0", seq, "counters", "c:x", seq, seq + 1,
                       deps=(("ca#0", seq - 1),) if seq > 1 else ())
            for seq in range(1, 5)
        ]
        for _ in range(2):  # the second copy of each is recognised, not re-buffered
            jp.receive_digest(GossipDigest(Region.CA, (("ca#0", 4),), tuple(chain[1:])))
        assert sorted(jp.buffered) == [("ca#0", 2), ("ca#0", 3), ("ca#0", 4)]
        assert metrics.counter("mesh.updates_buffered") == 3
        jp.receive_digest(GossipDigest(Region.CA, (("ca#0", 4),), (chain[0],)))
        assert not jp.buffered and jp.vv["ca#0"] == 4
        assert metrics.counter("mesh.buffered_max") == mesh.buffered_max == 3
        assert find_causal_cut_violations(jp.applied_log) == []


class TestMeshSweepGate:
    ROW = {
        "app": "forum", "mesh": "on-25ms", "chaos": "none",
        "abort_rate": 0.03, "backup_rate": 0.03, "cache_hits": 10,
        "gossip_sent": 100, "updates_shipped": 1_000, "updates_applied": 280,
    }

    def test_waste_ratchet_rejects_per_round_reshipping(self):
        from repro.bench.mesh import mesh_gate_failures

        assert mesh_gate_failures({"rows": [self.ROW]}) == []
        wasteful = dict(self.ROW, updates_applied=70)   # the RPC-gossip ratio
        failures = mesh_gate_failures({"rows": [wasteful]})
        assert len(failures) == 1 and "re-shipping" in failures[0]

    def test_waste_ratchet_spares_chaos_rows(self):
        from repro.bench.mesh import mesh_gate_failures

        lossy = dict(self.ROW, chaos="pop-partition", updates_applied=70)
        assert mesh_gate_failures({"rows": [lossy]}) == []


class TestCrashRestart:
    def test_crashed_pop_rebootstraps_with_fresh_epoch(self):
        dep = build_mesh_deployment()
        jp, ca = dep.mesh.pop(Region.JP), dep.mesh.pop(Region.CA)
        invoke(dep, Region.JP, "t.bump", ["x"])
        dep.sim.run(until=dep.sim.now + 1_000.0)
        assert ca.version(*KEY) == jp.version(*KEY)

        ca.crash()
        assert not ca.serving
        assert ca.version(*KEY) < 0               # cache wiped
        invoke(dep, Region.JP, "t.bump", ["x"])   # written while ca is down
        ca.restart()
        assert ca.epoch == 1 and ca.origin == "ca#1"
        dep.sim.run(until=dep.sim.now + 2_000.0)

        # Peers saw the zeroed vector and re-sent everything they held.
        assert ca.version(*KEY) == jp.version(*KEY)
        for pop in (jp, ca):
            for label, log in pop.application_logs():
                assert find_causal_cut_violations(log, label=label) == []

    def test_downed_pop_refuses_invocations(self):
        from repro.errors import UnavailableError
        from repro.sim.core import SimulationError

        dep = build_mesh_deployment()
        dep.mesh.pop(Region.JP).crash()
        with pytest.raises(SimulationError) as exc:
            invoke(dep, Region.JP, "t.read", ["x"])
        assert isinstance(exc.value.__cause__, UnavailableError)
        assert dep.metrics.counter("mesh.pop_down") == 1


class TestSessionMigration:
    def test_reattach_pulls_cut_from_peer(self):
        # Gossip effectively off: the cut fetch at attach time is the only
        # way the new PoP can reach the session's floor.
        dep = build_mesh_deployment(gossip_ms=600_000.0)
        session = Session("client-1")
        attach(dep, Region.JP, session)
        invoke(dep, Region.JP, "t.bump", ["x"], session=session)
        dep.sim.run(until=dep.sim.now + 1_000.0)
        ca = dep.mesh.pop(Region.CA)
        assert ca.version(*KEY) < session.floor(KEY)  # stale before attach

        attach(dep, Region.CA, session)
        assert session.migrations == 1
        assert dep.metrics.counter("mesh.cut_fetched") >= 1
        assert ca.version(*KEY) >= session.floor(KEY)
        outcome = invoke(dep, Region.CA, "t.read", ["x"], session=session)
        assert outcome.read_versions[KEY] >= session.floor(KEY)

    def test_unsatisfied_floor_forces_full_lvi_path(self):
        dep = build_mesh_deployment(gossip_ms=600_000.0)
        session = Session("client-1")
        attach(dep, Region.JP, session)
        invoke(dep, Region.JP, "t.bump", ["x"], session=session)
        dep.sim.run(until=dep.sim.now + 1_000.0)

        # Cut the inter-PoP link: the re-attach cut fetch times out, so the
        # stale cache entry survives — floor enforcement must turn it into
        # a miss rather than let the session speculate on it.
        dep.net.partition(Region.JP, Region.CA)
        attach(dep, Region.CA, session)
        assert dep.metrics.counter("mesh.cut_unsatisfied") >= 1
        outcome = invoke(dep, Region.CA, "t.read", ["x"], session=session)
        assert dep.metrics.counter("mesh.session_stale") >= 1
        # The full path still returns a floor-satisfying (fresh) read.
        assert outcome.read_versions[KEY] >= session.floor(KEY)

    def test_session_observes_acked_versions(self):
        dep = build_mesh_deployment()
        session = Session("client-1")
        attach(dep, Region.JP, session)
        outcome = invoke(dep, Region.JP, "t.bump", ["x"], session=session)
        assert session.floor(KEY) == outcome.write_versions[KEY]
        assert session.region == Region.JP


class TestHitAgeMetric:
    def test_hit_age_measured_from_install_time(self):
        sim = Simulator()
        metrics = Metrics()
        cache = NearUserCache(Region.JP)
        cache.bind(sim, metrics)
        cache.install("t", "k", Item(value="v", version=1))
        sim.schedule(250.0, lambda: None)
        sim.run()
        assert cache.lookup("t", "k").value == "v"
        samples = metrics.samples_tagged("cache.hit_age_ms", region=Region.JP)
        assert samples == [250.0]

    def test_disabled_metrics_record_nothing(self):
        sim = Simulator()
        metrics = Metrics()
        metrics.enabled = False
        cache = NearUserCache(Region.JP)
        cache.bind(sim, metrics)
        cache.install("t", "k", Item(value="v", version=1))
        cache.lookup("t", "k")
        metrics.enabled = True
        assert metrics.samples_tagged("cache.hit_age_ms") == []

    def test_deployment_records_hit_ages(self):
        dep = build_counter_deployment()
        invoke(dep, Region.JP, "t.read", ["x"])
        assert dep.metrics.samples_tagged("cache.hit_age_ms", region=Region.JP)


class TestPlanOverlapValidation:
    def test_overlapping_crash_windows_on_same_target_rejected(self):
        plan = FaultPlan("p", (
            CrashWindow("lvi-server", 100.0, 900.0),
            CrashWindow("lvi-server", 500.0, 1_200.0),
        ))
        with pytest.raises(FaultConfigError, match="conflicting windows"):
            plan.validate()

    def test_crash_and_limp_on_same_target_rejected(self):
        plan = FaultPlan("p", (
            CrashWindow("lvi-server", 100.0, 900.0),
            SlowServerWindow("lvi-server", 400.0, 1_500.0, proc_ms=50.0),
        ))
        with pytest.raises(FaultConfigError, match="conflicting windows"):
            plan.validate()

    def test_pop_partition_conflicts_with_partition_on_same_link(self):
        plan = FaultPlan("p", (
            PartitionWindow(Region.JP, Region.VA, 100.0, 2_000.0),
            PoPPartitionWindow(Region.JP, 500.0, 1_500.0, peers=(), wan=True),
        ))
        with pytest.raises(FaultConfigError, match="conflicting windows"):
            plan.validate()

    def test_error_names_both_windows(self):
        plan = FaultPlan("p", (
            CrashWindow("lvi-server", 100.0, 900.0),
            CrashWindow("lvi-server", 500.0, 1_200.0),
        ))
        with pytest.raises(FaultConfigError) as exc:
            plan.validate()
        message = str(exc.value)
        assert "lvi-server" in message and "overlaps" in message
        assert "100.0" in message and "500.0" in message  # both windows named

    def test_disjoint_windows_on_same_target_pass(self):
        FaultPlan("p", (
            CrashWindow("lvi-server", 100.0, 900.0),
            CrashWindow("lvi-server", 1_000.0, 2_000.0),
        )).validate()

    def test_same_link_different_knobs_pass(self):
        FaultPlan("p", (
            PartitionWindow(Region.JP, Region.VA, 100.0, 2_000.0),
            SlowServerWindow("lvi-server", 100.0, 2_000.0, proc_ms=50.0),
        )).validate()

    def test_same_instant_migrations_of_same_client_rejected(self):
        plan = FaultPlan("p", (
            MigrationWindow("jp-0", Region.CA, 500.0),
            MigrationWindow("jp-0", Region.IE, 500.0),
        ))
        with pytest.raises(FaultConfigError, match="conflicting windows"):
            plan.validate()

    def test_distinct_migrations_pass(self):
        FaultPlan("p", (
            MigrationWindow("jp-0", Region.CA, 500.0),
            MigrationWindow("jp-0", Region.IE, 900.0),
            MigrationWindow("ca-0", Region.IE, 500.0),
        )).validate()

    def test_open_ended_overlap_detected(self):
        plan = FaultPlan("p", (
            PoPCrashWindow(Region.JP, 100.0),  # never restarts
            PoPCrashWindow(Region.JP, 5_000.0, 6_000.0),
        ))
        with pytest.raises(FaultConfigError, match="conflicting windows"):
            plan.validate()

    def test_existing_builtin_plans_still_validate(self):
        from repro.faults import builtin_plans

        for plan in builtin_plans().values():
            plan.validate()


class TestMeshSpecValidation:
    def test_bad_interval_rejected(self):
        with pytest.raises(FaultConfigError):
            MeshSpec(gossip_interval_ms=0.0).validate()

    def test_bad_digest_cap_rejected(self):
        with pytest.raises(FaultConfigError):
            MeshSpec(max_updates_per_digest=0).validate()

    def test_topology_spec_validates_mesh(self):
        from repro.topology import TopologySpec

        with pytest.raises(FaultConfigError):
            TopologySpec(mesh=MeshSpec(gossip_interval_ms=-1.0)).validate()

    def test_pop_crash_without_mesh_rejected_at_build(self):
        # A PoPCrashWindow needs a mesh PoP to crash; without one the
        # fault scheduler must refuse the plan instead of silently no-oping.
        plan = FaultPlan("p", (PoPCrashWindow(Region.JP, 100.0, 900.0),))
        with pytest.raises(FaultConfigError):
            build_counter_deployment(fault_plan=plan, mesh=None)


class TestMeshChaosPlans:
    def test_mesh_pop_crash_case_passes_with_failover(self):
        from repro.faults import builtin_plans, run_chaos_case

        result = run_chaos_case(
            builtin_plans()["mesh-pop-crash"], seed=0, requests_per_client=8,
        )
        assert result.ok
        assert result.session_ok
        assert result.migrations >= 1          # jp's client failed over
        assert result.counters.get("mesh.updates_applied", 0) > 0

    def test_mesh_migration_storm_keeps_sessions_clean(self):
        from repro.faults import builtin_plans, run_chaos_case

        result = run_chaos_case(
            builtin_plans()["mesh-migration-storm"], seed=1,
            requests_per_client=12,
        )
        assert result.ok
        assert result.migrations >= 3
        assert result.ryw_violations == 0
        assert result.mr_violations == 0
        assert result.causal_violations == 0

    def test_migration_to_unknown_region_rejected(self):
        from repro.faults import run_chaos_case

        plan = FaultPlan(
            "bad-migration",
            (MigrationWindow("jp-0", Region.DE, 500.0),),
            mesh=True,
        )
        with pytest.raises(FaultConfigError, match="no runtime"):
            run_chaos_case(plan, seed=0, requests_per_client=2)
