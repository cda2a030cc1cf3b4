"""Value ownership: storage shares values, so no holder may edit one.

A value is copied only at the sandbox boundary (``repro.storage.fastcopy``):
in at ``KVStore.put`` / ``apply_local_write``, out at the environments'
reads.  Between those copies store items, cache entries, snapshot pins,
LVI fresh items, mesh updates and cut replies all hold the same object —
sound only while nothing edits it.

The oracle registers every object where a value enters storage (the four
entry points below), snapshots it with ``fast_deepcopy`` and keeps it alive
so its id is never reused; after a run each registered object must still
equal its snapshot.  It is driven over the deployment shapes that move
values through every holder, and over a fixture app whose one function
edits what it reads, which is what makes the three planted mutants — the
copies at the sandbox boundary, each left out — visible.
"""

import itertools

import pytest

from repro.apps import App, AppFunction, WorkloadContext, forum_app, social_media_app
from repro.bench import PAPER_JITTER_SIGMA, drive_closed_loop
from repro.core import FunctionSpec, RadicalConfig
from repro.core.server import LVIServer
from repro.core.storage_library import PrimaryEnv, SnapshotReader, SpeculativeEnv
from repro.faults.chaos import builtin_plans, run_chaos_case
from repro.mesh import MeshPop, MeshSpec, Session
from repro.sim import Region
from repro.storage import KVStore, NearUserCache
from repro.storage.fastcopy import fast_deepcopy
from repro.topology import Deployment, TopologySpec
from repro.workloads import ClosedLoopClient, run_clients

_SCALARS = (str, int, float, bool, type(None))


class Ownership:
    """Registers every value entering storage for the rest of the test."""

    def __init__(self, monkeypatch):
        self._held = {}  # id -> (entry point, object, snapshot)
        put = KVStore.put
        apply_local_write = NearUserCache.apply_local_write
        log_own_update = MeshPop._log_own_update
        collect_fresh = LVIServer._collect_fresh

        def patched_put(store, table, key, value):
            version = put(store, table, key, value)
            self.register("KVStore.put", store._tables[table][key].value)
            return version

        def patched_apply_local_write(cache, table, key, value, version):
            apply_local_write(cache, table, key, value, version)
            self.register("apply_local_write", cache._entries[(table, key)].value)

        def patched_log_own_update(pop, table, key, value, version):
            self.register("_log_own_update", value)
            log_own_update(pop, table, key, value, version)

        def patched_collect_fresh(server, keys, client):
            fresh = collect_fresh(server, keys, client)
            for item in fresh.values():
                self.register("fresh item", item.value)
            return fresh

        monkeypatch.setattr(KVStore, "put", patched_put)
        monkeypatch.setattr(NearUserCache, "apply_local_write", patched_apply_local_write)
        monkeypatch.setattr(MeshPop, "_log_own_update", patched_log_own_update)
        monkeypatch.setattr(LVIServer, "_collect_fresh", patched_collect_fresh)

    def register(self, site, obj):
        if not isinstance(obj, _SCALARS) and id(obj) not in self._held:
            self._held[id(obj)] = (site, obj, fast_deepcopy(obj))

    def edited(self):
        """(entry point, snapshot, now) for every object edited since."""
        return [(site, snap, obj) for site, obj, snap in self._held.values() if obj != snap]

    def __len__(self):
        return len(self._held)


# -- apps ------------------------------------------------------------------

COUNTER_READ_SRC = '''
def read_counter(k):
    return db_get("counters", k)
'''

COUNTER_BUMP_SRC = '''
def bump_counter(k):
    count = db_get("counters", k)
    db_put("counters", k, count + 1)
    return count + 1
'''

#: Edits everything it reads: its own list in place, then the read-back of
#: its own write.  Neither edit may reach storage, and only the list put
#: may.
APPEND_SRC = '''
def append(k, x):
    items = db_get("lists", k)
    items.append(x)
    db_put("lists", k, items)
    back = db_get("lists", k)
    back.append("scratch")
    return len(items)
'''


def counter_app(keys, write_pct):
    def pick(c, rng):
        return [f"c:{c.zipf('counters', keys, rng)}"]

    def seed(store, streams, c):
        for i in range(keys):
            store.put("counters", f"c:{i}", 0)

    return App(
        name="counter",
        functions=[
            AppFunction(FunctionSpec("counter.read", COUNTER_READ_SRC, 20.0, 100.0 - write_pct), pick),
            AppFunction(FunctionSpec("counter.bump", COUNTER_BUMP_SRC, 20.0, write_pct), pick),
        ],
        seed=seed,
        context=WorkloadContext(zipf_s=0.99),
    )


def append_app(keys=2):
    def args(c, rng):
        return [f"l:{rng.randrange(keys)}", rng.randrange(1000)]

    def seed(store, streams, c):
        for i in range(keys):
            store.put("lists", f"l:{i}", [])

    return App(
        name="append",
        functions=[AppFunction(FunctionSpec("lists.append", APPEND_SRC, 20.0, 100.0), args)],
        seed=seed,
    )


# -- deployments -----------------------------------------------------------


def social_closed():
    app = social_media_app()
    spec = TopologySpec(seed=42, network_jitter_sigma=PAPER_JITTER_SIGMA)
    return drive_closed_loop(Deployment.build(spec, app=app), app, requests=100)


def counter_contended():
    app = counter_app(keys=8, write_pct=50.0)
    spec = TopologySpec(seed=42, network_jitter_sigma=PAPER_JITTER_SIGMA)
    return drive_closed_loop(
        Deployment.build(spec, app=app), app, requests=200, clients_per_region=4
    )


def readmix_sharded():
    app = counter_app(keys=32, write_pct=10.0)
    spec = TopologySpec(
        seed=42, shards=2, network_jitter_sigma=PAPER_JITTER_SIGMA,
        config=RadicalConfig(conflict_detection=True, read_replicas=2),
    )
    return drive_closed_loop(Deployment.build(spec, app=app), app, requests=200)


def _migrating_invoke(dep, home, away, session, every=4):
    """A session client that re-attaches to ``away`` for every other run of
    ``every`` requests, so its PoPs pull session cuts from their peers."""
    calls = itertools.count()

    def invoke(function_id, args):
        region = home if (next(calls) // every) % 2 == 0 else away
        runtime = dep.runtimes[region]
        if session.region != region:
            yield from runtime.attach(session)
        return (yield from runtime.invoke(function_id, args, session=session))

    return invoke


def forum_mesh():
    # Gossip slow enough that a re-attach must pull its session's cut.
    app = forum_app()
    spec = TopologySpec(seed=42, mesh=MeshSpec(gossip_interval_ms=1000.0))
    dep = Deployment.build(spec, app=app)
    regions = list(spec.regions)
    clients = []
    for n, region in enumerate(regions):
        for i in range(2):
            session = Session(f"{region}-{i}")
            clients.append(ClosedLoopClient(
                sim=dep.sim, app=app, region=region,
                invoke=_migrating_invoke(dep, region, regions[(n + 1) % len(regions)], session),
                metrics=dep.metrics,
                rng=dep.streams.fork(f"client.{region}.{i}").stream("workload"),
                requests=12,
            ))
    run_clients(dep.sim, clients)
    assert dep.metrics.counter("mesh.cut_fetched") > 0
    assert dep.metrics.counter("mesh.updates_applied") > 0
    return dep


def raft_chaos():
    result = run_chaos_case(
        builtin_plans()["raft-leader-mid-validate"], seed=0, requests_per_client=10
    )
    assert result.ok, result.violation


def appender(regions=(Region.JP, Region.CA)):
    app = append_app()
    spec = TopologySpec(regions=regions, seed=42)
    return drive_closed_loop(Deployment.build(spec, app=app), app, requests=80)


DEPLOYMENTS = {
    "social-closed": social_closed,
    "counter-contended": counter_contended,
    "forum-mesh": forum_mesh,
    "readmix-sharded": readmix_sharded,
    "raft-chaos": raft_chaos,
}


@pytest.mark.parametrize("name", list(DEPLOYMENTS))
def test_storage_never_edits_a_value(monkeypatch, name):
    ownership = Ownership(monkeypatch)
    DEPLOYMENTS[name]()
    assert len(ownership) > 0
    assert ownership.edited() == []


def _scratch_in_storage(dep):
    """Keys whose stored or cached list holds a sandbox's edit of a read."""
    stored = [("store", k) for k, item in dep.store.scan("lists") if "scratch" in item.value]
    cached = [
        (region, k) for region, cache in dep.caches.items()
        for k, entry in cache.entries() if "scratch" in (entry.value or ())
    ]
    return stored + cached


def test_fixture_app_edits_stay_in_the_sandbox(monkeypatch):
    ownership = Ownership(monkeypatch)
    dep = appender()
    assert ownership.edited() == []
    assert _scratch_in_storage(dep) == []
    # Both sides of the boundary ran: speculation, and executions at the
    # primary (validation failed on a contended list).
    assert dep.metrics.counter("validation.success") > 0
    assert dep.metrics.counter("validation.failure") > 0
    appended = sum(len(item.value) for _k, item in dep.store.scan("lists"))
    assert appended == dep.metrics.counter("requests.total")


# -- planted mutants: each leaves out one copy at the sandbox boundary -------


def _pin_handed_out(self, table, key):
    return self._values[self._pin(table, key)]


def _primary_get_uncopied(self, table, key):
    item = self.store.get_or_none(table, key)
    self.read_versions.setdefault((table, key), 0 if item is None else item.version)
    return None if item is None else item.value


def _own_write_uncopied(self, table, key):
    if (table, key) in self._buffer:
        return self._buffer[(table, key)]
    return self.snapshot.read(table, key)


MUTANTS = {
    "pin-uncopied": (SnapshotReader, "read", _pin_handed_out),
    "primary-get-uncopied": (PrimaryEnv, "db_get", _primary_get_uncopied),
    "own-write-uncopied": (SpeculativeEnv, "db_get", _own_write_uncopied),
}


@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_planted_mutant_is_killed(monkeypatch, mutant):
    owner, attr, planted = MUTANTS[mutant]
    monkeypatch.setattr(owner, attr, planted)
    ownership = Ownership(monkeypatch)
    dep = appender()
    assert ownership.edited() or _scratch_in_storage(dep), f"{mutant} survived"
