"""Shared test scaffolding: the counter-stack builder used across suites.

``build_counter_stack`` is deliberately a plain function rather than a
pytest fixture: hypothesis ``@given`` tests cannot take function-scoped
fixtures, and several suites need to call it with explicit seeds inside
the test body.  ``tests/`` has no ``__init__.py``, so pytest puts this
module on ``sys.path`` and suites import it with ``from conftest import
build_counter_stack``.

The stack itself is built by :class:`repro.topology.Deployment` — the same
builder the experiment and chaos harnesses use — so the tests exercise the
exact construction path of every experiment.  ``shards`` > 1 builds the
partitioned near-storage tier (shard 0 keeps the seed's ``lvi-server``
name and is what the returned ``store``/``server`` refer to).
"""

from repro.core import FunctionSpec, RadicalConfig
from repro.sim import Region
from repro.topology import Deployment, TopologySpec

COUNTER_SRC = '''
def bump(k):
    busy(2000)
    count = db_get("counters", f"c:{k}")
    if count is None:
        count = 0
    db_put("counters", f"c:{k}", count + 1)
    return count + 1
'''

READ_SRC = '''
def read(k):
    busy(2000)
    return db_get("counters", f"c:{k}")
'''


def build_counter_deployment(seed=1, followup_timeout=400.0,
                             regions=(Region.JP, Region.CA), config=None,
                             shards=1, mesh=None,
                             fault_plan=None, trace=False):
    """The counter stack as a :class:`Deployment` (full topology access)."""
    if config is None:
        config = RadicalConfig(
            service_jitter_sigma=0.0, followup_timeout_ms=followup_timeout
        )
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
            mesh=mesh,
            fault_plan=fault_plan,
            trace=trace,
        ),
        functions=[
            FunctionSpec("t.bump", COUNTER_SRC, 20.0),
            FunctionSpec("t.read", READ_SRC, 20.0),
        ],
        seed_data=lambda store: store.put("counters", "c:x", 0),
    )


def build_counter_stack(seed=1, followup_timeout=400.0,
                        regions=(Region.JP, Region.CA), config=None,
                        shards=1):
    """Build a single-primary counter deployment: one LVI server in VA plus
    a near-user runtime per region, all sharing one warmed key ``c:x``.

    Returns ``(sim, net, store, server, runtimes, metrics)``.
    """
    dep = build_counter_deployment(
        seed=seed, followup_timeout=followup_timeout, regions=regions,
        config=config, shards=shards,
    )
    return dep.sim, dep.net, dep.store, dep.server, dep.runtimes, dep.metrics


def assert_warm_snapshot_shared(dep):
    """Every PoP reads the same warm snapshot under an empty overlay, and a
    warm read returns the store's own item."""
    stored = {
        (table, key)
        for store in dep.stores
        for table in store.table_names() if not table.startswith("_radical")
        for key, _item in store.scan(table)
    }
    assert stored
    first, *rest = dep.caches.values()
    assert rest
    for cache in dep.caches.values():
        assert cache._snapshot is first._snapshot
        assert cache._entries == {}
        assert len(cache) == len(stored)
        assert {key for key, _entry in cache.entries()} == stored
        for key, entry in cache.entries():
            assert entry is dep.store_for(*key).get_or_none(*key)
            assert cache.lookup(*key) is entry
