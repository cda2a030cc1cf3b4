#!/usr/bin/env python3
"""Quickstart: a minimal Radical deployment in five minutes.

Builds the smallest possible world — one LVI server + primary store in
Virginia, one near-user runtime in Tokyo — registers two functions, and
walks through the three LVI protocol paths:

1. a cold read (cache miss: validation is guaranteed to fail, the backup
   runs near storage, the response repairs the cache);
2. a warm read (speculation + LVI overlap: single round trip, fully
   hidden behind execution);
3. a write (speculative execution released after validation, the write
   followup applied to the primary off the critical path).

Run:  python examples/quickstart.py
"""

from repro.analysis import extract_access_sites
from repro.core import (
    FunctionRegistry,
    FunctionSpec,
    LVIServer,
    NearUserRuntime,
    RadicalConfig,
)
from repro.sim import Metrics, Network, RandomStreams, Region, Simulator, paper_latency_table
from repro.storage import KVStore, NearUserCache

GET_PROFILE = '''
def get_profile(uid):
    profile = db_get("profiles", f"profile:{uid}")
    busy(10000)
    return profile
'''

RENAME = '''
def rename(uid, new_name):
    profile = db_get("profiles", f"profile:{uid}")
    if profile is None:
        return {"ok": False}
    busy(4000)
    profile["name"] = new_name
    db_put("profiles", f"profile:{uid}", profile)
    return {"ok": True, "name": new_name}
'''


def main() -> None:
    # -- build the world ----------------------------------------------------
    sim = Simulator()
    streams = RandomStreams(seed=2026)
    net = Network(sim, paper_latency_table(), streams)
    metrics = Metrics()
    config = RadicalConfig(service_jitter_sigma=0.0)

    # Register functions: the static analyzer derives f^rw at upload time.
    registry = FunctionRegistry()
    get_profile = registry.register(FunctionSpec("demo.get_profile", GET_PROFILE, 100.0))
    rename = registry.register(FunctionSpec("demo.rename", RENAME, 40.0))
    print("Registered functions (f^rw derived by the analyzer):")
    for record in (get_profile, rename):
        print(f"  {record.function_id}: writes={record.writes} "
              f"analyzable={record.analyzable} slice_ratio={record.analyzed.slice_ratio:.2f}")
    print("\nDerived f^rw for demo.rename:")
    print("  " + "\n  ".join(rename.analyzed.frw.disassemble().splitlines()))
    sites = extract_access_sites(rename.analyzed.frw)
    for site in sites:
        print(f"  access site: {site.kind} {site.table}/{site.key_pattern}")
    assert [s.kind for s in sites] == ["read", "write"]

    # Primary store + LVI server in Virginia; runtime + cache in Tokyo.
    store = KVStore()
    store.put("profiles", "profile:alice", {"name": "Alice", "bio": "systems"})
    LVIServer(sim, net, registry, store, config, streams, metrics)
    cache = NearUserCache(Region.JP)
    runtime = NearUserRuntime(sim, net, Region.JP, cache, registry, config, streams, metrics)

    # -- drive the three protocol paths --------------------------------------
    def flow():
        print("\n--- 1. cold read (cache miss) ---")
        outcome = yield sim.spawn(runtime.invoke("demo.get_profile", ["alice"]))
        print(f"  path={outcome.path}  latency={outcome.latency_ms:.1f} ms "
              f"result={outcome.result}")

        print("\n--- 2. warm read (speculation hides the LVI round trip) ---")
        outcome = yield sim.spawn(runtime.invoke("demo.get_profile", ["alice"]))
        print(f"  path={outcome.path}  latency={outcome.latency_ms:.1f} ms")
        print(f"  (JP<->VA RTT is 146 ms; execution is 100 ms; the LVI "
              f"request ran concurrently)")

        print("\n--- 3. write (followup applied after responding) ---")
        outcome = yield sim.spawn(runtime.invoke("demo.rename", ["alice", "Alicia"]))
        print(f"  path={outcome.path}  latency={outcome.latency_ms:.1f} ms "
              f"result={outcome.result}")
        return None

    sim.run_process(flow(), name="quickstart")
    sim.run()  # drain the write followup

    print("\nPrimary store after the followup:")
    item = store.get("profiles", "profile:alice")
    print(f"  profile:alice = {item.value} (version {item.version})")
    print("\nProtocol counters:")
    for name, value in sorted(metrics.counters().items()):
        print(f"  {name}: {value}")


if __name__ == "__main__":
    main()
