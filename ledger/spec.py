"""Names, units, directions and bounds: the ledger's vocabulary.

``BENCHMARK.json`` at the repo root carries the same workloads and metrics
(``ledger/tests`` checks the two agree).  Two bounds exist per end-to-end
metric because two different questions get asked:

* ``seed_bound`` — the share of the median by which a metric may worsen
  between two sets of runs that use *different* seeds (what the driver does);
  it has to sit above the seed-to-seed spread, so it is loose.
* ``bound`` — what ``run.py compare`` applies between two reports of the
  *same* seed and size.  Virtual metrics are exact per seed, so these are the
  tight bounds; ``absolute`` ones are in the metric's own unit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

WORKLOADS: Dict[str, str] = {
    "social-closed":
        "Paper's Figure-4 social app, closed loop on the seed topology: the headline claim; router, mesh and raft idle",
    "counter-contended":
        "64 zipf counters, 50% writes, 40 clients: lock queues, failed validation and the backup path carry the load",
    "readmix-sharded":
        "Open loop on 4 shards x 3 replicas with conflict detection: the only capacity-limited one, carries the rate ladder",
    "forum-mesh":
        "Forum app over a 5-PoP gossip mesh: network and mesh do most of the work, kernel runs on background timers",
    "raft-faulted":
        "Open loop through a leader crash, a partition and packet loss on Raft-replicated storage: retries, breaker, failover",
    "layers-isolated":
        "One microbench per layer plus a zero-RTT deployment: a layer's speed-up undiluted, protocol changes must stay flat",
}


@dataclass(frozen=True)
class EndToEnd:
    unit: str
    better: str          # "lower" | "higher"
    seed_bound: float    # share of the median; BENCHMARK.json's bound
    bound: float         # same-seed bound for ``compare``
    absolute: bool       # ``bound`` is in the metric's unit, not a share
    clock: str           # "virtual" | "host"
    why: str


END_TO_END: Dict[str, EndToEnd] = {
    "e2e_p50_ms": EndToEnd("ms", "lower", 0.03, 0.01, False, "virtual",
                           "median client request -> reply latency: what the paper's claim is about"),
    "e2e_p99_ms": EndToEnd("ms", "lower", 0.25, 0.03, False, "virtual",
                           "tail latency: where lock queues, retries and backlog show first"),
    "p50_vs_primary_pct": EndToEnd("%", "lower", 0.05, 0.5, True, "virtual",
                                   "p50 as a percentage of the primary-datacenter baseline's on the same inputs; "
                                   "gain_vs_primary_pct is 100 minus this (paper: 28-35)"),
    "goodput_rps": EndToEnd("1/s", "higher", 0.12, 0.01, False, "virtual",
                            "successful requests per virtual second of makespan"),
    "max_rate_in_slo_rps": EndToEnd("1/s", "higher", 0.12, 0.0, True, "virtual",
                                    "highest offered rate that met the latency limit with no growing backlog"),
    "in_slo_share": EndToEnd("share", "higher", 0.08, 0.002, True, "virtual",
                             "requests that succeeded within the latency limit / attempted (1 - slo_miss_share)"),
    "ok_share": EndToEnd("share", "higher", 0.02, 0.001, True, "virtual",
                         "requests that succeeded with a right result / attempted (1 - failed_share)"),
    "invariants_ok": EndToEnd("count", "higher", 0.01, 0.0, True, "virtual",
                              "1 iff every output check of the workload passed"),
    "events_per_req": EndToEnd("count", "lower", 0.06, 0.005, False, "virtual",
                               "kernel events dispatched per attempted request: the exact cost of simulating one"),
    "run_cpu_s": EndToEnd("s", "lower", 0.25, 0.10, False, "host",
                          "host CPU seconds of the timed region, each slice's fastest repetition, untraced and unprobed"),
    "setup_s": EndToEnd("s", "lower", 0.25, 0.20, False, "host",
                        "host CPU seconds before the timed region: imports + median build/seed/warm"),
    "peak_rss_mb": EndToEnd("MB", "lower", 0.05, 0.05, False, "host",
                            "ru_maxrss of the workload's process"),
}

#: name -> (unit, better, exact).  ``exact`` metrics are virtual-clock counts
#: or times: two runs of one commit on one seed must agree to the last digit.
PER_LAYER: Dict[str, Tuple[str, str, bool]] = {
    "sim.core.events_per_req": ("count", "lower", True),
    "sim.core.self_share": ("share", "lower", False),
    "sim.core.dispatch_events_per_s": ("1/s", "higher", False),
    "sim.core.pingpong_events_per_s": ("1/s", "higher", False),
    "sim.network.msgs_per_req": ("count", "lower", True),
    "sim.network.self_share": ("share", "lower", False),
    "sim.network.send_deliver_per_s": ("1/s", "higher", False),
    "wasm.vm.execs_per_req": ("count", "lower", True),
    "wasm.vm.gas_per_req": ("count", "lower", True),
    "wasm.vm.self_share": ("share", "lower", False),
    "wasm.vm.gas_per_s": ("1/s", "higher", False),
    "storage.kv_ops_per_req": ("count", "lower", True),
    "storage.copies_per_req": ("count", "lower", True),
    "storage.lock_acquires_per_req": ("count", "lower", True),
    "storage.lock_wait_p99_ms": ("ms", "lower", True),
    "storage.cache_hit_ratio": ("ratio", "higher", True),
    "storage.self_share": ("share", "lower", False),
    "storage.kv_ops_per_s": ("1/s", "higher", False),
    "storage.lock_cycles_per_s": ("1/s", "higher", False),
    "storage.intent_cycles_per_s": ("1/s", "higher", False),
    "storage.fastcopy_per_s": ("1/s", "higher", False),
    "core.runtime.spec_success_ratio": ("ratio", "higher", True),
    "core.runtime.backup_share": ("share", "lower", True),
    "core.runtime.phase.overhead_p50_ms": ("ms", "lower", True),
    "core.runtime.phase.frw_p50_ms": ("ms", "lower", True),
    "core.runtime.phase.spec_overlap_p50_ms": ("ms", "lower", True),
    "core.runtime.phase.spec_overlap_p99_ms": ("ms", "lower", True),
    "core.runtime.overlap_rtt_bound_share": ("share", "higher", True),
    "core.runtime.rpc_retries_per_req": ("count", "lower", True),
    "core.runtime.breaker_fast_fail_share": ("share", "lower", True),
    "core.runtime.self_share": ("share", "lower", False),
    "core.server.self_share": ("share", "lower", False),
    "core.server.lvi_reqs_per_req": ("count", "lower", True),
    "core.server.followups_per_req": ("count", "lower", True),
    "core.server.primary_util": ("ratio", "lower", True),
    "core.invoke_zero_rtt_per_s": ("1/s", "higher", False),
    "topology.shardmap.lock_skip_ratio": ("ratio", "higher", True),
    "topology.shardmap.conflict_hit_ratio": ("ratio", "lower", True),
    "topology.shardmap.replica_bounce_ratio": ("ratio", "lower", True),
    "topology.shardmap.dirty_depth_max": ("count", "lower", True),
    "topology.shardmap.dirty_leaked": ("count", "lower", True),
    "topology.shardmap.self_share": ("share", "lower", False),
    "topology.shardmap.probe_cycles_per_s": ("1/s", "higher", False),
    "mesh.gossip_msgs_per_req": ("count", "lower", True),
    "mesh.updates_applied_ratio": ("ratio", "higher", True),
    "mesh.hit_age_p50_ms": ("ms", "lower", True),
    "mesh.self_share": ("share", "lower", False),
    "mesh.digest_rounds_per_s": ("1/s", "higher", False),
    "raft.commits_per_req": ("count", "lower", True),
    "raft.msgs_per_commit": ("count", "lower", True),
    "raft.elections": ("count", "lower", True),
    "raft.failover_ms": ("ms", "lower", True),
    "raft.self_share": ("share", "lower", False),
    "raft.commits_per_s": ("1/s", "higher", False),
    "analysis.self_share": ("share", "lower", False),
    "analysis.instantiate_per_s": ("1/s", "higher", False),
    "analysis.corpus_ms": ("ms", "lower", False),
    "obs.trace_overhead_ratio": ("ratio", "lower", False),
    "obs.spans_per_req": ("count", "lower", True),
    "consistency.check_ms": ("ms", "lower", False),
    "bench.probe_overhead_ratio": ("ratio", "lower", False),
}


def is_exact(metric: str) -> bool:
    """Virtual-clock metrics repeat exactly per seed; host ones do not."""
    if metric in END_TO_END:
        return END_TO_END[metric].clock == "virtual"
    return PER_LAYER[metric][2]
