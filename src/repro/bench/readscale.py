"""Read scaling: in-network conflict detection on/off across shard counts.

The scalability sweep (``repro.bench.scalability``) shows partitioning the
key space moves the near-storage tier's capacity ceiling.  This sweep asks
the conflict-detection question on top of it: on a *read-heavy* workload,
how much throughput does the router's dirty-set fast path buy?

With ``conflict_detection`` on, every writer enrolls its instantiated
write constraints in the shard router's dirty set before its LVI request
leaves the runtime; a read-only request whose constraints provably miss
every in-flight writer skips lock acquisition and may be served by any
read replica of its shard.  Each sweep point therefore runs the same
uniform counter workload (90% reads) twice — detection off and on — at
the same shard count, the same serial-CPU cost model, and the *same*
``read_replicas`` setting.  Only the detection-on row can actually route
reads to the replicas: a locked read must go through the primary's lock
table, so replicas are useless to the baseline by construction (that
asymmetry is the measured effect, not an unfair configuration).

The scenario's acceptance gate is :func:`readscale_gate_failures`:
detection-on throughput must beat detection-off at every point with >= 4
shards, lock-skipped reads must actually occur, and every point's dirty
set must be balanced (every enrollment settled or deliberately leaked)
once the deployment is quiescent.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..core import RadicalConfig
from ..sim import Region
from ..topology import Deployment, TopologySpec
from .experiments import _counter_app
from .harness import drive_open_loop

__all__ = [
    "readscale_config",
    "readscale_app",
    "run_readscale_point",
    "sweep_readscale",
    "readscale_gate_failures",
]

def readscale_config(
    detect: bool,
    read_replicas: int = 3,
    server_proc_ms: float = 6.0,
) -> RadicalConfig:
    """One sweep point's knobs.

    Same capacity model as the scalability sweep (serial per-message CPU
    cost, generous timeouts so overload stretches the makespan instead of
    shedding) — ``detect`` is the only axis the on/off rows differ on;
    ``read_replicas`` is configured identically for both.
    """
    return RadicalConfig(
        service_jitter_sigma=0.0,
        server_proc_ms=server_proc_ms,
        rpc_timeout_ms=300_000.0,
        retry_max_attempts=1,
        invocation_deadline_ms=0.0,
        followup_timeout_ms=120_000.0,
        conflict_detection=detect,
        read_replicas=read_replicas,
    )


def readscale_app(keys: int = 256):
    """Uniform read-heavy counter workload: 90% ``micro.read``, 10%
    ``micro.bump`` over independent counters.  Both functions are
    single-key and argument-affine, so every read is statically
    lock-skippable and every write enrolls one exact key fact."""
    return _counter_app(zipf_s=0.0, keys=keys, write_pct=10.0)


def run_readscale_point(
    app,
    shards: int,
    detect: bool,
    rate_rps_per_region: float,
    duration_ms: float = 4_000.0,
    seed: int = 42,
    read_replicas: int = 3,
    regions: Sequence[str] = Region.NEAR_USER,
    config: Optional[RadicalConfig] = None,
) -> Dict[str, object]:
    """One point: open-loop Poisson load, delivered throughput measured
    over the makespan (generation plus backlog drain)."""
    cfg = config or readscale_config(detect, read_replicas=read_replicas)
    dep = Deployment.build(
        TopologySpec(
            regions=tuple(regions),
            shards=shards,
            seed=seed,
            config=cfg,
            network_jitter_sigma=0.0,
        ),
        app=app,
    )
    sim, metrics = dep.sim, dep.metrics
    makespan_ms = drive_open_loop(dep, app, regions, "readscale", rate_rps_per_region, duration_ms)
    completed = metrics.counter("requests.total")
    sim.run(until=sim.now + 10_000.0)  # drain followups and intent timers
    summary = metrics.summary("e2e")
    detector = dep.router.detector if dep.router is not None else None
    row: Dict[str, object] = {
        "workload": app.name,
        "shards": shards,
        "detect": detect,
        "read_replicas": read_replicas,
        "rate_rps_per_region": rate_rps_per_region,
        "offered_rps": rate_rps_per_region * len(regions),
        "duration_ms": duration_ms,
        "completed": completed,
        "unavailable": metrics.counter("requests.unavailable"),
        "makespan_ms": round(makespan_ms, 3),
        "throughput_rps": round(completed / makespan_ms * 1000.0, 3),
        "median_ms": summary.median,
        "p99_ms": summary.p99,
        "lock_skipped": metrics.counter("router.lock_skipped"),
        "conflict_hits": metrics.counter("router.conflict_hit"),
        "skip_fallbacks": metrics.counter("router.skip_fallback"),
        "replica_bounces": metrics.counter("router.replica_bounce"),
        "unsound": metrics.counter("analysis.unsound"),
    }
    if detector is not None:
        row["dirty"] = detector.dirty.stats()
        row["dirty_balanced"] = detector.dirty.balanced
    return row


def sweep_readscale(
    shard_counts: Sequence[int],
    rate_rps_per_region: float,
    duration_ms: float,
    read_replicas: int,
    seed: int,
) -> Dict[str, object]:
    """The full sweep: shard counts x {detection off, detection on} — the
    ``readscale`` scenario's payload (see EXPERIMENTS.md)."""
    points: List[Dict[str, object]] = []
    for detect in (False, True):
        for shards in shard_counts:
            point = run_readscale_point(
                readscale_app(), shards, detect, rate_rps_per_region,
                duration_ms, seed, read_replicas=read_replicas,
            )
            point["series"] = "detect-on" if detect else "detect-off"
            points.append(point)
    return {
        "rate_rps_per_region": rate_rps_per_region,
        "duration_ms": duration_ms,
        "read_replicas": read_replicas,
        "server_proc_ms": readscale_config(False).server_proc_ms,
        "points": points,
    }


def readscale_gate_failures(payload: Dict[str, object]) -> List[str]:
    """Acceptance gates for one sweep payload (empty list = pass)."""
    failures: List[str] = []
    by_shards: Dict[int, Dict[str, Dict[str, object]]] = {}
    for p in payload["points"]:
        by_shards.setdefault(p["shards"], {})[p["series"]] = p
    for shards in sorted(by_shards):
        rows = by_shards[shards]
        on, off = rows.get("detect-on"), rows.get("detect-off")
        if on is None or off is None:
            failures.append(f"{shards} shard(s): missing a detection series")
            continue
        if shards >= 4 and on["throughput_rps"] <= off["throughput_rps"]:
            failures.append(
                f"{shards} shard(s): detection-on throughput "
                f"({on['throughput_rps']}) not above detection-off "
                f"({off['throughput_rps']})"
            )
        if on["lock_skipped"] == 0:
            failures.append(f"{shards} shard(s): no lock-skipped reads at all")
        if on.get("unsound", 0):
            failures.append(f"{shards} shard(s): sanitizer flagged unsoundness")
        if not on.get("dirty_balanced", False):
            failures.append(
                f"{shards} shard(s): dirty set not balanced at quiescence "
                f"({on.get('dirty')})"
            )
    return failures
