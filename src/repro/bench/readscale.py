"""Read scaling: in-network conflict detection on/off across shard counts.

The scalability sweep (``repro.bench.scalability``) shows partitioning the
key space moves the near-storage tier's capacity ceiling.  This sweep asks
the conflict-detection question on top of it: on a *read-heavy* workload,
how much throughput does the router's dirty-set fast path buy?

With ``conflict_detection`` on, a shard's primary enrolls each writer's
instantiated write constraints in the router's dirty set while it holds
the write; a read-only request whose constraints provably miss every
in-flight writer skips lock acquisition and is served by a read replica
of its shard.  Each sweep point therefore runs the same
uniform counter workload (90% reads) twice — detection off and on — at
the same shard count, the same serial-CPU cost model, and the *same*
``read_replicas`` setting.  Only the detection-on row can actually route
reads to the replicas: a locked read must go through the primary's lock
table, so replicas are useless to the baseline by construction (that
asymmetry is the measured effect, not an unfair configuration).

The scenario's acceptance gate is :func:`readscale_gate_failures`:
detection-on throughput must beat detection-off at every point with >= 4
shards, lock-skipped reads must actually occur, and every point's dirty
set must be balanced (every enrollment settled) once the deployment is
quiescent.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..topology import Deployment, TopologySpec
from .experiments import _counter_app
from .harness import drive_open_loop
from .scalability import capacity_config

__all__ = [
    "readscale_app",
    "run_readscale_point",
    "sweep_readscale",
    "readscale_gate_failures",
]

def readscale_app(keys: int = 256):
    """Uniform read-heavy counter workload: 90% ``micro.read``, 10%
    ``micro.bump`` over independent counters.  Both functions are
    single-key and argument-affine, so every read is statically
    lock-skippable and every write enrolls one exact key fact."""
    return _counter_app(zipf_s=0.0, keys=keys, write_pct=10.0)


def run_readscale_point(
    shards: int,
    detect: bool,
    rate_rps_per_region: float,
    duration_ms: float,
    seed: int,
    read_replicas: int,
) -> Dict[str, object]:
    """One point: open-loop Poisson load, delivered throughput measured
    over the makespan (generation plus backlog drain)."""
    app = readscale_app()
    # The scalability sweep's capacity model; ``detect`` is the only axis
    # the on/off rows differ on — ``read_replicas`` is the same for both.
    config = capacity_config(conflict_detection=detect, read_replicas=read_replicas)
    spec = TopologySpec(shards=shards, seed=seed, config=config)
    dep = Deployment.build(spec, app=app)
    metrics = dep.metrics
    row: Dict[str, object] = {
        **drive_open_loop(dep, app, "readscale", rate_rps_per_region, duration_ms),
        "workload": app.name,
        "shards": shards,
        "detect": detect,
        "read_replicas": read_replicas,
        "rate_rps_per_region": rate_rps_per_region,
        "offered_rps": rate_rps_per_region * len(spec.regions),
        "lock_skipped": metrics.counter("router.lock_skipped"),
        "conflict_hits": metrics.counter("router.conflict_hit"),
        "skip_fallbacks": metrics.counter("router.skip_fallback"),
        "replica_bounces": metrics.counter("router.replica_bounce"),
        "unsound": metrics.counter("analysis.unsound"),
    }
    detector = dep.router.detector
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
                shards, detect, rate_rps_per_region, duration_ms, seed, read_replicas
            )
            point["series"] = "detect-on" if detect else "detect-off"
            points.append(point)
    return {
        "rate_rps_per_region": rate_rps_per_region,
        "duration_ms": duration_ms,
        "read_replicas": read_replicas,
        "server_proc_ms": capacity_config().server_proc_ms,
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
