"""Mesh sweep: what gossip freshness is worth, in aborts and backups.

The cache mesh (:mod:`repro.mesh`) never changes what Radical *returns* —
every path still validates at the primary — it changes how often the
speculative path survives validation.  This sweep quantifies that on the
paper's Figure-5 regional workloads: for each app, run the five-region
deployment with the mesh off and with gossip at several intervals (cache
staleness bounds), with and without a PoP-partition chaos window, and
report

* the validation-abort rate ``validation.failure / (success + failure)``
  — the direct cost of stale speculation;
* the backup-execution rate ``(path.backup + path.miss) / paths`` — how
  often a request had to fall back past the speculative fast path;
* the cache hit-age distribution (``cache.hit_age_ms``) — the staleness
  the mesh is supposed to bound;
* the gossip cost counters (digests sent, updates shipped/applied).

The chaos variant cuts the JP PoP's *gossip links only* (``wan=False`` —
the LVI path stays up), isolating the mesh's degradation mode: while
partitioned, JP decays to exactly the mesh-off staleness curve, and the
surviving PoPs keep gossiping.

``radical-repro run mesh`` drives this and writes ``results/mesh.json``;
``--smoke`` runs a CI-sized slice (forum only, one interval).  Both are
gated on structural checks — gossip flowed, every rate is a rate, and at
least :data:`MIN_APPLIED_PER_SHIPPED` of the shipped updates were news to
their receiver — not on point statistics.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..faults import FaultPlan, PoPPartitionWindow
from ..mesh import MeshSpec
from ..sim import Region, percentile
from ..topology import Deployment, TopologySpec
from .experiments import MAIN_APP_BUILDERS
from .harness import drive_closed_loop

__all__ = [
    "MIN_APPLIED_PER_SHIPPED",
    "mesh_partition_plan",
    "sweep_mesh",
    "mesh_gate_failures",
]

#: Waste ratchet: the share of shipped updates a fault-free mesh must
#: actually apply.  Ship-once gossip sits near 0.28 on five PoPs (each
#: update crosses every link at most once; relays to a peer that already
#: got it from the origin are the remainder); re-shipping every unacked
#: update every round sat at 0.07.
MIN_APPLIED_PER_SHIPPED = 0.2


def mesh_partition_plan(
    start_ms: float = 400.0, end_ms: float = 2_400.0
) -> FaultPlan:
    """The sweep's chaos case: JP loses every gossip peer for the window
    but keeps its WAN link to the primary — mesh freshness degrades while
    the protocol keeps running, which is precisely the regime where the
    abort-rate gap between mesh-on and mesh-off closes."""
    peers = tuple(r for r in Region.NEAR_USER if r != Region.JP)
    return FaultPlan(
        "mesh-bench-pop-partition",
        (PoPPartitionWindow(Region.JP, start_ms, end_ms, peers=peers, wan=False),),
        "JP's gossip links are cut mid-run; the LVI path stays up",
        mesh=True,
    )


def _mesh_settings(
    intervals: Sequence[float],
) -> List[Tuple[str, Optional[MeshSpec]]]:
    settings: List[Tuple[str, Optional[MeshSpec]]] = [("off", None)]
    for interval in intervals:
        settings.append(
            (f"on-{interval:g}ms", MeshSpec(gossip_interval_ms=interval))
        )
    return settings


def _run_point(
    app_name: str,
    mesh_label: str,
    mesh_spec: Optional[MeshSpec],
    chaos: str,
    requests: int,
    seed: int,
) -> Dict[str, Any]:
    spec = TopologySpec(
        seed=seed,
        # Jitter off: the abort/backup curves compare cache *staleness*
        # across mesh settings; latency noise would only blur them.
        network_jitter_sigma=0.0,
        mesh=mesh_spec,
        fault_plan=mesh_partition_plan() if chaos == "pop-partition" else None,
    )
    app = MAIN_APP_BUILDERS[app_name]()
    dep = drive_closed_loop(Deployment.build(spec, app=app), app, requests)
    m = dep.metrics

    ok = m.counter("validation.success")
    bad = m.counter("validation.failure")
    backup = m.counter("path.backup") + m.counter("path.miss")
    paths = (
        m.counter("path.speculative") + m.counter("path.backup")
        + m.counter("path.miss") + m.counter("path.direct")
    )
    ages = m.samples_tagged("cache.hit_age_ms")
    e2e = sorted(m.samples("e2e"))
    return {
        "app": app_name,
        "mesh": mesh_label,
        "gossip_interval_ms": (
            mesh_spec.gossip_interval_ms if mesh_spec is not None else None
        ),
        "chaos": chaos,
        "requests": requests,
        "abort_rate": round(bad / (ok + bad), 4) if ok + bad else None,
        "backup_rate": round(backup / paths, 4) if paths else None,
        "validation_failures": bad,
        "median_ms": round(percentile(e2e, 50.0), 3) if e2e else None,
        "hit_age_p50_ms": round(percentile(sorted(ages), 50.0), 3) if ages else None,
        "hit_age_mean_ms": round(sum(ages) / len(ages), 3) if ages else None,
        "cache_hits": len(ages),
        "gossip_sent": m.counter("mesh.gossip_sent"),
        "gossip_timeouts": m.counter("mesh.gossip_timeout"),
        "updates_shipped": m.counter("mesh.updates_shipped"),
        "updates_applied": m.counter("mesh.updates_applied"),
        "virtual_time_ms": round(dep.sim.now, 3),
    }


def sweep_mesh(
    apps: Optional[Sequence[str]],
    intervals: Sequence[float],
    requests: int,
    seed: int,
) -> Dict[str, Any]:
    """The full sweep: apps (none named = all three) x (mesh off + each
    gossip interval, the cache-staleness knob in virtual ms) x (no chaos,
    PoP partition).  Deterministic per seed — rerunning with the same
    arguments reproduces ``results/mesh.json`` byte for byte."""
    app_names = list(apps or MAIN_APP_BUILDERS)
    rows = []
    for app_name in app_names:
        for chaos in ("none", "pop-partition"):
            for mesh_label, mesh_spec in _mesh_settings(intervals):
                rows.append(
                    _run_point(app_name, mesh_label, mesh_spec, chaos, requests, seed)
                )
    return {
        "apps": app_names,
        "gossip_intervals_ms": list(intervals),
        "requests": requests,
        "seed": seed,
        "regions": list(Region.NEAR_USER),
        "rows": rows,
    }


def mesh_gate_failures(payload: Dict[str, Any]) -> List[str]:
    """Structural gate for CI: the sweep must show gossip actually ran on
    every mesh-on point without re-shipping what was already delivered,
    and every reported rate must be a rate.  Point statistics (which
    interval aborts least) are results, not gates."""
    failures = []
    for row in payload["rows"]:
        where = f"{row['app']}/{row['mesh']}/{row['chaos']}"
        for field in ("abort_rate", "backup_rate"):
            rate = row[field]
            if rate is not None and not 0.0 <= rate <= 1.0:
                failures.append(f"{where}: {field} {rate} outside [0, 1]")
        if row["mesh"] == "off":
            if row["gossip_sent"] or row["updates_applied"]:
                failures.append(f"{where}: mesh off but gossip counters nonzero")
        else:
            if not row["gossip_sent"]:
                failures.append(f"{where}: mesh on but no digests sent")
            if not row["updates_applied"]:
                failures.append(f"{where}: mesh on but no updates applied")
            elif (
                row["chaos"] == "none"
                and row["updates_applied"] < MIN_APPLIED_PER_SHIPPED * row["updates_shipped"]
            ):
                failures.append(
                    f"{where}: only {row['updates_applied']} of {row['updates_shipped']} "
                    f"shipped updates applied (< {MIN_APPLIED_PER_SHIPPED:.0%}): "
                    f"gossip is re-shipping"
                )
        if not row["cache_hits"]:
            failures.append(f"{where}: no cache hits recorded (hit-age metric dead)")
    return failures
