"""Tiered latency-aware routing sweep: where the single-RTT advantage dies.

The paper's claim is that a speculative PoP execution costs the client one
WAN round trip to the primary (validation) instead of the baseline's RTT
per storage access.  That arithmetic assumes the client sits *next to* a
PoP.  This sweep grows synthetic geographies (10–50 regions,
great-circle RTT matrices from :class:`repro.sim.SyntheticGeoRttDataset`)
and varies PoP placement (``dense``: every region hosts one; ``sparse``:
a greedy k-center subset) and the client→PoP assignment policy
(``nearest-rtt`` / ``tiered`` / ``direct``, see docs/ROUTING.md), then
measures, per client region, the speculative-path median against the
direct-to-primary tier.

The interesting output is the *breakeven RTT*: once a client's hop to its
nearest PoP exceeds roughly the speculative path's saved validation trip,
edge execution stops paying and the tiered policy's direct fallback wins.
``results/routing.json`` carries the per-client breakdown curve and the
interpolated breakeven per (region count, placement).

Points are independent simulations, each a pure function of its spec,
mapped over a process pool in a fixed order — the merged payload is
worker-count-invariant.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..sim import SyntheticGeoRttDataset
from ..topology import Deployment, TopologySpec
from .experiments import _counter_app
from .harness import PAPER_JITTER_SIGMA, drive_closed_loop, validation_success_rate

__all__ = [
    "present_routing",
    "routing_app",
    "routing_gate_failures",
    "run_routing_point",
    "run_routing_sweep",
    "sparse_placement",
]

def routing_app():
    """The sweep workload: uniform-key counter, 20% writes.

    Uniform keys keep validation success high and stable across region
    counts, so latency differences between points are pure routing — not
    contention artifacts that shift with the region count.
    """
    return _counter_app(zipf_s=0.0, keys=500, write_pct=20.0)


def sparse_placement(dataset: SyntheticGeoRttDataset, k: int) -> Tuple[str, ...]:
    """Greedy k-center PoP placement over the RTT metric.

    Starts from the primary (it always hosts a PoP — the direct tier) and
    repeatedly adds the region farthest from the chosen set; determinstic
    ties break by region name.  Order of the result is selection order,
    which is itself deterministic, so deployments built from it are too.
    """
    regions = dataset.region_names()
    k = max(1, min(k, len(regions)))
    chosen: List[str] = [dataset.primary_region]
    while len(chosen) < k:
        best = max(
            (r for r in regions if r not in chosen),
            key=lambda r: (min(dataset.rtt(r, c) for c in chosen), r),
        )
        chosen.append(best)
    return tuple(chosen)


def run_routing_point(spec: Dict[str, Any]) -> Dict[str, Any]:
    """One (region count, placement, policy) point: build, drive, measure."""
    n = spec["region_count"]
    dataset = SyntheticGeoRttDataset(n, seed=spec["rtt_seed"])
    regions = dataset.region_names()
    placement = spec["placement"]
    pops = (
        None if placement == "dense"
        else sparse_placement(dataset, spec["sparse_pops"])
    )
    app = routing_app()
    dep = drive_closed_loop(
        Deployment.build(
            TopologySpec(
                regions=regions,
                seed=spec["seed"],
                network_jitter_sigma=PAPER_JITTER_SIGMA,
                rtt={"kind": "synthetic-geo", "n": n, "seed": spec["rtt_seed"]},
                pop_regions=pops,
                primary_region=dataset.primary_region,
                assignment=spec["policy"],
                tiered_threshold_ms=spec["tiered_threshold_ms"],
            ),
            app=app,
        ),
        app, spec["requests"], clients_per_region=1,
    )
    clients = []
    modes: Dict[str, int] = {}
    for region in regions:
        a = dep.assignments[region]
        modes[a.mode] = modes.get(a.mode, 0) + 1
        summary = dep.metrics.summary(f"e2e.region.{region}")
        clients.append({
            "region": region,
            "pop": a.pop,
            "mode": a.mode,
            "pop_rtt_ms": a.client_rtt_ms if a.client_rtt_ms is not None else 1.0,
            "primary_rtt_ms": dep.net.latency.rtt(region, dataset.primary_region),
            "median_ms": round(summary.median, 3),
            "p99_ms": round(summary.p99, 3),
            "samples": summary.count,
        })
    overall = dep.metrics.summary("e2e")
    return {
        "region_count": n,
        "placement": placement,
        "policy": spec["policy"],
        "pops": len(pops) if pops is not None else len(regions),
        "primary": dataset.primary_region,
        "median_ms": round(overall.median, 3),
        "p99_ms": round(overall.p99, 3),
        "validation_success": validation_success_rate(dep.metrics),
        "modes": modes,
        "clients": clients,
    }


def _breakeven(points: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Per (region count, placement): where edge execution stops winning.

    Pairs each client region's median under the nearest-rtt policy with
    its median under the direct policy.  The advantage (direct − edge)
    shrinks as the client's hop to its nearest PoP grows; the breakeven
    is the interpolated PoP RTT where it crosses zero.
    """
    by_combo: Dict[Tuple[int, str], Dict[str, Dict[str, Any]]] = {}
    for point in points:
        key = (point["region_count"], point["placement"])
        by_combo.setdefault(key, {})[point["policy"]] = point
    out: List[Dict[str, Any]] = []
    for (n, placement), by_policy in sorted(by_combo.items()):
        edge = by_policy.get("nearest-rtt")
        direct = by_policy.get("direct")
        if edge is None or direct is None:
            continue
        direct_by_region = {c["region"]: c for c in direct["clients"]}
        curve = []
        for c in edge["clients"]:
            d = direct_by_region.get(c["region"])
            if d is None:
                continue
            if c["region"] == edge["primary"]:
                # The primary region's edge and direct paths are the same
                # tier; its ~0 advantage would fake a crossing at the
                # front of the curve.
                continue
            curve.append({
                "region": c["region"],
                "pop_rtt_ms": c["pop_rtt_ms"],
                "edge_median_ms": c["median_ms"],
                "direct_median_ms": d["median_ms"],
                "advantage_ms": round(d["median_ms"] - c["median_ms"], 3),
            })
        curve.sort(key=lambda r: (r["pop_rtt_ms"], r["region"]))
        breakeven_ms = None
        prev = None
        for row in curve:
            if row["advantage_ms"] <= 0:
                if prev is None or prev["advantage_ms"] <= 0:
                    breakeven_ms = row["pop_rtt_ms"]
                else:
                    # Linear interpolation between the last winning and the
                    # first losing client.
                    run = row["pop_rtt_ms"] - prev["pop_rtt_ms"]
                    fall = prev["advantage_ms"] - row["advantage_ms"]
                    frac = prev["advantage_ms"] / fall if fall > 0 else 0.0
                    breakeven_ms = round(prev["pop_rtt_ms"] + frac * run, 3)
                break
            prev = row
        out.append({
            "region_count": n,
            "placement": placement,
            "breakeven_pop_rtt_ms": breakeven_ms,
            "edge_wins": sum(1 for r in curve if r["advantage_ms"] > 0),
            "clients": len(curve),
            "curve": curve,
        })
    return out


def run_routing_sweep(
    region_counts: Sequence[int],
    policies: Sequence[str],
    placements: Sequence[str],
    requests: int,
    seed: int,
    rtt_seed: int,
    tiered_threshold_ms: float,
    sparse_pops: int,
    workers: Optional[int] = None,
) -> Dict[str, Any]:
    """The full placement × assignment-policy × region-count sweep."""
    specs: List[Dict[str, Any]] = []
    skipped: List[Dict[str, str]] = []
    for n in region_counts:
        for placement in placements:
            for policy in policies:
                if policy == "home-region" and placement != "dense":
                    # home-region needs a PoP in every client region.
                    skipped.append({
                        "region_count": n, "placement": placement,
                        "policy": policy,
                        "reason": "home-region requires dense placement",
                    })
                    continue
                specs.append({
                    "region_count": n,
                    "placement": placement,
                    "policy": policy,
                    "requests": requests,
                    "seed": seed,
                    "rtt_seed": rtt_seed,
                    "tiered_threshold_ms": tiered_threshold_ms,
                    "sparse_pops": sparse_pops,
                })
    # Points are ordered by (region count, placement, policy), never by
    # completion, and ``Pool.map`` keeps its input order.
    specs.sort(key=lambda s: (s["region_count"], s["placement"], s["policy"]))
    workers = min(workers or os.cpu_count() or 1, len(specs))
    if workers <= 1:
        points = [run_routing_point(s) for s in specs]
    else:
        # fork where available: workers inherit the warmed import state.
        method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        with multiprocessing.get_context(method).Pool(workers) as pool:
            points = pool.map(run_routing_point, specs)
    return {
        "region_counts": list(region_counts),
        "policies": list(policies),
        "placements": list(placements),
        "requests": requests,
        "seed": seed,
        "rtt_seed": rtt_seed,
        "tiered_threshold_ms": tiered_threshold_ms,
        "sparse_pops": sparse_pops,
        "points": points,
        "breakeven": _breakeven(points),
        "skipped": skipped,
    }


def routing_gate_failures(payload: Dict[str, Any]) -> List[str]:
    """Structural sanity for CI: every point delivered samples, edge
    execution wins *somewhere* (near clients) and loses *somewhere*
    (far clients under sparse placement) — otherwise the sweep is not
    actually exercising the tradeoff it exists to measure."""
    failures: List[str] = []
    for p in payload["points"]:
        total = sum(c["samples"] for c in p["clients"])
        if total <= 0:
            failures.append(
                f"point {p['region_count']}/{p['placement']}/{p['policy']}: "
                "no latency samples"
            )
        if p["validation_success"] is not None and p["validation_success"] < 0.5:
            failures.append(
                f"point {p['region_count']}/{p['placement']}/{p['policy']}: "
                f"validation success {p['validation_success']:.2f} < 0.5 "
                "(workload is contention-bound, not routing-bound)"
            )
    for b in payload["breakeven"]:
        if b["clients"] and b["edge_wins"] == 0:
            failures.append(
                f"breakeven {b['region_count']}/{b['placement']}: edge "
                "execution never wins — speculative path broken?"
            )
    return failures


def present_routing(payload: Dict[str, Any]) -> None:
    from .report import print_table

    print_table(
        ["regions", "placement", "policy", "pops", "median (ms)", "p99 (ms)",
         "valid %", "home/edge/direct"],
        [[p["region_count"], p["placement"], p["policy"], p["pops"],
          p["median_ms"], p["p99_ms"],
          f"{p['validation_success'] * 100:.1f}"
          if p["validation_success"] is not None else "-",
          "/".join(str(p["modes"].get(m, 0)) for m in ("home", "edge", "direct"))]
         for p in payload["points"]],
        title=f"Routing sweep: {payload['requests']} requests/point, "
              f"tiered threshold {payload['tiered_threshold_ms']:.0f} ms",
    )
    rows = []
    for b in payload["breakeven"]:
        rows.append([
            b["region_count"], b["placement"],
            f"{b['breakeven_pop_rtt_ms']:.1f}"
            if b["breakeven_pop_rtt_ms"] is not None else "> max",
            f"{b['edge_wins']}/{b['clients']}",
        ])
    if rows:
        print_table(
            ["regions", "placement", "breakeven PoP RTT (ms)", "edge wins"],
            rows,
            title="Single-RTT advantage: breakeven client→PoP RTT "
                  "(edge vs direct-to-primary)",
        )
    for skip in payload.get("skipped", []):
        print(f"skipped {skip['region_count']}/{skip['placement']}/"
              f"{skip['policy']}: {skip['reason']}")
