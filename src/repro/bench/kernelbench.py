"""Kernel benchmark + process-parallel sweep runner.

The fast-kernel refactor (calendar-queue scheduler, slotted messages,
zero-cost observability) is only worth its complexity if it is measured.
This module is the measurement harness:

* :func:`run_sweep` — a deterministic process-parallel job runner.  Jobs
  are pure functions of a picklable spec, so a chunk computes the same
  simulation result no matter which worker runs it; the merge orders
  results by job key, making the *merged output independent of the worker
  count* (``workers=1`` and ``workers=8`` produce byte-identical sim
  results — only wall-clock metadata differs).
* Three benchmark workloads:

  - ``fig4``     — the paper's end-to-end social-app closed loop (the
    repository's canonical determinism oracle), timed as a whole.
  - ``dispatch`` — a pure-scheduler fan-out (thousands of concurrent
    processes on staggered timers, no protocol work), which isolates the
    event-queue + process machinery the refactor targets.
  - ``openloop`` — N open-loop Poisson clients against the full Radical
    deployment, sharded into independent chunks by the sweep runner.
    This is the 100k-client scenario: each chunk is its own simulation
    whose seed derives from (base seed, chunk index), and the pooled
    latency distribution is computed from the concatenated per-chunk
    samples, so it is exact and worker-count-invariant.

* :func:`run_kernelbench` — runs the workloads and writes
  ``BENCH_kernel.json`` with events/sec, wall-clock per simulated second,
  and peak RSS, next to the pre-refactor baseline (captured from the seed
  revision with this same harness; see ``benchmarks/kernel_baseline.json``)
  so speedups are computed against fixed, honestly-measured numbers.

Every simulation quantity reported here is deterministic; wall-clock and
RSS are measurement metadata and vary run to run.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import platform
import resource
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "run_sweep",
    "run_job",
    "fig4_job",
    "dispatch_job",
    "openloop_chunk_jobs",
    "merge_openloop",
    "run_kernelbench",
    "DEFAULTS",
    "SMOKE",
]

# Workload sizing for the full and --smoke runs.
DEFAULTS = {
    "fig4_requests": 2000,
    "dispatch_procs": 20_000,
    "dispatch_waits": 15,
    "openloop_clients": 100_000,
    "openloop_chunks": 32,
    "seed": 42,
}
SMOKE = {
    "fig4_requests": 600,
    "dispatch_procs": 4_000,
    "dispatch_waits": 10,
    "openloop_clients": 2_000,
    "openloop_chunks": 4,
    "seed": 42,
}


# --------------------------------------------------------------------------
# Job execution.  A job is (key, spec): ``key`` is the deterministic merge
# order, ``spec`` a picklable dict fully describing the simulation.  Jobs
# must be runnable from a worker process, so everything below is
# module-level and imports lazily (workers pay the import once).
# --------------------------------------------------------------------------

Job = Tuple[Tuple, Dict[str, Any]]


def _timed(fn) -> Tuple[Any, float]:
    """Run ``fn()`` with the collector off; return (result, wall seconds)."""
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        out = fn()
        return out, time.perf_counter() - t0
    finally:
        if gc_was_enabled:
            gc.enable()


def fig4_job(spec: Dict[str, Any]) -> Dict[str, Any]:
    """The fig4 closed loop: build + run the social app end to end.

    The timed region covers the whole experiment (deployment build and
    the client run), which is exactly what the pre-refactor baseline was
    timed on — events/sec here is an end-to-end number, not a scheduler
    microbenchmark.
    """
    from ..apps.social import social_media_app
    from ..topology import Deployment, TopologySpec
    from .harness import PAPER_JITTER_SIGMA, drive_closed_loop

    topology = TopologySpec(seed=spec["seed"], network_jitter_sigma=PAPER_JITTER_SIGMA)
    app = social_media_app()
    dep, wall = _timed(
        lambda: drive_closed_loop(Deployment.build(topology, app=app), app, spec["requests"])
    )
    summary = dep.metrics.summary("e2e")
    events = dep.sim.events_dispatched
    timing = _timing(events, dep.sim.now, wall)
    # Work per second: unlike events/sec it does not fall when the kernel
    # learns to serve the same requests with fewer events.
    timing["requests_per_sec"] = summary.count / wall if wall > 0 else 0.0
    return {
        "workload": "fig4",
        "sim": {
            "requests": summary.count,
            "e2e_median_ms": summary.median,
            "e2e_p99_ms": summary.p99,
            "virtual_time_ms": dep.sim.now,
            "events_dispatched": events,
            "events_per_request": events / summary.count,
        },
        "timing": timing,
    }


def dispatch_job(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Pure scheduler fan-out: ``procs`` processes × ``waits`` staggered
    timers, no protocol or VM work.  Isolates event-queue + process cost."""
    from ..sim.core import Simulator

    procs, waits = spec["procs"], spec["waits"]
    sim = Simulator()

    def proc(i):
        for k in range(waits):
            yield sim.timeout(((i * 13 + k * 7) % 40) * 0.5 + 0.5)

    for i in range(procs):
        sim.spawn(proc(i))
    _, wall = _timed(sim.run)
    events = sim.events_dispatched
    return {
        "workload": "dispatch",
        "sim": {
            "procs": procs,
            "waits": waits,
            "virtual_time_ms": sim.now,
            "events_dispatched": events,
        },
        "timing": _timing(events, sim.now, wall),
    }


def _openloop_chunk(spec: Dict[str, Any]) -> Dict[str, Any]:
    """One chunk of the open-loop run: an independent deployment driven by
    ``clients`` Poisson clients.  Pure function of the spec — the chunk
    seed and every client's RNG fork derive from it — so the sim output
    is identical wherever (and alongside whatever) it runs."""
    from ..apps.social import social_media_app
    from ..sim.network import Region
    from ..core import RadicalConfig
    from ..topology import Deployment, TopologySpec
    from ..workloads import OpenLoopClient

    app = social_media_app()
    regions = Region.NEAR_USER

    def build_and_run():
        dep = Deployment.build(
            TopologySpec(
                regions=regions,
                seed=spec["seed"],
                config=RadicalConfig(),
                network_jitter_sigma=0.02,
            ),
            app=app,
        )
        sim, metrics = dep.sim, dep.metrics
        clients = [
            OpenLoopClient(
                sim=sim,
                app=app,
                region=regions[i % len(regions)],
                invoke=dep.runtimes[regions[i % len(regions)]].invoke,
                metrics=metrics,
                rng=dep.streams.fork(f"open.{i}").stream("workload"),
                rate_rps=spec["rate_rps"],
                duration_ms=spec["duration_ms"],
            )
            for i in range(spec["clients"])
        ]
        procs = [sim.spawn(c.run()) for c in clients]
        sim.run(until_event=sim.all_of([p.done_event for p in procs]))
        sim.run(until=sim.now + 10_000.0)
        return dep, metrics

    (dep, metrics), wall = _timed(build_and_run)
    samples = metrics.samples("e2e")
    events = dep.sim.events_dispatched
    return {
        "workload": "openloop-chunk",
        "sim": {
            "chunk": spec["chunk"],
            "clients": spec["clients"],
            "requests": len(samples),
            "samples": samples,  # pooled by merge_openloop for exact percentiles
            "virtual_time_ms": dep.sim.now,
            "events_dispatched": events,
        },
        "timing": _timing(events, dep.sim.now, wall),
    }


def _routing_point(spec: Dict[str, Any]) -> Dict[str, Any]:
    """One point of the routing sweep (repro.bench.routing); lazy import
    keeps this module light for the pure-kernel jobs."""
    from .routing import run_routing_point

    return run_routing_point(spec)


_KINDS = {
    "fig4": fig4_job,
    "dispatch": dispatch_job,
    "openloop-chunk": _openloop_chunk,
    "routing-point": _routing_point,
}


def run_job(job: Job) -> Tuple[Tuple, Dict[str, Any]]:
    """Execute one (key, spec) job; the entry point workers map over."""
    key, spec = job
    return key, _KINDS[spec["kind"]](spec)


def _timing(events: int, virtual_ms: float, wall_s: float) -> Dict[str, Any]:
    return {
        "wall_s": wall_s,
        "events_per_sec": events / wall_s if wall_s > 0 else 0.0,
        "wall_per_sim_sec": wall_s / (virtual_ms / 1000.0) if virtual_ms > 0 else 0.0,
    }


# --------------------------------------------------------------------------
# The deterministic process-parallel sweep runner.
# --------------------------------------------------------------------------

def run_sweep(jobs: Sequence[Job], workers: int = 1) -> List[Dict[str, Any]]:
    """Run jobs (in worker processes when ``workers > 1``) and merge.

    The merged list is ordered by job key — never by completion order —
    and each job is a pure function of its spec, so the sim results are
    identical for any worker count.  ``fork`` is used where available so
    workers inherit the warmed import state instead of re-importing.
    """
    jobs = list(jobs)
    if workers <= 1 or len(jobs) <= 1:
        results = [run_job(j) for j in jobs]
    else:
        method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        ctx = multiprocessing.get_context(method)
        with ctx.Pool(min(workers, len(jobs))) as pool:
            results = pool.map(run_job, jobs)
    results.sort(key=lambda kr: kr[0])
    return [r for _, r in results]


def openloop_chunk_jobs(
    clients: int,
    chunks: int,
    seed: int,
    rate_rps: float = 1.0,
    duration_ms: float = 1_500.0,
) -> List[Job]:
    """Split an N-client open-loop run into independent chunk jobs.

    Chunk seeds are ``seed + 1000 * (index + 1)`` — disjoint from the seed
    itself and from each other, and a function of nothing else, so the
    job list (and therefore the merged result) depends only on
    (clients, chunks, seed, rate, duration).
    """
    if chunks <= 0:
        raise ValueError(f"chunks must be positive, got {chunks}")
    base = clients // chunks
    extra = clients % chunks
    jobs: List[Job] = []
    for idx in range(chunks):
        n = base + (1 if idx < extra else 0)
        if n == 0:
            continue
        jobs.append(
            (
                (idx,),
                {
                    "kind": "openloop-chunk",
                    "chunk": idx,
                    "clients": n,
                    "seed": seed + 1000 * (idx + 1),
                    "rate_rps": rate_rps,
                    "duration_ms": duration_ms,
                },
            )
        )
    return jobs


def merge_openloop(chunk_results: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Merge chunk results into one deterministic open-loop record.

    Latency percentiles are computed over the *pooled* samples of every
    chunk — exact, not an approximation over per-chunk summaries — and
    all sim fields are pure aggregations, so the merge is invariant to
    how chunks were scheduled across workers.
    """
    from ..sim.monitor import percentile

    pooled: List[float] = []
    for r in chunk_results:
        pooled.extend(r["sim"]["samples"])
    events = sum(r["sim"]["events_dispatched"] for r in chunk_results)
    virtual = sum(r["sim"]["virtual_time_ms"] for r in chunk_results)
    wall = sum(r["timing"]["wall_s"] for r in chunk_results)
    return {
        "workload": "openloop",
        "sim": {
            "chunks": len(chunk_results),
            "clients": sum(r["sim"]["clients"] for r in chunk_results),
            "requests": len(pooled),
            "e2e_median_ms": percentile(pooled, 50.0) if pooled else None,
            "e2e_p99_ms": percentile(pooled, 99.0) if pooled else None,
            "virtual_time_ms": virtual,
            "events_dispatched": events,
            "per_chunk": [
                {
                    "chunk": r["sim"]["chunk"],
                    "requests": r["sim"]["requests"],
                    "events_dispatched": r["sim"]["events_dispatched"],
                    "virtual_time_ms": r["sim"]["virtual_time_ms"],
                }
                for r in chunk_results
            ],
        },
        "timing": _timing(events, virtual, wall),
    }


# --------------------------------------------------------------------------
# The benchmark entry point.
# --------------------------------------------------------------------------

def _repo_file(name: str) -> Optional[str]:
    """Locate a repo-stored data file relative to this package (works from
    a source checkout; returns None when the file is absent, e.g. in an
    installed wheel)."""
    root = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", ".."))
    path = os.path.join(root, "benchmarks", name)
    return path if os.path.exists(path) else None


def _load_json(path: Optional[str]) -> Optional[Dict[str, Any]]:
    if path is None:
        return None
    with open(path) as fh:
        return json.load(fh)


def _peak_rss_mb() -> Dict[str, float]:
    """Peak RSS of this process and of finished children, in MiB
    (ru_maxrss is KiB on Linux)."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {"self_mb": self_kb / 1024.0, "children_mb": child_kb / 1024.0}


def run_kernelbench(
    smoke: bool = False,
    workers: Optional[int] = None,
    out_path: str = "BENCH_kernel.json",
    baseline_path: Optional[str] = None,
    floor_path: Optional[str] = None,
    skip_openloop: bool = False,
) -> Dict[str, Any]:
    """Run the kernel benchmark suite and write ``BENCH_kernel.json``.

    Returns the report dict; adds ``floor_check`` when a floor file is
    available (smoke mode) with ``ok=False`` when fig4 requests/sec falls
    more than 20% below the floor or fig4 dispatches more events per
    request than the ceiling (an exact, deterministic count).
    """
    sizes = SMOKE if smoke else DEFAULTS
    if workers is None:
        workers = max(1, len(os.sched_getaffinity(0)))
    seed = sizes["seed"]

    report: Dict[str, Any] = {
        "meta": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "cpus": len(os.sched_getaffinity(0)),
            "workers": workers,
            "smoke": smoke,
        },
        "workloads": {},
    }

    fig4 = fig4_job({"requests": sizes["fig4_requests"], "seed": seed})
    report["workloads"]["fig4"] = fig4

    dispatch = dispatch_job(
        {"procs": sizes["dispatch_procs"], "waits": sizes["dispatch_waits"]}
    )
    report["workloads"]["dispatch"] = dispatch

    if not skip_openloop:
        jobs = openloop_chunk_jobs(
            clients=sizes["openloop_clients"],
            chunks=sizes["openloop_chunks"],
            seed=seed,
        )
        chunk_results = run_sweep(jobs, workers=workers)
        merged = merge_openloop(chunk_results)
        # The raw per-chunk sample lists are for the merge, not the report.
        report["workloads"]["openloop"] = merged

    report["peak_rss"] = _peak_rss_mb()

    baseline = _load_json(baseline_path or _repo_file("kernel_baseline.json"))
    if baseline is not None and not smoke:
        # The baseline timed these same full-size workloads on the seed
        # tree, so the speed-up is a ratio of wall seconds for identical
        # work — not of events/sec, whose numerator this kernel shrinks.
        report["baseline"] = baseline
        speedups = {}
        for name, row in report["workloads"].items():
            base_wall = baseline.get("workloads", {}).get(name, {}).get("wall_s")
            if base_wall:
                speedups[name] = {
                    "wall_s": row["timing"]["wall_s"],
                    "baseline_wall_s": base_wall,
                    "speedup": base_wall / row["timing"]["wall_s"],
                }
        report["speedup_vs_baseline"] = speedups

    floor = _load_json(floor_path or _repo_file("kernel_floor.json"))
    if floor is not None and smoke:
        floor_rps = floor["fig4_smoke_requests_per_sec_floor"]
        ceiling = floor["fig4_smoke_events_per_request_ceiling"]
        now_rps = fig4["timing"]["requests_per_sec"]
        now_epr = fig4["sim"]["events_per_request"]
        report["floor_check"] = {
            "floor_requests_per_sec": floor_rps,
            "measured_requests_per_sec": now_rps,
            # The gate: >20% below the repo-stored floor fails CI.
            "threshold": 0.8 * floor_rps,
            "events_per_request_ceiling": ceiling,
            "measured_events_per_request": now_epr,
            "ok": now_rps >= 0.8 * floor_rps and now_epr <= ceiling,
        }

    with open(out_path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report
