#!/usr/bin/env python3
"""Capture kernel-benchmark baseline numbers from an arbitrary repo tree.

``benchmarks/kernel_baseline.json`` records what the *pre-refactor* kernel
scored on the kernelbench workloads, measured with this exact methodology,
so ``radical-repro kernelbench`` can report honest speedups against fixed
numbers.  This script regenerates such a capture:

    python benchmarks/capture_kernel_baseline.py /path/to/tree

It deliberately uses only APIs that exist in the seed revision
(``run_radical_experiment``, ``Simulator``, ``OpenLoopClient``) and mirrors
``repro.bench.kernelbench`` sizing exactly.  The pre-refactor simulator has
no ``events_dispatched`` counter, so event counts are taken from a
current-tree run — they are deterministic and implementation-invariant,
which the script *proves* per workload by asserting the simulation outputs
(e2e median, virtual time) match the expected values passed in via
``--expect`` (a BENCH_kernel.json produced by the tree being compared
against).  A tree that simulates anything different fails the capture.
"""

import argparse
import gc
import json
import sys
import time


def timed(fn):
    gc.disable()
    try:
        t0 = time.perf_counter()
        out = fn()
        return out, time.perf_counter() - t0
    finally:
        gc.enable()


def bench_fig4(requests, seed):
    from repro.apps.social import social_media_app
    # Not stale: this script is run against the *seed* tree, whose harness
    # has these names (see the module docstring); the current tree's
    # spelling is in repro.bench.kernelbench.fig4_job.
    from repro.bench.harness import ExperimentConfig, run_radical_experiment

    cfg = ExperimentConfig(requests=requests, seed=seed)
    app = social_media_app()
    res, wall = timed(lambda: run_radical_experiment(app, cfg))
    return {
        "wall_s": wall,
        "e2e_median_ms": res.metrics.summary("e2e").median,
        "virtual_time_ms": res.virtual_time_ms,
    }


def bench_dispatch(procs, waits):
    from repro.sim.core import Simulator

    sim = Simulator()

    def proc(i):
        for k in range(waits):
            yield sim.timeout(((i * 13 + k * 7) % 40) * 0.5 + 0.5)

    for i in range(procs):
        sim.spawn(proc(i))
    _, wall = timed(sim.run)
    return {"wall_s": wall, "virtual_time_ms": sim.now}


def bench_openloop_chunk(clients, seed, rate_rps, duration_ms):
    from repro.apps.social import social_media_app
    from repro.core import RadicalConfig
    from repro.sim.network import Region
    from repro.topology import Deployment, TopologySpec
    from repro.workloads import OpenLoopClient

    app = social_media_app()
    regions = Region.NEAR_USER

    def build_and_run():
        dep = Deployment.build(
            TopologySpec(
                regions=regions, seed=seed, config=RadicalConfig(),
                network_jitter_sigma=0.02,
            ),
            app=app,
        )
        sim, metrics = dep.sim, dep.metrics
        clients_list = [
            OpenLoopClient(
                sim=sim,
                app=app,
                region=regions[i % len(regions)],
                invoke=dep.runtimes[regions[i % len(regions)]].invoke,
                metrics=metrics,
                rng=dep.streams.fork(f"open.{i}").stream("workload"),
                rate_rps=rate_rps,
                duration_ms=duration_ms,
            )
            for i in range(clients)
        ]
        procs = [sim.spawn(c.run()) for c in clients_list]
        sim.run(until_event=sim.all_of([p.done_event for p in procs]))
        sim.run(until=sim.now + 10_000.0)
        return dep, metrics

    (dep, metrics), wall = timed(build_and_run)
    samples = metrics.samples("e2e")
    return {
        "wall_s": wall,
        "requests": len(samples),
        "virtual_time_ms": dep.sim.now,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("tree", help="repo tree to measure (its src/ is used)")
    parser.add_argument("--smoke", action="store_true", help="smoke sizing")
    parser.add_argument("--expect", default=None,
                        help="BENCH_kernel.json to cross-check sim outputs against")
    args = parser.parse_args()

    sys.path.insert(0, args.tree.rstrip("/") + "/src")

    # Sizing must mirror repro.bench.kernelbench DEFAULTS/SMOKE.
    if args.smoke:
        sizes = {"fig4_requests": 600, "dispatch_procs": 4_000,
                 "dispatch_waits": 10, "openloop_clients": 2_000,
                 "openloop_chunks": 4, "seed": 42}
    else:
        sizes = {"fig4_requests": 2000, "dispatch_procs": 20_000,
                 "dispatch_waits": 15, "openloop_clients": 100_000,
                 "openloop_chunks": 32, "seed": 42}

    out = {"tree": args.tree, "smoke": args.smoke,
           "python": sys.version.split()[0], "workloads": {}}

    out["workloads"]["fig4"] = bench_fig4(sizes["fig4_requests"], sizes["seed"])
    print("fig4 done", out["workloads"]["fig4"], file=sys.stderr)

    out["workloads"]["dispatch"] = bench_dispatch(
        sizes["dispatch_procs"], sizes["dispatch_waits"])
    print("dispatch done", out["workloads"]["dispatch"], file=sys.stderr)

    # Chunked exactly like openloop_chunk_jobs: seed + 1000 * (index + 1).
    chunks = []
    base = sizes["openloop_clients"] // sizes["openloop_chunks"]
    extra = sizes["openloop_clients"] % sizes["openloop_chunks"]
    for idx in range(sizes["openloop_chunks"]):
        n = base + (1 if idx < extra else 0)
        if n == 0:
            continue
        chunks.append(bench_openloop_chunk(
            n, sizes["seed"] + 1000 * (idx + 1), 1.0, 1_500.0))
        print(f"openloop chunk {idx} done", chunks[-1], file=sys.stderr)
    out["workloads"]["openloop"] = {
        "wall_s": sum(c["wall_s"] for c in chunks),
        "requests": sum(c["requests"] for c in chunks),
        "virtual_time_ms": sum(c["virtual_time_ms"] for c in chunks),
    }

    if args.expect:
        with open(args.expect) as fh:
            expect = json.load(fh)["workloads"]
        checks = {
            "fig4": ("e2e_median_ms", "virtual_time_ms"),
            "openloop": ("requests", "virtual_time_ms"),
            "dispatch": ("virtual_time_ms",),
        }
        for wl, fields in checks.items():
            for f in fields:
                got = out["workloads"][wl][f]
                want = expect[wl]["sim"][f]
                assert got == want, f"{wl}.{f}: measured tree gives {got}, expected {want}"
        out["sim_cross_checked"] = True
        print("sim outputs identical to --expect reference", file=sys.stderr)

    json.dump(out, sys.stdout, indent=2, sort_keys=True)
    print()


if __name__ == "__main__":
    main()
