"""Command-line interface: regenerate any of the paper's tables/figures.

Usage::

    radical-repro run all                # every scenario in configs/
    radical-repro run fig4 chaos         # a subset, by name
    radical-repro run 'sweep_*' --smoke  # globs; CI-sized smoke runs
    radical-repro run all --only-changed # skip unchanged configs
    radical-repro table2                 # legacy per-figure commands
    radical-repro fig4 --requests 5000   # Figure 4 with a bigger run
    radical-repro fig4 --trace-out results/fig4_trace.jsonl
    radical-repro trace summarize results/fig4_trace.jsonl

Every experiment is declared as a scenario config under ``configs/`` (one
JSON file per paper artifact — see EXPERIMENTS.md); ``run`` drives any
subset through :mod:`repro.scenarios` and regenerates ``results/*.json``
byte-identically.  The legacy per-figure commands are thin wrappers over
the same scenarios, kept for muscle memory.  ``--trace-out`` reruns the
Radical deployments with structured tracing (:mod:`repro.obs`) enabled —
a diagnostic rerun that writes spans, not artifacts; ``trace summarize``
re-analyzes such a file offline.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

__all__ = ["main"]


def _run_main(argv: List[str]) -> int:
    """``radical-repro run`` — the scenario-matrix driver."""
    parser = argparse.ArgumentParser(
        prog="radical-repro run",
        description="Run scenarios from configs/ and regenerate their "
                    "results/*.json artifacts (see EXPERIMENTS.md).",
    )
    parser.add_argument("scenarios", nargs="*", metavar="SCENARIO",
                        help="scenario names or shell-style globs "
                             "(default: all)")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized runs; writes no artifacts, checks "
                             "payload and artifact structure instead")
    parser.add_argument("--only-changed", action="store_true",
                        help="skip scenarios whose config hash matches the "
                             "last successful run and whose artifact exists")
    parser.add_argument("--list", action="store_true", dest="list_only",
                        help="list the selected scenarios and exit")
    args = parser.parse_args(argv)

    from .scenarios import run_matrix

    return run_matrix(
        args.scenarios or ["all"],
        smoke=args.smoke,
        only_changed=args.only_changed,
        list_only=args.list_only,
    )


def _routing_main(argv: List[str]) -> int:
    """``radical-repro routing`` — the tiered latency-aware routing sweep:
    synthetic geographies x PoP placement x assignment policy, reporting
    the per-client advantage curve and the breakeven client-to-PoP RTT
    (see docs/ROUTING.md)."""
    parser = argparse.ArgumentParser(
        prog="radical-repro routing",
        description="Where the single-RTT advantage breaks down: placement "
                    "x assignment policy x region count.",
    )
    parser.add_argument("--regions", default=None,
                        help="comma-separated region counts (default: 10,25,50)")
    parser.add_argument("--policies", default=None,
                        help="comma-separated assignment policies "
                             "(default: nearest-rtt,tiered,direct)")
    parser.add_argument("--placements", default=None,
                        help="comma-separated placements (default: dense,sparse)")
    parser.add_argument("--requests", type=int, default=None,
                        help="total requests per sweep point")
    parser.add_argument("--threshold", type=float, default=None,
                        help="tiered policy fallback threshold (ms)")
    parser.add_argument("--workers", type=int, default=None,
                        help="sweep worker processes (default: CPU count)")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized sweep, no results file")
    args = parser.parse_args(argv)

    from .scenarios import ScenarioError, run_scenario

    overrides = {
        "region_counts": (
            [int(s) for s in args.regions.split(",") if s]
            if args.regions else None
        ),
        "policies": (
            [s for s in args.policies.split(",") if s]
            if args.policies else None
        ),
        "placements": (
            [s for s in args.placements.split(",") if s]
            if args.placements else None
        ),
        "requests": args.requests,
        "tiered_threshold_ms": args.threshold,
        "workers": args.workers,
    }
    try:
        run_scenario("routing", overrides=overrides, smoke=args.smoke)
    except ScenarioError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if not args.smoke:
        print("results written to results/routing.json")
    return 0


def _explore_main(argv: List[str]) -> int:
    """``radical-repro explore`` — coverage-guided fault-schedule search:
    seeded random schedules over the full window vocabulary, run through
    the chaos harness across deployment shapes with every invariant
    armed; violations are delta-debugged to minimal reproducers (see
    docs/FAULTS.md, "Exploration")."""
    parser = argparse.ArgumentParser(
        prog="radical-repro explore",
        description="Search the fault-schedule space for invariant "
                    "violations; shrink and record anything found.",
    )
    parser.add_argument("--budget", type=int, default=None,
                        help="schedules to try (default: the config's 48)")
    parser.add_argument("--seed", type=int, default=None,
                        help="search seed (default: the config's 7)")
    parser.add_argument("--shapes", default=None,
                        help="comma-separated deployment shapes "
                             "(default: seed,sharded,replicated,mesh)")
    parser.add_argument("--requests", type=int, default=None,
                        help="requests per client per case")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized search, no results file")
    parser.add_argument("--corpus", default=None, metavar="DIR",
                        help="also write each minimized reproducer to DIR")
    parser.add_argument("--replay", nargs="?", const="corpus", default=None,
                        metavar="DIR",
                        help="replay every reproducer in DIR (default: "
                             "corpus/) instead of exploring; exits 1 on "
                             "any red replay")
    args = parser.parse_args(argv)

    from .errors import FaultConfigError
    from .scenarios import ScenarioError, run_scenario

    if args.replay is not None:
        from .faults.explorer import replay_corpus

        try:
            rows = replay_corpus(args.replay, log=print)
        except FaultConfigError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        red = [r for r in rows if not r["ok"]]
        print(f"{len(rows) - len(red)}/{len(rows)} corpus replays green")
        return 1 if red else 0

    if args.corpus is not None:
        # Direct mode: same engine, but persist reproducers as they are
        # found (the scenario driver writes only results/explore.json).
        from .faults.explorer import explore

        try:
            record = explore(
                budget=args.budget or 48,
                seed=args.seed if args.seed is not None else 7,
                shapes=tuple((args.shapes or "seed,sharded,replicated,mesh").split(",")),
                requests_per_client=args.requests or 12,
                corpus_dir=args.corpus,
                log=print,
            )
        except FaultConfigError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        print(f"{record.schedules_tried} schedules, "
              f"{record.novel_schedules} novel, "
              f"{len(record.violations)} violation(s)")
        return 1 if record.violations else 0

    overrides = {
        "budget": args.budget,
        "seed": args.seed,
        "shapes": (
            [s for s in args.shapes.split(",") if s]
            if args.shapes else None
        ),
        "requests": args.requests,
    }
    try:
        run_scenario("chaos_explore", overrides=overrides, smoke=args.smoke)
    except ScenarioError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if not args.smoke:
        print("results written to results/explore.json")
    return 0


def _run_legacy(name: str, overrides: Dict[str, object]) -> None:
    """One legacy command = one scenario run through the single driver
    code path (same presentation, same artifact bytes as ``run``).

    The artifact is written only at the config's own parameters: a run
    resized with ``--requests`` / ``--seed`` prints its table but must not
    replace the checked-in ``results/*.json`` (tier-1's ``fig1 --requests
    300`` did exactly that to ``fig1_motivation.json`` on every test run).
    """
    from .scenarios import discover_scenarios, load_scenario_file, run_scenario

    spec = load_scenario_file(discover_scenarios()[name])
    canonical = spec.resolved_params(overrides=overrides) == spec.resolved_params()
    run_scenario(spec, overrides=overrides, save=canonical)
    if canonical:
        print(f"results written to results/{spec.artifact}.json")
    else:
        print(f"non-default parameters: results/{spec.artifact}.json left untouched")


def _cmd_fig1(args: argparse.Namespace) -> None:
    _run_legacy("fig1", {
        "requests_per_region": (
            max(50, args.requests // 10) if args.requests else None
        ),
        "seed": args.seed,
    })


def _cmd_table1(args: argparse.Namespace) -> None:
    _run_legacy("table1", {})


def _cmd_table2(args: argparse.Namespace) -> None:
    _run_legacy("table2", {})


def _traced_trios(args: argparse.Namespace) -> None:
    """The ``--trace-out`` path: rerun the three apps with structured
    tracing and dump every span.  A diagnostic rerun — the traced
    deployments are driven identically, but no results/*.json is written
    (artifact regeneration stays with the scenario driver)."""
    from .bench import ExperimentConfig, run_eval_trio

    cfg = ExperimentConfig(
        requests=args.requests or 2500, seed=args.seed or 42, trace=True,
    )
    trios = {app: run_eval_trio(app, cfg) for app in ("social", "hotel", "forum")}
    _export_traces(args.trace_out, trios)


def _export_traces(path: str, trios: dict) -> None:
    """Dump every Radical span to ``path`` (JSONL, one record per span,
    tagged with the app it came from) and print each app's breakdown."""
    from .bench import print_breakdown_report
    from .obs import write_jsonl

    first = True
    offset = 0
    for app, trio in trios.items():
        spans = trio.radical.trace.spans
        # Each collector numbers traces from 1; offset so the merged file
        # keeps every app's invocations distinct for the analyzer.
        write_jsonl(path, spans, extra={"app": app}, append=not first,
                    trace_id_offset=offset)
        first = False
        offset += max((s.trace_id for s in spans), default=0)
        print_breakdown_report(
            trio.radical.breakdowns(),
            title=f"Latency breakdown ({app}, Radical)",
        )
    print(f"trace spans written to {path}")


def _cmd_eval_trio(name: str, args: argparse.Namespace) -> None:
    if getattr(args, "trace_out", None):
        _traced_trios(args)
        return
    _run_legacy(name, {"requests": args.requests, "seed": args.seed})


def _cmd_fig4(args: argparse.Namespace) -> None:
    _cmd_eval_trio("fig4", args)


def _cmd_fig5(args: argparse.Namespace) -> None:
    _cmd_eval_trio("fig5", args)


def _cmd_fig6(args: argparse.Namespace) -> None:
    _cmd_eval_trio("fig6", args)


def _cmd_sweeps(args: argparse.Namespace) -> None:
    _run_legacy("sweep_skew", {"requests": args.requests, "seed": args.seed})
    _run_legacy("sweep_concurrency",
                {"requests": args.requests, "seed": args.seed})
    _run_legacy("sweep_offered_load", {"seed": args.seed})


def _cmd_sec56(args: argparse.Namespace) -> None:
    _run_legacy("sec56", {"seed": args.seed})


def _cmd_cost(args: argparse.Namespace) -> None:
    _run_legacy("sec57", {})


def _cmd_ablations(args: argparse.Namespace) -> None:
    for name in ("ablation_overlap", "ablation_two_rtt",
                 "ablation_lock_modes", "ablation_cache_bootstrap"):
        _run_legacy(name, {"requests": args.requests, "seed": args.seed})


def _trace_main(argv: List[str]) -> int:
    """``radical-repro trace summarize <file.jsonl>`` — offline analysis of
    an exported span file: the per-path phase breakdown table plus the
    critical-path signature histogram."""
    parser = argparse.ArgumentParser(
        prog="radical-repro trace",
        description="Analyze an exported trace span file (JSONL).",
    )
    parser.add_argument("action", choices=["summarize"],
                        help="what to do with the trace file")
    parser.add_argument("file", help="JSONL span file written by --trace-out")
    args = parser.parse_args(argv)

    from .bench import format_breakdown_report, print_table
    from .obs import all_breakdowns, critical_path_signatures, read_jsonl

    try:
        spans = read_jsonl(args.file)
    except OSError as exc:
        print(f"{args.file}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        print(f"{args.file}: not a span JSONL file ({exc})", file=sys.stderr)
        return 1
    if not spans:
        print(f"{args.file}: no spans")
        return 1
    breakdowns = all_breakdowns(spans)
    print()
    print(format_breakdown_report(
        breakdowns, title=f"Latency breakdown ({args.file})"
    ))
    print()
    signatures = critical_path_signatures(spans)
    print_table(
        ["critical path", "count"],
        sorted(signatures.items(), key=lambda kv: (-kv[1], kv[0])),
        title="Critical-path signatures",
    )
    total_spans = len(spans)
    print(f"{total_spans} spans, {len(breakdowns)} invocations")
    return 0


def _chaos_main(argv: List[str]) -> int:
    """``radical-repro chaos`` — run the fault-plan x seed chaos matrix and
    fail (exit 1) on any strict-serializability violation, lost or
    duplicated write, hang, or blown deadline."""
    parser = argparse.ArgumentParser(
        prog="radical-repro chaos",
        description="Prove linearizability and exactly-once writes under "
                    "scripted fault plans.",
    )
    parser.add_argument("--seeds", type=int, default=10,
                        help="number of seeds per plan (0..N-1)")
    parser.add_argument("--plans", default="all",
                        help="'all', or a comma-separated mix of plan names, "
                             "globs over plan names ('mesh-*'), and "
                             "@file.json serialized-plan references")
    parser.add_argument("--requests", type=int, default=25,
                        help="requests per client per case")
    parser.add_argument("--clients", type=int, default=1,
                        help="clients per region per case")
    parser.add_argument("--shards", type=int, default=1,
                        help="near-storage shard count for every case")
    parser.add_argument("--detect", action="store_true",
                        help="run every case with in-network conflict "
                             "detection on (dirty-set router fast path + "
                             "read replicas); adds the sanitizer and "
                             "dirty-set-balance verdicts")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the case results JSON to PATH "
                             "(default: results/chaos.json)")
    parser.add_argument("--list-plans", "--list", action="store_true",
                        dest="list_plans",
                        help="list the built-in fault plans and exit")
    args = parser.parse_args(argv)

    from .bench import print_table, save_results
    from .errors import FaultConfigError
    from .faults import builtin_plans, resolve_plans, run_chaos_case

    if args.list_plans:
        from .faults.plan import _describe

        for name, plan in sorted(builtin_plans().items()):
            print(f"{name:24s} {plan.description}")
            for action in plan.actions:
                print(f"{'':24s}  - {_describe(action)}")
        return 0
    try:
        plans = resolve_plans(args.plans)
    except FaultConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    rows = []
    results = []
    for plan in plans:
        plan_results = [
            run_chaos_case(
                plan, seed=seed,
                requests_per_client=args.requests,
                clients_per_region=args.clients,
                shards=args.shards,
                detect=args.detect,
            )
            for seed in range(args.seeds)
        ]
        results.extend(plan_results)
        acked = sum(r.acked for r in plan_results)
        total = sum(r.requests for r in plan_results)
        medians = [r.median_ms for r in plan_results if r.median_ms is not None]
        p99s = [r.p99_ms for r in plan_results if r.p99_ms is not None]
        rows.append([
            plan.name,
            f"{acked / total * 100:.1f}%" if total else "-",
            f"{max(medians):.0f}" if medians else "-",
            f"{max(p99s):.0f}" if p99s else "-",
            sum(r.counters.get("reexecution.count", 0) for r in plan_results),
            sum(r.counters.get("rpc.retry", 0) for r in plan_results),
            sum(1 for r in plan_results if not r.ok),
        ])
    print_table(
        ["plan", "availability", "worst med (ms)", "worst p99 (ms)",
         "reexecs", "retries", "violations"],
        rows,
        title=f"Chaos matrix: {len(plans)} plan(s) x {args.seeds} seed(s)"
              + (f" on {args.shards} shards" if args.shards > 1 else ""),
    )
    payload = {"shards": args.shards, "cases": [r.to_dict() for r in results]}
    if args.out:
        import os

        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        print(f"results written to {args.out}")
    else:
        save_results("chaos", payload)
    failures = [r for r in results if not r.ok]
    if failures:
        for r in failures:
            print(
                f"FAIL plan={r.plan} seed={r.seed}: "
                f"serializable={r.serializable} lost={r.lost_writes} "
                f"dup={r.duplicate_writes} completed={r.completed} "
                f"deadline_ok={r.deadline_ok} {r.violation}",
                file=sys.stderr,
            )
        return 1
    print(f"{len(results)} cases: all serializable, exactly-once, and within deadline")
    return 0


def _scalability_main(argv: List[str]) -> int:
    """``radical-repro scalability`` — sweep shard count x workload under
    the serial server-processing model and report delivered throughput."""
    parser = argparse.ArgumentParser(
        prog="radical-repro scalability",
        description="Aggregate throughput vs near-storage shard count "
                    "(see docs/TOPOLOGY.md).",
    )
    parser.add_argument("--shards", default="1,2,4,8",
                        help="comma-separated shard counts to sweep")
    parser.add_argument("--rate", type=float, default=150.0,
                        help="offered load per region (rps, open loop)")
    parser.add_argument("--duration", type=float, default=4_000.0,
                        help="generation window per point (virtual ms)")
    parser.add_argument("--batch-window", type=float, default=5.0,
                        help="LVI batching window (virtual ms; 0 disables)")
    parser.add_argument("--seed", type=int, default=42, help="sweep seed")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized sweep: 1+2 shards, short window, "
                             "counter workload only")
    args = parser.parse_args(argv)

    from .bench import print_table, sweep_scalability, uniform_counter_app

    if args.smoke:
        # Smoke runs must not clobber the full-sweep artifact.
        payload = sweep_scalability(
            shard_counts=(1, 2),
            rate_rps_per_region=100.0,
            duration_ms=1_500.0,
            batch_window_ms=args.batch_window,
            seed=args.seed,
            workloads={"counter": uniform_counter_app},
            save=False,
        )
    else:
        shard_counts = tuple(int(s) for s in args.shards.split(",") if s)
        payload = sweep_scalability(
            shard_counts=shard_counts,
            rate_rps_per_region=args.rate,
            duration_ms=args.duration,
            batch_window_ms=args.batch_window,
            seed=args.seed,
        )
    print_table(
        ["series", "shards", "throughput (rps)", "median (ms)", "p99 (ms)",
         "coalesced", "xshard commits"],
        [[p["series"], p["shards"], p["throughput_rps"], round(p["median_ms"], 1),
          round(p["p99_ms"], 1), p["batch_coalesced"], p["xshard_commits"]]
         for p in payload["points"]],
        title=f"Scalability: offered {payload['rate_rps_per_region']:.0f} "
              f"rps/region, proc {payload['server_proc_ms']:.0f} ms/msg",
    )
    by_series: dict = {}
    for p in payload["points"]:
        by_series.setdefault(p["series"], {})[p["shards"]] = p["throughput_rps"]
    failures = []
    for series, pts in by_series.items():
        base = pts.get(1)
        top = max(pts)
        if base and pts[top] < base:
            failures.append(f"{series}: {top}-shard throughput below 1-shard")
    for msg in failures:
        print(f"FAIL {msg}", file=sys.stderr)
    if not args.smoke:
        print("results written to results/scalability.json")
    return 1 if failures else 0


def _analyze_main(argv: List[str]) -> int:
    """``radical-repro analyze`` — replay the app corpus through the static
    analysis pipeline: Table-1-style per-function facts, the IR optimizer's
    executed-gas savings on f^rw, the shard-affinity classification, and
    the cross-function conflict matrix.  Exits 1 if any function regressed
    from analyzable to fallback, any optimized slice used more gas than the
    unoptimized one (or predicted a different rw-set), any speculative
    execution escaped its prediction, or the three analysis engines
    disagree (see docs/ANALYSIS.md)."""
    parser = argparse.ArgumentParser(
        prog="radical-repro analyze",
        description="Static-analysis facts, f^rw optimizer savings, and "
                    "soundness over the app corpus.",
    )
    parser.add_argument("--inputs", type=int, default=None,
                        help="replayed inputs per function (default: 10)")
    parser.add_argument("--seed", type=int, default=42, help="replay seed")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run: 3 inputs per function, no "
                             "results file")
    parser.add_argument("--explain", metavar="FUNCTION", default=None,
                        help="explain one function's static verdict: its "
                             "key constraints, read-only/commutativity "
                             "classification, and a witness for every "
                             "pair it may conflict with")
    args = parser.parse_args(argv)

    if args.explain is not None:
        return _explain_function(args.explain)

    from .analysis.ir.summary import ConflictMatrix
    from .bench import (
        ANALYSIS_INPUTS,
        analysis_gate_failures,
        conflict_density,
        print_table,
        run_analysis_corpus,
        save_results,
    )
    from .bench.analysis import _baseline_density

    inputs = args.inputs or (3 if args.smoke else ANALYSIS_INPUTS)
    # The density ratchet compares against the artifact on disk, so read
    # it *before* save_results overwrites it below.
    baseline_density = _baseline_density()
    payload = run_analysis_corpus(inputs_per_function=inputs, seed=args.seed)

    rows = []
    for r in payload["functions"]:
        if not r["analyzable"]:
            rows.append([r["function"], "-", "no", "-", "-", "-", "-", "-"])
            continue
        replay = r["replay"]
        rows.append([
            r["function"],
            "yes" if r["writes"] else "no",
            "yes",
            "yes" if r["dependent_reads"] else "no",
            f"{r['slice_ratio'] * 100:.2f}",
            f"{r['slice_ratio_optimized'] * 100:.2f}",
            f"{replay['gas_reduction_pct']:.1f}",
            "yes" if r.get("single_shard_affine") else "no",
        ])
    print_table(
        ["function", "writes", "analyzable", "dep reads", "slice %",
         "opt slice %", "gas saved %", "1-shard"],
        rows,
        title=f"Static analysis: {payload['aggregate']['analyzable']}"
              f"/{payload['aggregate']['functions']} analyzable, "
              f"{inputs} input(s)/function",
    )
    agg = payload["aggregate"]["gas_reduction_pct"]
    print(
        f"f^rw executed-gas reduction: median {agg['median']:.1f}%, "
        f"mean {agg['mean']:.1f}%; {agg['functions_improved']} function(s) "
        f"improved (median among them {agg['median_nonzero']:.1f}%)"
    )
    print(
        f"shard affinity: {payload['aggregate']['single_shard_affine']} "
        f"function(s) statically single-shard; registration-time shard for "
        f"{', '.join(payload['aggregate']['static_key_functions']) or 'none'}"
    )
    print(f"sanitizer: {payload['aggregate']['unsound_executions']} unsound "
          f"execution(s)")
    kinds = payload["aggregate"]["constraint_kinds"]
    print(
        f"conflict predicates: {payload['aggregate']['lock_skippable']} "
        f"function(s) lock-skippable, "
        f"{payload['aggregate']['commutative_writes']} with commutative "
        f"writes; constraint kinds "
        + ", ".join(f"{k}={kinds[k]}" for k in sorted(kinds) if kinds[k])
    )
    density = payload["aggregate"]["conflict_density"]
    print(
        f"conflict-matrix density: {density:.4f}"
        + (f" (checked-in: {baseline_density:.4f})"
           if baseline_density is not None else "")
    )

    cm = payload["conflict_matrix"]
    hits = {tuple(pair) for pair in cm["conflicting_pairs"]}
    names = cm["names"]
    matrix = ConflictMatrix(
        names=names,
        pairs={
            (a, b): ((a, b) in hits or (b, a) in hits)
            for i, a in enumerate(names) for b in names[i:]
        },
    )
    print("\nMay-conflict matrix (x = a write pattern may overlap):")
    print(matrix.render())

    if not args.smoke:
        save_results("analysis", payload)
        print("\nresults written to results/analysis.json")
    failures = analysis_gate_failures(payload, baseline_density=baseline_density)
    for msg in failures:
        print(f"FAIL {msg}", file=sys.stderr)
    return 1 if failures else 0


def _explain_function(function_id: str) -> int:
    """``radical-repro analyze --explain fn`` — one function's static
    story: every key constraint the dataflow solver proved, the
    read-only / commutative-write classification, the lock-skip verdict,
    and a concrete witness for every function it may conflict with."""
    from .analysis.ir.summary import conflict_witness
    from .apps import all_apps
    from .core.registry import FunctionRegistry

    registry = FunctionRegistry()
    records = {}
    for app in all_apps():
        for fn in app.functions:
            records[fn.function_id] = registry.register(fn.spec)
    if function_id not in records:
        print(f"unknown function {function_id!r}; corpus functions:",
              file=sys.stderr)
        for name in sorted(records):
            print(f"  {name}", file=sys.stderr)
        return 2
    analyzed = records[function_id].analyzed
    if not analyzed.analyzable:
        print(f"{function_id}: not analyzable ({analyzed.error})")
        return 1
    summary = analyzed.summary
    print(f"{function_id}")
    print(f"  analyzable:         yes")
    print(f"  read-only:          {'yes' if summary.read_only else 'no'}")
    print(f"  commutative writes: "
          f"{'yes' if summary.commutative_writes else 'no'}")
    print(f"  single-key:         {'yes' if summary.single_key else 'no'}")
    if summary.static_key is not None:
        table, key = summary.static_key
        print(f"  static key:         {table}/{key} (shard known at "
              f"registration)")
    verdict = "yes" if summary.lock_skippable else "no"
    why = ""
    if not summary.lock_skippable:
        if not summary.read_only:
            why = " (it writes)"
        elif summary.predicate is None or not summary.predicate.precise:
            why = " (a constraint degenerates to 'any')"
    print(f"  lock-skippable:     {verdict}{why}")

    print("\n  key constraints (argument-sensitive):")
    if summary.predicate is None or not summary.predicate.constraints:
        print("    (none — the function touches no storage)")
    else:
        for c in summary.predicate.constraints:
            print(f"    {c.describe()}")

    print("\n  may-conflict witnesses:")
    clean = True
    for other_id in sorted(records):
        if other_id == function_id:
            continue
        other = records[other_id].analyzed
        if not other.analyzable or other.summary is None:
            continue
        witness = conflict_witness(summary, other.summary)
        if witness is None:
            continue
        clean = False
        writer, wpat, reader, rpat = witness
        print(f"    vs {other_id}: {writer} writes "
              f"{wpat.table}/{wpat.pattern}, {reader} touches "
              f"{rpat.table}/{rpat.pattern}")
    if clean:
        print("    (none — provably conflict-free against the whole corpus)")
    return 0


def _lint_main(argv: List[str]) -> int:
    """``radical-repro lint`` — determinism lint over the simulation core
    (see repro.analysis.lint): no wall clocks, no ambient randomness."""
    from .analysis.lint import main as lint_main

    return lint_main(argv)


def _kernelbench_main(argv: List[str]) -> int:
    """``radical-repro kernelbench`` — measure simulator kernel throughput
    (events/sec, wall-clock per simulated second, peak RSS) and write
    ``BENCH_kernel.json``.  ``--smoke`` runs CI-sized workloads and gates
    fig4 on the repo-stored requests/sec floor (fails on a >20%
    regression) and on the exact events-per-request ceiling."""
    parser = argparse.ArgumentParser(
        prog="radical-repro kernelbench",
        description="Benchmark the simulation kernel "
                    "(see docs/PERFORMANCE.md).",
    )
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run gated on benchmarks/kernel_floor.json")
    parser.add_argument("--workers", type=int, default=None,
                        help="sweep worker processes (default: CPU count)")
    parser.add_argument("--out", default="BENCH_kernel.json", metavar="PATH",
                        help="where to write the report")
    parser.add_argument("--skip-openloop", action="store_true",
                        help="skip the chunked open-loop sweep workload")
    args = parser.parse_args(argv)

    from .bench import print_table, run_kernelbench

    report = run_kernelbench(
        smoke=args.smoke,
        workers=args.workers,
        out_path=args.out,
        skip_openloop=args.skip_openloop,
    )
    rows = []
    for name, row in sorted(report["workloads"].items()):
        t = row["timing"]
        speed = report.get("speedup_vs_baseline", {}).get(name, {}).get("speedup")
        rows.append([
            name,
            row["sim"]["events_dispatched"],
            round(t["events_per_sec"]),
            round(t["wall_per_sim_sec"], 4),
            round(t["wall_s"], 3),
            f"{speed:.2f}x" if speed else "-",
        ])
    print_table(
        ["workload", "events", "events/sec", "wall s / sim s", "wall (s)",
         "vs baseline"],
        rows,
        title=f"Kernel benchmark ({report['meta']['workers']} worker(s), "
              f"python {report['meta']['python']})",
    )
    print(f"report written to {args.out}")
    check = report.get("floor_check")
    if check is not None and not check["ok"]:
        print(
            f"FAIL fig4 requests/sec {check['measured_requests_per_sec']:.0f} "
            f"(threshold {check['threshold']:.0f} = floor "
            f"{check['floor_requests_per_sec']:.0f} - 20%), events/request "
            f"{check['measured_events_per_request']:.2f} "
            f"(ceiling {check['events_per_request_ceiling']})",
            file=sys.stderr,
        )
        return 1
    return 0


def _mesh_main(argv: List[str]) -> int:
    """``radical-repro mesh`` — sweep the PoP cache mesh over the Figure-5
    regional workloads: validation-abort and backup-execution rates vs
    gossip interval (cache staleness), mesh on/off, with and without a
    PoP-partition chaos window (see docs/MESH.md)."""
    parser = argparse.ArgumentParser(
        prog="radical-repro mesh",
        description="Abort/backup rates vs cache staleness, mesh on/off, "
                    "under PoP-partition chaos.",
    )
    parser.add_argument("--requests", type=int, default=1_200,
                        help="workload size per sweep point")
    parser.add_argument("--seed", type=int, default=42, help="sweep seed")
    parser.add_argument("--intervals", default=None,
                        help="comma-separated gossip intervals in virtual ms "
                             "(default: 25,100,400)")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized sweep: forum only, one interval, "
                             "no results file")
    args = parser.parse_args(argv)

    from .bench import (
        MESH_GOSSIP_INTERVALS,
        mesh_gate_failures,
        print_table,
        sweep_mesh,
    )

    if args.smoke:
        # Smoke runs must not clobber the full-sweep artifact.
        payload = sweep_mesh(
            apps=("forum",), intervals=(50.0,), requests=300,
            seed=args.seed, save=False,
        )
    else:
        intervals = (
            tuple(float(s) for s in args.intervals.split(",") if s)
            if args.intervals else MESH_GOSSIP_INTERVALS
        )
        payload = sweep_mesh(
            intervals=intervals, requests=args.requests, seed=args.seed,
        )
    print_table(
        ["app", "mesh", "chaos", "abort %", "backup %", "hit age p50 (ms)",
         "med (ms)", "updates applied"],
        [[r["app"], r["mesh"], r["chaos"],
          f"{r['abort_rate'] * 100:.2f}" if r["abort_rate"] is not None else "-",
          f"{r['backup_rate'] * 100:.2f}" if r["backup_rate"] is not None else "-",
          r["hit_age_p50_ms"] if r["hit_age_p50_ms"] is not None else "-",
          r["median_ms"], r["updates_applied"]]
         for r in payload["rows"]],
        title=f"Mesh sweep: {len(payload['apps'])} app(s), "
              f"{payload['requests']} requests/point",
    )
    failures = mesh_gate_failures(payload)
    for msg in failures:
        print(f"FAIL {msg}", file=sys.stderr)
    if not args.smoke:
        print("results written to results/mesh.json")
    return 1 if failures else 0


def _overload_main(argv: List[str]) -> int:
    """``radical-repro overload`` — sweep offered load past one server's
    capacity with the overload controls on and off, and report goodput:
    the plateau-vs-collapse evidence for admission control + backpressure
    (see docs/FAULTS.md, "Overload and metastability")."""
    parser = argparse.ArgumentParser(
        prog="radical-repro overload",
        description="Goodput under overload: shedding on (plateau) vs "
                    "off (metastable collapse).",
    )
    parser.add_argument("--rates", default=None,
                        help="comma-separated offered rates in rps "
                             "(default: 40,60,80,100,120,160)")
    parser.add_argument("--duration", type=float, default=3_000.0,
                        help="generation window per point (virtual ms)")
    parser.add_argument("--seed", type=int, default=42, help="sweep seed")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized sweep: two rates, short window, "
                             "no results file")
    args = parser.parse_args(argv)

    from .bench import OVERLOAD_RATES, print_table, sweep_overload

    if args.smoke:
        # Smoke runs must not clobber the full-sweep artifact.  One rate
        # below capacity (sanity: the series agree there) and one far
        # past it (where the controls must separate the series).
        payload = sweep_overload(rates=(60.0, 160.0), duration_ms=1_500.0,
                                 seed=args.seed, save=False)
    else:
        rates = (
            tuple(float(r) for r in args.rates.split(",") if r)
            if args.rates else None
        )
        payload = sweep_overload(
            rates=rates or tuple(OVERLOAD_RATES),
            duration_ms=args.duration, seed=args.seed,
        )
    print_table(
        ["series", "rate (rps)", "goodput (rps)", "acked", "failed", "shed",
         "timeouts", "max queue", "p99 (ms)"],
        [[p["series"], p["rate_rps"], p["goodput_rps"], p["acked"],
          p["unavailable"], p["shed"], p["rpc_timeouts"],
          p["max_admission_queue"],
          round(p["p99_ms"], 1) if p["p99_ms"] is not None else "-"]
         for p in payload["points"]],
        title=f"Overload sweep: proc {payload['server_proc_ms']:.0f} ms/msg, "
              f"queue depth {payload['admission_queue_depth']}, "
              f"rpc timeout {payload['rpc_timeout_ms']:.0f} ms",
    )
    by_series: dict = {}
    for p in payload["points"]:
        by_series.setdefault(p["series"], {})[p["rate_rps"]] = p["goodput_rps"]
    top = max(by_series["shed-on"])
    failures = []
    if by_series["shed-on"][top] < by_series["shed-off"][top]:
        failures.append(
            f"shed-on goodput at {top:.0f} rps "
            f"({by_series['shed-on'][top]:.1f}) below shed-off "
            f"({by_series['shed-off'][top]:.1f})"
        )
    for msg in failures:
        print(f"FAIL {msg}", file=sys.stderr)
    if not args.smoke:
        print("results written to results/overload.json")
    return 1 if failures else 0


_COMMANDS = {
    "fig1": _cmd_fig1,
    "table1": _cmd_table1,
    "table2": _cmd_table2,
    "fig4": _cmd_fig4,
    "fig5": _cmd_fig5,
    "fig6": _cmd_fig6,
    "sec56": _cmd_sec56,
    "cost": _cmd_cost,
    "ablations": _cmd_ablations,
    "sweeps": _cmd_sweeps,
}

#: Subcommands with their own positional grammar, dispatched before the
#: legacy experiment parser sees the argv.
_SUBCOMMANDS = {
    "run": _run_main,
    "routing": _routing_main,
    "trace": _trace_main,
    "chaos": _chaos_main,
    "explore": _explore_main,
    "scalability": _scalability_main,
    "overload": _overload_main,
    "mesh": _mesh_main,
    "kernelbench": _kernelbench_main,
    "analyze": _analyze_main,
    "lint": _lint_main,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``radical-repro`` console script."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in _SUBCOMMANDS:
        return _SUBCOMMANDS[argv[0]](argv[1:])
    parser = argparse.ArgumentParser(
        prog="radical-repro",
        description="Reproduce the evaluation of Radical (SOSP 2025). "
                    "Prefer 'run <scenario|glob|all>' — the legacy "
                    "per-figure commands below wrap the same scenarios.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(_COMMANDS) + ["all"],
        help="which table/figure to regenerate "
             "(or: run <scenario...>, trace summarize <file.jsonl>)",
    )
    parser.add_argument("--requests", type=int, default=None,
                        help="workload size for latency experiments "
                             "(default: the scenario config's value)")
    parser.add_argument("--seed", type=int, default=None,
                        help="experiment seed (default: the config's value)")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="rerun Radical with structured tracing and write "
                             "all spans to PATH as JSONL (fig4/fig5/fig6; "
                             "diagnostic only, no results/*.json)")
    args = parser.parse_args(argv)

    from .scenarios import ScenarioError

    try:
        if args.experiment == "all":
            return _run_main([])
        _COMMANDS[args.experiment](args)
    except ScenarioError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
