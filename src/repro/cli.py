"""Command-line interface: one way to run an experiment.

Usage::

    radical-repro run all                      # every scenario in configs/
    radical-repro run fig4 'sweep_*' --smoke   # names or globs; CI-sized runs
    radical-repro run --list                   # the scenario matrix
    radical-repro run chaos --set plans='mesh-*' --set seeds=3
    radical-repro trace record /tmp/t.jsonl --requests 200
    radical-repro trace summarize /tmp/t.jsonl
    radical-repro explore --replay corpus/     # replay stored fault schedules
    radical-repro analyze --explain social.follow

Every experiment is a scenario config under ``configs/`` (one JSON file
per paper artifact — see EXPERIMENTS.md); ``run`` drives any subset
through :mod:`repro.scenarios`, the only code path that runs an experiment
and the only writer of ``results/*.json``.  ``--set key=value`` is typed
and validated by the scenario kind's parameter schema, and an artifact is
written only at its config's own parameters: a resized run prints its
tables and leaves ``results/`` untouched.  The other commands are tools
around that path, not experiments (``trace``, ``explore``, ``analyze
--explain``, ``lint``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

__all__ = ["main"]


def _run_main(argv: List[str]) -> int:
    """``radical-repro run`` — the scenario-matrix driver."""
    parser = argparse.ArgumentParser(
        prog="radical-repro run",
        description="Run scenarios from configs/ (see EXPERIMENTS.md); an "
                    "artifact is written only at its config's own parameters.",
    )
    parser.add_argument("scenarios", nargs="*", metavar="SCENARIO",
                        help="scenario names or shell-style globs "
                             "(default: all)")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized runs; writes no artifacts, checks "
                             "payload and artifact structure instead")
    parser.add_argument("--list", action="store_true", dest="list_only",
                        help="list the selected scenarios and exit")
    parser.add_argument("--set", action="append", default=[], dest="sets",
                        metavar="KEY=VALUE",
                        help="override a parameter of every selected scenario "
                             "(repeatable; typed by the kind's schema: lists "
                             "are comma-separated, dicts are JSON)")
    args = parser.parse_args(argv)

    from .scenarios import run_matrix

    return run_matrix(
        args.scenarios or ["all"],
        smoke=args.smoke,
        list_only=args.list_only,
        sets=args.sets,
    )


def _explore_main(argv: List[str]) -> int:
    """``radical-repro explore`` — the corpus side of the fault-schedule
    explorer (docs/FAULTS.md, "Exploration"); the search itself is the
    ``chaos_explore`` scenario (``run chaos_explore``)."""
    parser = argparse.ArgumentParser(
        prog="radical-repro explore",
        description="Replay or collect fault-schedule reproducers, or list "
                    "the built-in fault plans ('run chaos_explore' runs the "
                    "search as an experiment).",
    )
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--replay", nargs="?", const="corpus", metavar="DIR",
                      help="replay every reproducer in DIR (default: "
                           "corpus/); exits 1 on any red replay")
    mode.add_argument("--corpus", metavar="DIR",
                      help="run the chaos_explore search, writing each "
                           "minimized reproducer to DIR instead of "
                           "results/; exits 1 on any violation")
    mode.add_argument("--list-plans", action="store_true",
                      help="list the built-in fault plans and exit")
    parser.add_argument("--set", action="append", default=[], dest="sets",
                        metavar="KEY=VALUE",
                        help="with --corpus: override a chaos_explore parameter")
    args = parser.parse_args(argv)

    from .errors import FaultConfigError

    if args.list_plans:
        from .faults import builtin_plans
        from .faults.plan import _describe

        for name, plan in sorted(builtin_plans().items()):
            print(f"{name:24s} {plan.description}")
            for action in plan.actions:
                print(f"{'':24s}  - {_describe(action)}")
        return 0

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

    # --corpus: the scenario's own engine and parameters, but persisting
    # reproducers as they are found instead of writing results/explore.json.
    from .scenarios import ScenarioError, load_scenario, parse_set_args
    from .scenarios.runners import run_exploration

    try:
        spec = load_scenario("chaos_explore")
        p = spec.resolved_params(overrides=parse_set_args(spec, args.sets))
        record = run_exploration(p, corpus_dir=args.corpus, log=print)
    except (ScenarioError, FaultConfigError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(f"{record.schedules_tried} schedules, {record.novel_schedules} novel, "
          f"{len(record.violations)} violation(s)")
    return 1 if record.violations else 0


def _trace_main(argv: List[str]) -> int:
    """``radical-repro trace record|summarize`` — export the spans of a
    traced run, or analyze such a file offline."""
    parser = argparse.ArgumentParser(
        prog="radical-repro trace",
        description="Record structured trace spans (JSONL) or analyze a "
                    "recorded file.",
    )
    actions = parser.add_subparsers(dest="action", required=True, metavar="ACTION")
    record = actions.add_parser(
        "record",
        help="rerun the fig4 scenario's Radical deployments with tracing "
             "on and write every span to OUT (no results/*.json)",
    )
    record.add_argument("out", metavar="OUT", help="JSONL file to write")
    record.add_argument("--requests", type=int, default=None,
                        help="workload size (default: configs/fig4.json's)")
    record.add_argument("--seed", type=int, default=None,
                        help="experiment seed (default: configs/fig4.json's)")
    summarize = actions.add_parser(
        "summarize", help="phase breakdown and critical paths of a recorded file",
    )
    summarize.add_argument("file", metavar="FILE",
                           help="JSONL span file written by 'trace record'")
    args = parser.parse_args(argv)
    if args.action == "record":
        return _trace_record(args.out, args.requests, args.seed)
    return _trace_summarize(args.file)


def _trace_record(out: str, requests: Optional[int], seed: Optional[int]) -> int:
    """Dump every Radical span of the three apps to ``out`` (JSONL, one
    record per span, tagged with the app it came from) and print each
    app's breakdown.  The traced deployments are driven exactly as the
    ``fig4`` scenario drives them — tracing is observationally free."""
    from .bench import MAIN_APP_BUILDERS, PAPER_JITTER_SIGMA, drive_closed_loop, print_breakdown_report
    from .obs import all_breakdowns, write_jsonl
    from .scenarios import load_scenario
    from .topology import Deployment, TopologySpec

    p = load_scenario("fig4").resolved_params(overrides={"requests": requests, "seed": seed})
    spec = TopologySpec(
        seed=p["seed"], network_jitter_sigma=PAPER_JITTER_SIGMA, rtt=p["rtt"], trace=True
    )
    offset = 0
    for i, name in enumerate(p["apps"]):
        app = MAIN_APP_BUILDERS[name]()
        dep = drive_closed_loop(Deployment.build(spec, app=app), app, p["requests"])
        spans = dep.trace.spans
        # Each collector numbers traces from 1; offset so the merged file
        # keeps every app's invocations distinct for the analyzer.
        write_jsonl(out, spans, extra={"app": name}, append=i > 0, trace_id_offset=offset)
        offset += max((s.trace_id for s in spans), default=0)
        print_breakdown_report(all_breakdowns(spans), title=f"Latency breakdown ({name}, Radical)")
    print(f"trace spans written to {out}")
    return 0


def _trace_summarize(path: str) -> int:
    """The per-path phase breakdown table plus the critical-path
    signature histogram of an exported span file."""
    from .bench import format_breakdown_report, print_table
    from .obs import all_breakdowns, critical_path_signatures, read_jsonl

    try:
        spans = read_jsonl(path)
    except OSError as exc:
        print(f"{path}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        print(f"{path}: not a span JSONL file ({exc})", file=sys.stderr)
        return 1
    if not spans:
        print(f"{path}: no spans")
        return 1
    breakdowns = all_breakdowns(spans)
    print()
    print(format_breakdown_report(breakdowns, title=f"Latency breakdown ({path})"))
    print()
    signatures = critical_path_signatures(spans)
    print_table(
        ["critical path", "count"],
        sorted(signatures.items(), key=lambda kv: (-kv[1], kv[0])),
        title="Critical-path signatures",
    )
    print(f"{len(spans)} spans, {len(breakdowns)} invocations")
    return 0


def _analyze_main(argv: List[str]) -> int:
    """``radical-repro analyze --explain FUNCTION`` — one function's static
    verdict.  The corpus-wide report is the ``analysis`` scenario
    (``run analysis``; see docs/ANALYSIS.md)."""
    parser = argparse.ArgumentParser(
        prog="radical-repro analyze",
        description="Explain one function's static-analysis verdict ('run "
                    "analysis' is the corpus report and its soundness gate).",
    )
    parser.add_argument("--explain", metavar="FUNCTION", required=True,
                        help="the function's key constraints, read-only / "
                             "commutativity classification, and a witness "
                             "for every pair it may conflict with")
    return _explain_function(parser.parse_args(argv).explain)


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


_SUBCOMMANDS = {
    "run": _run_main,
    "explore": _explore_main,
    "analyze": _analyze_main,
    "trace": _trace_main,
    "lint": _lint_main,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``radical-repro`` console script."""
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = argparse.ArgumentParser(
        prog="radical-repro",
        # Printed with every top-level error, so a removed command
        # (``fig4``, ``chaos --seeds 3``) is told where it went.
        usage="radical-repro {%s} ...  (experiments: 'radical-repro run "
              "<scenario|glob|all> [--set key=value]', see 'run --list'; "
              "every command has its own --help)" % ",".join(_SUBCOMMANDS),
        description="Reproduce the evaluation of Radical (SOSP 2025).",
    )
    parser.add_argument("command", choices=list(_SUBCOMMANDS),
                        help="run: the scenario driver; the rest are tools "
                             "around it")
    command = parser.parse_args(argv[:1]).command
    return _SUBCOMMANDS[command](argv[1:])


if __name__ == "__main__":
    sys.exit(main())
