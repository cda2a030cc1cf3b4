#!/usr/bin/env python3
"""The ledger: a two-clock, per-layer benchmark of the Radical reproduction.

    python3 ledger/run.py                      # all six workloads, both passes
    python3 ledger/run.py --workload forum-mesh --seed 7 --smoke
    python3 ledger/run.py --workload social-closed --seed 3 --seconds 6 --trace 0
    python3 ledger/run.py compare A.json B.json

One workload runs in this process; several run one after another, each in a
fresh subprocess of this same script (so ``peak_rss_mb`` is per workload and
no import state leaks).  ``--trace 0`` measures the end-to-end metrics,
``--trace 1`` the per-layer ones, neither means both.  The last line printed
is one JSON object: for a single workload
``{"correct", "attempted", "failed", "metrics"}``, for several the summary,
which ends with ``"claim": null`` — this benchmark claims nothing.

Exit status is non-zero when any output check failed.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import spec  # noqa: E402  (needs HERE on the path)


# --------------------------------------------------------------------------
# One workload, in this process.
# --------------------------------------------------------------------------


def run_one(name: str, seed: int, seconds: Optional[float], trace: Optional[int],
            smoke: bool) -> Dict[str, Any]:
    if not (ROOT / "src" / "repro").is_dir():
        # Never measure some other copy of the program that happens to be
        # importable: the one under test is the one beside this directory.
        raise SystemExit(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    t0 = time.process_time()
    import workloads  # heavy: the whole simulator; its cost is part of setup_s

    import_s = time.process_time() - t0
    record: Dict[str, Any] = {
        "workload": name, "seed": seed, "smoke": smoke,
        "trace": "both" if trace is None else str(trace),
        "metrics": {}, "derived": {}, "checks": {}, "info": {}, "probes_missing": [],
        "attempted": 0, "failed": 0,
    }
    parts = []
    if trace in (None, 0):
        parts.append(workloads.run_end_to_end(name, seed, seconds, smoke, import_s))
    if trace in (None, 1):
        parts.append(workloads.run_per_layer(name, seed, seconds, smoke))
    for part in parts:
        record["metrics"].update(part["metrics"])
        record["derived"].update(part.get("derived", {}))
        for check, problem in part["checks"].items():
            record["checks"][check] = record["checks"].get(check) or problem
        record["info"].update(part["info"])
        record["probes_missing"] = part.get("probes_missing", record["probes_missing"])
    # The end-to-end pass counts over all pooled deployments; keep its tally
    # when both passes ran.
    record["attempted"], record["failed"] = parts[0]["attempted"], parts[0]["failed"]
    record["correct"] = not any(record["checks"].values())
    if "invariants_ok" in record["metrics"]:
        record["metrics"]["invariants_ok"]["value"] = int(record["correct"])
    return record


def contract_line(record: Dict[str, Any]) -> str:
    """The one-line result a harness parses.  A metric a missing probe left
    unknown is ``null`` in reports and 0 here, where a number is required;
    ``probes_missing`` on the line above says which."""
    metrics = {
        name: {"value": 0.0 if m["value"] is None else m["value"], "unit": m["unit"]}
        for name, m in record["metrics"].items()
    }
    return json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"], "metrics": metrics,
    })


# --------------------------------------------------------------------------
# Printing.
# --------------------------------------------------------------------------


def fmt(value: Any) -> str:
    if value is None:
        return "null"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def print_record(record: Dict[str, Any]) -> None:
    info = record["info"]
    name = record["workload"]
    print(f"== {name}  seed={record['seed']}  smoke={record['smoke']}  trace={record['trace']}")
    print(f"   {spec.WORKLOADS[name]}")
    print("   caches start warm; host numbers are this machine's; virtual ones are exact per seed")
    e2e = [m for m in spec.END_TO_END if m in record["metrics"]]
    if e2e:
        print(f"   end to end  (K={info['K']} timed repetitions of sub-seed 0, {info['subseeds']} pooled deployments, "
              f"{info['samples']} latency samples, {info['beyond_p99']} beyond p99, {info['loop']} loop)")
        for m in e2e:
            s = spec.END_TO_END[m]
            print(f"     {m:24s} {fmt(record['metrics'][m]['value']):>12s} {s.unit:6s} "
                  f"{s.clock:8s} {s.better} is better")
        d = record["derived"]
        print(f"     {'gain_vs_primary_pct':24s} {fmt(d['gain_vs_primary_pct']):>12s} %      "
              f"= 100 - p50_vs_primary_pct; paper: 28-35; baseline p50 {fmt(info['baseline_p50_ms'])} ms")
        print(f"     {'slo_miss_share':24s} {fmt(d['slo_miss_share']):>12s} share  "
              f"= 1 - in_slo_share; limit {info['slo_ms']:g} ms")
        print(f"     {'failed_share':24s} {fmt(d['failed_share']):>12s} share  "
              f"= 1 - ok_share; {info['unavailable']} unavailable + {info['wrong_results']} wrong "
              f"of {record['attempted']} attempted")
        print(f"     run_cpu_s sums the fastest of K repetitions over each of {info['slices']} slices; "
              f"whole repetitions took {[round(x, 3) for x in info['run_cpu_s_all']]} s "
              f"(min {fmt(info['run_cpu_s_min'])}, median {fmt(info['run_cpu_s_median'])}, "
              f"wall min {fmt(info['run_wall_s_min'])})")
        print(f"     max_rate_in_slo_rps: {info['ladder_note']}")
        for row in info.get("ladder", []):
            print(f"       offered {row['offered_rps']:7.0f} rps  p50 {row['p50_ms']:8.2f} ms  "
                  f"p99 {row['p99_ms']:9.2f} ms  makespan {row['makespan_ms']:8.1f} ms  "
                  f"n={row['samples']}  {'in limit' if row['in_slo'] else 'OVER'}")
        print(f"     gen_lag_ms = {info['gen_lag_ms']:g} ({info['gen_lag_note']})")
    layer = [m for m in spec.PER_LAYER if m in record["metrics"]]
    if layer:
        print(f"   per layer  (sub-seed 0, {info['attempted']} requests; reference "
              f"{fmt(info['ref_cpu_s'])} s, traced {fmt(info['pass_a_cpu_s'])} s, "
              f"probed {fmt(info['pass_b_cpu_s'])} s; shares are of probed time)")
        for m in layer:
            unit, _better, exact = spec.PER_LAYER[m]
            print(f"     {m:44s} {fmt(record['metrics'][m]['value']):>12s} {unit:6s}"
                  f"{' exact' if exact else ''}")
    if record["probes_missing"]:
        print(f"   probes_missing: {record['probes_missing']}")
    for check, problem in record["checks"].items():
        print(f"   check {check:26s} {'ok' if not problem else 'FAILED: ' + problem}")
    print(f"   invariants_ok = {int(record['correct'])}")


# --------------------------------------------------------------------------
# compare
# --------------------------------------------------------------------------


def _spread(values: List[float]) -> float:
    if len(values) < 4:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def judge(metric: str, a: Dict[str, Any], b: Dict[str, Any]) -> str:
    """better / same / worse / unresolved for B against A."""
    va, vb = a["metrics"][metric]["value"], b["metrics"][metric]["value"]
    if va is None or vb is None:
        return "unresolved"
    same_inputs = (a["seed"], a["smoke"]) == (b["seed"], b["smoke"])
    if metric in spec.END_TO_END:
        s = spec.END_TO_END[metric]
        better, bound, absolute = s.better, s.bound, s.absolute
        if s.clock == "virtual" and not same_inputs:
            return "unresolved"      # exact metrics compare on equal inputs only
    else:
        _unit, better, exact = spec.PER_LAYER[metric]
        if not exact:
            # No bound is fixed for a layer's host numbers: they inform.
            return "same" if abs(vb - va) <= 0.10 * abs(va) else "unresolved"
        if not same_inputs:
            return "unresolved"
        bound, absolute = 0.0, True
    slack = bound if absolute else bound * abs(va)
    worse_by = (vb - va) if better == "lower" else (va - vb)
    if abs(worse_by) <= slack:
        return "same"
    if metric == "run_cpu_s":
        spread = max(_spread(a["info"].get("run_cpu_s_all", [])),
                     _spread(b["info"].get("run_cpu_s_all", [])))
        if spread > bound:
            return "unresolved"      # the repetitions disagree by more than the bound
    return "worse" if worse_by > 0 else "better"


def compare(path_a: str, path_b: str) -> int:
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    counts = {"better": 0, "same": 0, "worse": 0, "unresolved": 0}
    for name in spec.WORKLOADS:
        ra, rb = a["workloads"].get(name), b["workloads"].get(name)
        if ra is None or rb is None:
            continue
        for metric in list(spec.END_TO_END) + list(spec.PER_LAYER):
            if metric not in ra["metrics"] or metric not in rb["metrics"]:
                continue
            verdict = judge(metric, ra, rb)
            counts[verdict] += 1
            if verdict != "same":
                print(f"{verdict:10s} {name:18s} {metric:44s} "
                      f"{fmt(ra['metrics'][metric]['value']):>12s} -> "
                      f"{fmt(rb['metrics'][metric]['value']):>12s}")
    print(" ".join(f"{k}={v}" for k, v in counts.items()))
    return 1 if counts["worse"] else 0


# --------------------------------------------------------------------------
# main
# --------------------------------------------------------------------------


def host_info() -> Dict[str, Any]:
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    return {"git": rev, "python": platform.python_version(), "nproc": os.cpu_count(),
            "machine": platform.machine()}


def run_child(name: str, args: argparse.Namespace) -> Dict[str, Any]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(args.seed), "--emit-record"]
    if args.seconds is not None:
        cmd += ["--seconds", str(args.seconds)]
    if args.trace is not None:
        cmd += ["--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    *report, last = done.stdout.rstrip("\n").split("\n")
    print("\n".join(report))
    if done.returncode not in (0, 1):
        raise SystemExit(f"workload {name} crashed (exit {done.returncode})")
    return json.loads(last)


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])

    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", action="append", choices=list(spec.WORKLOADS),
                    help="repeatable; default: all six")
    ap.add_argument("--seed", type=int, default=42, help="workload seed (default 42)")
    ap.add_argument("--seconds", type=float, default=None,
                    help="repeat the timed region for this long (at least 3 repetitions); default: 5 repetitions")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="0: end-to-end metrics only; 1: per-layer metrics only; default: both")
    ap.add_argument("--smoke", action="store_true", help="a tenth of the requests; for the self-tests")
    ap.add_argument("--out", help="write the full report (JSON) here")
    ap.add_argument("--append", help="append one JSONL record of this run here (outside ledger/)")
    ap.add_argument("--emit-record", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.append and HERE in Path(args.append).resolve().parents:
        ap.error("--append must point outside ledger/: the trajectory is not part of the benchmark")
    selected = args.workload or list(spec.WORKLOADS)

    if len(selected) == 1:
        record = run_one(selected[0], args.seed, args.seconds, args.trace, args.smoke)
        print_record(record)
        records = {selected[0]: record}
        last = json.dumps(record) if args.emit_record else contract_line(record)
    else:
        records = {name: run_child(name, args) for name in selected}
        last = None
    correct = all(r["correct"] for r in records.values())

    if args.out or args.append or last is None:
        report = {
            "schema": 1, "host": host_info(), "seed": args.seed, "smoke": args.smoke,
            "seconds": args.seconds, "caches": "warm", "workloads": records,
            "invariants_ok": int(correct), "claim": None,
        }
        if args.out:
            with open(args.out, "w") as fh:
                json.dump(report, fh, indent=1)
        if args.append:
            with open(args.append, "a") as fh:
                fh.write(json.dumps(report) + "\n")
        if last is None:
            last = json.dumps({
                "workloads": {n: {"correct": r["correct"], "attempted": r["attempted"],
                                  "failed": r["failed"]} for n, r in records.items()},
                "invariants_ok": int(correct), "claim": None,
            })
    print(last)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
