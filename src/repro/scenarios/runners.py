"""Scenario kinds: the runners behind every config under ``configs/``.

A :class:`ScenarioKind` bundles what the driver needs to execute one kind
of scenario: the parameter schema (validated at config load), the run
function (params → JSON-shaped payload, exactly the bytes that land in
``results/<artifact>.json``), a presenter (the human-readable table), an
optional gate (payload → failure messages; any failure fails the driver),
CI smoke overrides, and a structural payload probe used by ``run --smoke``
to detect result-schema drift.  This registry is the only place an
experiment's schema, presentation and gate are declared; a parameter's
*value* lives in ``configs/<name>.json``, its type and fallback in the
:class:`~repro.scenarios.spec.ParamSpec` here, nowhere else.

Every run function is pure in the simulation sense: the payload is fully
determined by the parameters, so rerunning a config regenerates its
artifact byte for byte (the migration tests prove this).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from .. import bench
from ..analysis.ir.summary import ConflictMatrix
from ..apps import social_media_app
from ..bench import print_table
from ..bench.plots import bar_chart, grouped_bar_chart
from ..errors import FaultConfigError
from ..faults import resolve_plans, run_chaos_matrix
from ..faults.explorer import explore
from ..faults.generate import SHAPES
from ..sim import (
    Network,
    RandomStreams,
    Region,
    RttDatasetError,
    Simulator,
    paper_latency_table,
    resolve_rtt_dataset,
)
from ..topology import ASSIGNMENT_POLICIES, TopologySpec
from .spec import ParamSpec, ScenarioError, parse_fault_plan

__all__ = ["KINDS", "ScenarioKind", "run_exploration", "schema_failures"]


@dataclass(frozen=True)
class ScenarioKind:
    name: str
    params: Dict[str, ParamSpec]
    run: Callable[[Dict[str, Any]], Dict[str, Any]]
    present: Callable[[Dict[str, Any]], None]
    #: Dotted structural probes ("rows[].app", "*[].region"); checked
    #: against both smoke payloads and checked-in artifacts.
    required_keys: Tuple[str, ...] = ()
    #: payload -> failure messages (empty = pass).
    gate: Optional[Callable[[Dict[str, Any]], List[str]]] = None
    smoke_defaults: Dict[str, Any] = field(default_factory=dict)
    #: Extra cross-field validation: (where, resolved_params) -> None.
    validate: Optional[Callable[[str, Dict[str, Any]], None]] = None


# -- structural payload probes ----------------------------------------------

def schema_failures(payload: Any, paths: Tuple[str, ...],
                    label: str = "payload") -> List[str]:
    """Check dotted structural probes against a payload.

    Tokens: ``key`` (dict key), ``key[]`` (dict key holding a list, then
    each element), ``*`` (every dict value), ``*[]`` (every dict value is
    a list, then each element).  Empty lists pass — probes pin structure,
    not cardinality.
    """
    failures: List[str] = []
    for path in paths:
        nodes = [payload]
        ok = True
        for token in path.split("."):
            want_list = token.endswith("[]")
            key = token[:-2] if want_list else token
            next_nodes: List[Any] = []
            for node in nodes:
                if not isinstance(node, dict):
                    ok = False
                    break
                if key == "*":
                    values = list(node.values())
                else:
                    if key not in node:
                        ok = False
                        break
                    values = [node[key]]
                if want_list:
                    for v in values:
                        if not isinstance(v, list):
                            ok = False
                            break
                        next_nodes.extend(v)
                else:
                    next_nodes.extend(values)
            if not ok:
                break
            nodes = next_nodes
        if not ok:
            failures.append(f"{label}: missing or mis-shaped {path!r}")
    return failures


# -- shared validators -------------------------------------------------------

def _check_rtt_ref(value: Any) -> None:
    try:
        resolve_rtt_dataset(value)
    except RttDatasetError as exc:
        raise ScenarioError(f"bad RTT dataset reference: {exc}") from None


def _plans_spec(plans: Any) -> str:
    """The ``plans`` parameter (a list of names or the harness's own
    comma-separated string) as :func:`repro.faults.resolve_plans` takes it."""
    return plans if isinstance(plans, str) else ",".join(plans)


def _validate_chaos(where: str, params: Dict[str, Any]) -> None:
    # An @file reference is read (and its contents schema-checked) at run
    # time, not config-parse time; everything else resolves now.
    builtin = [
        name for name in _plans_spec(params["plans"]).split(",")
        if name.strip() and not name.strip().startswith("@")
    ]
    try:
        if builtin:
            resolve_plans(",".join(builtin))
    except FaultConfigError as exc:
        raise ScenarioError(f"{where}: {exc}") from None
    for i, raw in enumerate(params.get("extra_plans") or []):
        parse_fault_plan(raw, where=f"{where}: extra_plans[{i}]")


def _validate_chaos_explore(where: str, params: Dict[str, Any]) -> None:
    for shape in params["shapes"]:
        if shape not in SHAPES:
            raise ScenarioError(
                f"{where}: unknown deployment shape {shape!r} "
                f"(available: {', '.join(SHAPES)})"
            )


#: Series name -> App factory (each point gets a fresh App).
_SCALABILITY_WORKLOADS = {
    "counter": bench.uniform_counter_app,
    "social": social_media_app,
}


def _validate_scalability(where: str, params: Dict[str, Any]) -> None:
    for name in params.get("workloads") or ():
        if name not in _SCALABILITY_WORKLOADS:
            raise ScenarioError(
                f"{where}: unknown scalability workload {name!r} "
                f"(available: {', '.join(_SCALABILITY_WORKLOADS)})"
            )


def _validate_apps(where: str, apps: Any) -> None:
    for app in apps:
        if app not in bench.MAIN_APP_BUILDERS:
            raise ScenarioError(
                f"{where}: unknown app {app!r} "
                f"(available: {', '.join(sorted(bench.MAIN_APP_BUILDERS))})"
            )


def _validate_routing(where: str, p: Dict[str, Any]) -> None:
    for policy in p["policies"]:
        if policy not in ASSIGNMENT_POLICIES:
            raise ScenarioError(
                f"{where}: unknown assignment policy {policy!r} "
                f"(available: {', '.join(ASSIGNMENT_POLICIES)})"
            )
    for placement in p["placements"]:
        if placement not in ("dense", "sparse"):
            raise ScenarioError(
                f"{where}: unknown placement {placement!r} "
                "(available: dense, sparse)"
            )
    for n in p["region_counts"]:
        if not 2 <= n <= 512:
            raise ScenarioError(
                f"{where}: region_counts entries must be in [2, 512], got {n}"
            )


# -- run functions -----------------------------------------------------------

def _call(fn: Callable[..., Any], wrap: Optional[str] = None) -> Callable[[Dict[str, Any]], Dict[str, Any]]:
    """The run function of a kind whose parameter names are ``fn``'s own
    keyword arguments — the schema is the signature, with no renaming
    layer in between.  ``wrap`` names the payload key of a row-list result."""
    def run(p: Dict[str, Any]) -> Dict[str, Any]:
        result = fn(**p)
        return result if wrap is None else {wrap: result}

    return run


def _run_table1(p: Dict[str, Any]) -> Dict[str, Any]:
    return {"rows": bench.table1_functions()}


def _measure_table2_rtts() -> Dict[str, float]:
    """Measure an empty RPC round trip from each region to a VA probe
    server — verifying the configured network delivers Table 2."""
    sim = Simulator()
    net = Network(sim, paper_latency_table(), RandomStreams(0))

    def noop(_payload, _src):
        if False:
            yield
        return None

    net.serve("probe-server", Region.VA, noop)
    measured: Dict[str, float] = {}
    for region in Region.NEAR_USER:
        net.register(f"probe-{region}", region)

        def flow(region=region):
            start = sim.now
            yield from net.call(f"probe-{region}", "probe-server", "ping")
            return sim.now - start

        measured[region] = sim.run_process(flow())
    return measured


def _run_table2(p: Dict[str, Any]) -> Dict[str, Any]:
    return {"rows": bench.table2_rtt(), "measured": _measure_table2_rtts()}


def _run_eval_trio(p: Dict[str, Any]) -> Dict[str, Any]:
    spec = TopologySpec(
        seed=p["seed"], network_jitter_sigma=bench.PAPER_JITTER_SIGMA, rtt=p.get("rtt")
    )
    trios = {app: bench.run_eval_trio(app, spec, p["requests"]) for app in p["apps"]}
    view = p["view"]
    if view == "fig4":
        return {"rows": [bench.fig4_rows(t) for t in trios.values()]}
    if view == "fig5":
        return {app: bench.fig5_rows(t) for app, t in trios.items()}
    return {"rows": [row for t in trios.values() for row in bench.fig6_rows(t)]}


def _run_sec57(p: Dict[str, Any]) -> Dict[str, Any]:
    return {"rows": bench.cost_table(), "infra_overhead": bench.infrastructure_overhead()}


def _run_ablation(p: Dict[str, Any]) -> Dict[str, Any]:
    fn = {
        "overlap": bench.ablation_overlap,
        "two_rtt": bench.ablation_two_rtt,
        "cache_bootstrap": bench.ablation_cache_bootstrap,
    }[p["which"]]
    return fn(requests=p["requests"], seed=p["seed"])


def _run_scalability(p: Dict[str, Any]) -> Dict[str, Any]:
    names = p["workloads"] or list(_SCALABILITY_WORKLOADS)
    return bench.sweep_scalability(
        shard_counts=tuple(p["shard_counts"]),
        rate_rps_per_region=p["rate_rps_per_region"],
        duration_ms=p["duration_ms"],
        batch_window_ms=p["batch_window_ms"],
        seed=p["seed"],
        workloads={n: _SCALABILITY_WORKLOADS[n] for n in names},
    )


def _run_chaos(p: Dict[str, Any]) -> Dict[str, Any]:
    plans = resolve_plans(_plans_spec(p["plans"]))
    plans.extend(
        parse_fault_plan(raw, where=f"extra_plans[{i}]")
        for i, raw in enumerate(p.get("extra_plans") or [])
    )
    results = run_chaos_matrix(
        plans, p["seeds"],
        requests_per_client=p["requests"],
        clients_per_region=p["clients"],
        shards=p["shards"],
        detect=p["detect"],
    )
    return {"shards": p["shards"], "cases": [r.to_dict() for r in results]}


def run_exploration(p: Dict[str, Any], corpus_dir: Optional[str] = None,
                    log: Optional[Callable[[str], None]] = None) -> Any:
    """The ``chaos-explore`` search at parameters ``p``; ``explore
    --corpus`` reuses it to persist reproducers as they are found."""
    return explore(
        budget=p["budget"],
        seed=p["seed"],
        shapes=tuple(p["shapes"]),
        requests_per_client=p["requests"],
        clients_per_region=p["clients"],
        corpus_dir=corpus_dir,
        log=log,
    )


def _run_chaos_explore(p: Dict[str, Any]) -> Dict[str, Any]:
    return run_exploration(p).to_payload()


# -- presenters --------------------------------------------------------------

def _present_fig1(payload: Dict[str, Any]) -> None:
    rows = payload["rows"]
    print_table(
        ["region", "centralized (ms)", "geo-replicated (ms)", "local ideal (ms)"],
        [[r["region"].upper(), r["centralized_median_ms"],
          r["geo_replicated_median_ms"], r["local_ideal_median_ms"]] for r in rows],
        title="Figure 1: motivation",
    )


def _present_table1(payload: Dict[str, Any]) -> None:
    print_table(
        ["function", "writes", "analyzable", "exec (ms)", "workload %"],
        [[r["function"], r["writes"], r["analyzable"], r["exec_time_ms"],
          r["workload_pct"]] for r in payload["rows"]],
        title="Table 1: benchmark functions",
    )


def _present_table2(payload: Dict[str, Any]) -> None:
    measured = payload.get("measured", {})
    print_table(
        ["region", "configured RTT (ms)", "measured RTT (ms)"],
        [[r["region"], r["rtt_to_primary_ms"],
          measured.get(r["region"].lower(), "-")] for r in payload["rows"]],
        title="Table 2: round-trip latency to the primary (VA)",
    )


def _present_fig4(payload: Dict[str, Any]) -> None:
    rows = payload["rows"]
    print_table(
        ["app", "radical med", "baseline med", "ideal med", "improve %",
         "of max %", "valid %"],
        [[r["app"], r["radical_median_ms"], r["baseline_median_ms"],
          r["ideal_median_ms"], r["improvement_pct"], r["fraction_of_max_pct"],
          r["validation_success_rate"] * 100] for r in rows],
        title="Figure 4: end-to-end latency",
    )
    print(grouped_bar_chart(
        [r["app"] for r in rows],
        {
            "radical": [r["radical_median_ms"] for r in rows],
            "baseline": [r["baseline_median_ms"] for r in rows],
            "ideal": [r["ideal_median_ms"] for r in rows],
        },
        title="median end-to-end latency",
    ))


def _present_fig5(payload: Dict[str, Any]) -> None:
    for app, rows in payload.items():
        print_table(
            ["region", "radical med", "baseline med", "ideal med"],
            [[r["region"].upper(), r["radical_median_ms"], r["baseline_median_ms"],
              r["ideal_median_ms"]] for r in rows],
            title=f"Figure 5 ({app}): regional variation",
        )
        print(grouped_bar_chart(
            [r["region"].upper() for r in rows],
            {
                "radical": [r["radical_median_ms"] for r in rows],
                "baseline": [r["baseline_median_ms"] for r in rows],
            },
            title=f"{app}: median latency by region",
        ))


def _present_fig6(payload: Dict[str, Any]) -> None:
    rows = payload["rows"]
    print_table(
        ["function", "exec (ms)", "radical med", "baseline med", "n"],
        [[r["function"], r["service_time_ms"], r["radical_median_ms"],
          r["baseline_median_ms"], r["samples"]] for r in rows],
        title="Figure 6: per-function latency",
    )
    stable = [r for r in rows if r["samples"] >= 30]
    if stable:
        print(bar_chart(
            [r["function"] for r in stable],
            [r["radical_median_ms"] for r in stable],
            markers=[r["radical_p99_ms"] for r in stable],
            title="Radical per-function median (p99 markers)",
        ))


def _present_eval_trio(payload: Dict[str, Any]) -> None:
    # Dispatch on payload shape: fig5 payloads are keyed by app.
    if "rows" not in payload:
        _present_fig5(payload)
    elif payload["rows"] and "app" in payload["rows"][0]:
        _present_fig4(payload)
    else:
        _present_fig6(payload)


def _present_sec56(payload: Dict[str, Any]) -> None:
    print(f"Raft per-lock commit: {payload['raft_per_lock_commit_ms']:.2f} ms "
          f"(paper: 2.3 ms)")
    print_table(
        ["locks", "model 3+2.3L", "measured added (ms)"],
        [[m["locks"], model["added_latency_model_ms"], m["measured_added_ms"]]
         for m, model in zip(payload["measured"], payload["model"])],
        title="Section 5.6: replicated LVI server",
    )


def _present_sec57(payload: Dict[str, Any]) -> None:
    print_table(
        ["monthly invocations", "baseline ($)", "radical ($)", "overhead %"],
        [[f"{r['invocations']:,}", r["baseline_total"], r["radical_total"],
          r["overhead"] * 100] for r in payload["rows"]],
        title=f"Section 5.7: cost (infrastructure overhead "
              f"{payload['infra_overhead']:.1%})",
    )


_ABLATION_HEADLINES = {
    "overlap": ("overlap off (median ms)", "overlap_median_ms", "no_overlap_median_ms"),
    "two_rtt": ("2-RTT commit (overall ms)", "overall_single_ms", "overall_two_rtt_ms"),
    "cache_bootstrap": ("cold cache (median ms)", "warm_median_ms", "cold_median_ms"),
}


def _present_ablation(payload: Dict[str, Any]) -> None:
    for label, radical_key, ablated_key in _ABLATION_HEADLINES.values():
        if radical_key in payload:
            print_table(
                ["ablation", "radical", "ablated"],
                [[label, payload[radical_key], payload[ablated_key]]],
                title="Design-choice ablation",
            )
            return


def _present_sweep_skew(payload: Dict[str, Any]) -> None:
    print_table(
        ["zipf s", "validation", "median (ms)", "p99 (ms)"],
        [[r["zipf_s"], r["validation_success"], r["median_ms"], r["p99_ms"]]
         for r in payload["rows"]],
        title="Sweep: skew (counter microbenchmark)",
    )


def _present_sweep_concurrency(payload: Dict[str, Any]) -> None:
    print_table(
        ["clients/region", "validation", "median (ms)", "p99 (ms)"],
        [[r["clients_per_region"], r["validation_success"], r["median_ms"],
          r["p99_ms"]] for r in payload["rows"]],
        title="Sweep: concurrency (forum)",
    )


def _present_sweep_offered_load(payload: Dict[str, Any]) -> None:
    print_table(
        ["rate (rps/region)", "requests", "median", "p99", "validation",
         "lock wait (ms)"],
        [[r["rate_rps_per_region"], r["requests"], r["median_ms"], r["p99_ms"],
          r["validation_success"], r["lock_wait_total_ms"]] for r in payload["rows"]],
        title="Sweep: offered load (forum, open loop)",
    )


def _present_scalability(payload: Dict[str, Any]) -> None:
    print_table(
        ["series", "shards", "throughput (rps)", "median (ms)", "p99 (ms)",
         "coalesced", "xshard commits"],
        [[p["series"], p["shards"], p["throughput_rps"], round(p["median_ms"], 1),
          round(p["p99_ms"], 1), p["batch_coalesced"], p["xshard_commits"]]
         for p in payload["points"]],
        title=f"Scalability: offered {payload['rate_rps_per_region']:.0f} "
              f"rps/region, proc {payload['server_proc_ms']:.0f} ms/msg",
    )


def _present_readscale(payload: Dict[str, Any]) -> None:
    print_table(
        ["series", "shards", "throughput (rps)", "median (ms)", "p99 (ms)",
         "lock skips", "conflict hits", "bounces"],
        [[p["series"], p["shards"], p["throughput_rps"], round(p["median_ms"], 1),
          round(p["p99_ms"], 1), p["lock_skipped"], p["conflict_hits"],
          p["replica_bounces"]] for p in payload["points"]],
        title=f"Read scaling: conflict detection on/off, "
              f"{payload['read_replicas']} read replica(s)/shard",
    )


def _present_overload(payload: Dict[str, Any]) -> None:
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


def _present_mesh(payload: Dict[str, Any]) -> None:
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


def _present_chaos(payload: Dict[str, Any]) -> None:
    by_plan: Dict[str, List[Dict[str, Any]]] = {}
    for case in payload["cases"]:
        by_plan.setdefault(case["plan"], []).append(case)
    rows = []
    for plan, cases in by_plan.items():
        acked = sum(c["acked"] for c in cases)
        total = sum(c["requests"] for c in cases)
        medians = [c["median_ms"] for c in cases if c["median_ms"] is not None]
        p99s = [c["p99_ms"] for c in cases if c["p99_ms"] is not None]
        rows.append([
            plan,
            f"{acked / total * 100:.1f}%" if total else "-",
            f"{max(medians):.0f}" if medians else "-",
            f"{max(p99s):.0f}" if p99s else "-",
            sum(c["counters"].get("reexecution.count", 0) for c in cases),
            sum(c["counters"].get("rpc.retry", 0) for c in cases),
            sum(1 for c in cases if not c["ok"]),
        ])
    print_table(
        ["plan", "availability", "worst med (ms)", "worst p99 (ms)",
         "reexecs", "retries", "violations"],
        rows,
        title=f"Chaos matrix: {len(by_plan)} plan(s) on "
              f"{payload['shards']} shard(s)",
    )


def _present_chaos_explore(payload: Dict[str, Any]) -> None:
    cov = payload["coverage"]
    print_table(
        ["schedules", "novel", "features", "distinct states", "violations"],
        [[payload["schedules_tried"], payload["novel_schedules"],
          len(cov["features"]), cov["distinct_signatures"],
          len(payload["violations"])]],
        title=f"Chaos exploration: seed {payload['seed']}, "
              f"shapes {', '.join(payload['shapes'])}",
    )
    for v in payload["violations"]:
        print(f"  VIOLATION [{v['shape']} seed {v['seed']}] "
              f"{v['original_windows']}→{v['minimal_windows']} windows: "
              f"{v['violation']}")


def _present_analysis(payload: Dict[str, Any]) -> None:
    """Table-1-style per-function facts, the shard-affinity and
    conflict-predicate tallies, and the may-conflict matrix (see
    docs/ANALYSIS.md)."""
    rows = []
    for r in payload["functions"]:
        if not r["analyzable"]:
            rows.append([r["function"], "-", "no", "-", "-", "-"])
            continue
        rows.append([
            r["function"],
            "yes" if r["writes"] else "no",
            "yes",
            "yes" if r["dependent_reads"] else "no",
            f"{r['slice_ratio'] * 100:.2f}",
            "yes" if r.get("single_shard_affine") else "no",
        ])
    agg = payload["aggregate"]
    print_table(
        ["function", "writes", "analyzable", "dep reads", "slice %", "1-shard"],
        rows,
        title=f"Static analysis: {agg['analyzable']}/{agg['functions']} "
              f"analyzable, {payload['inputs_per_function']} input(s)/function",
    )
    print(
        f"shard affinity: {agg['single_shard_affine']} function(s) statically "
        f"single-shard; registration-time shard for "
        f"{', '.join(agg['static_key_functions']) or 'none'}"
    )
    print(f"sanitizer: {agg['unsound_executions']} unsound execution(s)")
    kinds = agg["constraint_kinds"]
    print(
        f"conflict predicates: {agg['lock_skippable']} function(s) "
        f"lock-skippable, {agg['commutative_writes']} with commutative "
        f"writes; constraint kinds "
        + ", ".join(f"{k}={kinds[k]}" for k in sorted(kinds) if kinds[k])
    )
    # Presented before the driver writes, so this is still the artifact
    # the run is compared against.
    checked_in = bench.baseline_density()
    print(
        f"conflict-matrix density: {agg['conflict_density']:.4f}"
        + (f" (checked-in: {checked_in:.4f})" if checked_in is not None else "")
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


# -- gates -------------------------------------------------------------------

def _gate_chaos(payload: Dict[str, Any]) -> List[str]:
    return [
        f"chaos case plan={c['plan']} seed={c['seed']}: "
        f"serializable={c['serializable']} lost={c['lost_writes']} "
        f"dup={c['duplicate_writes']} completed={c['completed']} "
        f"deadline_ok={c['deadline_ok']} {c['violation']}"
        for c in payload["cases"] if not c["ok"]
    ]


def _gate_chaos_explore(payload: Dict[str, Any]) -> List[str]:
    failures = [
        f"explorer violation [{v['shape']} seed {v['seed']}]: {v['violation']}"
        for v in payload["violations"]
    ]
    if payload["novel_schedules"] < 1:
        # The very first schedule always reaches unseen coverage, so
        # zero novelty means the coverage extraction itself is broken.
        failures.append("exploration reached no new coverage at all")
    return failures


def _gate_scalability(payload: Dict[str, Any]) -> List[str]:
    by_series: Dict[str, Dict[int, float]] = {}
    for p in payload["points"]:
        by_series.setdefault(p["series"], {})[p["shards"]] = p["throughput_rps"]
    failures = []
    for series, pts in by_series.items():
        base = pts.get(1)
        top = max(pts)
        if base and pts[top] < base:
            failures.append(f"{series}: {top}-shard throughput below 1-shard")
    return failures


def _gate_overload(payload: Dict[str, Any]) -> List[str]:
    by_series: Dict[str, Dict[float, float]] = {}
    for p in payload["points"]:
        by_series.setdefault(p["series"], {})[p["rate_rps"]] = p["goodput_rps"]
    top = max(by_series["shed-on"])
    if by_series["shed-on"][top] < by_series["shed-off"][top]:
        return [
            f"shed-on goodput at {top:.0f} rps "
            f"({by_series['shed-on'][top]:.1f}) below shed-off "
            f"({by_series['shed-off'][top]:.1f})"
        ]
    return []


# -- the registry ------------------------------------------------------------

def _p(type_: str, default: Any = None, **kw: Any) -> ParamSpec:
    return ParamSpec(type=type_, default=default, **kw)


KINDS: Dict[str, ScenarioKind] = {}


def _register(kind: ScenarioKind) -> None:
    KINDS[kind.name] = kind


_register(ScenarioKind(
    name="fig1",
    params={
        "requests_per_region": _p("int", 200),
        "seed": _p("int", 42),
    },
    run=_call(bench.fig1_motivation, wrap="rows"),
    present=_present_fig1,
    required_keys=("rows[].region", "rows[].centralized_median_ms",
                   "rows[].geo_replicated_median_ms",
                   "rows[].local_ideal_median_ms"),
    smoke_defaults={"requests_per_region": 60},
))

_register(ScenarioKind(
    name="table1",
    params={},
    run=_run_table1,
    present=_present_table1,
    required_keys=("rows[].function", "rows[].writes", "rows[].analyzable"),
))

_register(ScenarioKind(
    name="table2",
    params={},
    run=_run_table2,
    present=_present_table2,
    required_keys=("rows[].region", "rows[].rtt_to_primary_ms", "measured"),
))

_register(ScenarioKind(
    name="eval-trio",
    params={
        "view": _p("str", required=True, choices=("fig4", "fig5", "fig6")),
        "requests": _p("int", 2500),
        "seed": _p("int", 42),
        "apps": _p("list", ["social", "hotel", "forum"], element="str",
                   choices=None),
        "rtt": _p("any", None, check=_check_rtt_ref),
    },
    run=_run_eval_trio,
    present=_present_eval_trio,
    # view-specific probes are added per scenario config via the driver's
    # artifact check; the common shape is covered here.
    required_keys=(),
    smoke_defaults={"requests": 150},
    validate=lambda where, p: _validate_apps(where, p["apps"]),
))


_register(ScenarioKind(
    name="sec56",
    params={
        "lock_counts": _p("list", [1, 2, 4, 8], element="int"),
        "seed": _p("int", 42),
    },
    run=_call(bench.sec56_replication),
    present=_present_sec56,
    required_keys=("raft_per_lock_commit_ms", "model[].locks",
                   "measured[].measured_added_ms"),
    smoke_defaults={"lock_counts": [1, 2]},
))

_register(ScenarioKind(
    name="sec57",
    params={},
    run=_run_sec57,
    present=_present_sec57,
    required_keys=("rows[].invocations", "rows[].baseline_total",
                   "rows[].radical_total", "infra_overhead"),
))

_register(ScenarioKind(
    name="ablation",
    params={
        "which": _p("str", required=True,
                    choices=("overlap", "two_rtt", "cache_bootstrap")),
        "requests": _p("int", 800),
        "seed": _p("int", 42),
    },
    run=_run_ablation,
    present=_present_ablation,
    smoke_defaults={"requests": 150},
))

_register(ScenarioKind(
    name="sweep-skew",
    params={
        "zipf_values": _p("list", [0.0, 0.5, 0.9, 0.99, 1.2], element="number"),
        "requests": _p("int", 800),
        "seed": _p("int", 42),
    },
    run=_call(bench.sweep_skew, wrap="rows"),
    present=_present_sweep_skew,
    required_keys=("rows[].zipf_s", "rows[].validation_success",
                   "rows[].median_ms", "rows[].p99_ms"),
    smoke_defaults={"requests": 120, "zipf_values": [0.0, 1.2]},
))

_register(ScenarioKind(
    name="sweep-concurrency",
    params={
        "clients": _p("list", [1, 2, 4, 8], element="int"),
        "requests": _p("int", 800),
        "seed": _p("int", 42),
    },
    run=_call(bench.sweep_concurrency, wrap="rows"),
    present=_present_sweep_concurrency,
    required_keys=("rows[].clients_per_region", "rows[].median_ms"),
    smoke_defaults={"requests": 120, "clients": [1, 2]},
))

_register(ScenarioKind(
    name="sweep-offered-load",
    params={
        "rates_rps": _p("list", [2.0, 5.0, 10.0, 20.0], element="number"),
        "duration_ms": _p("number", 15_000.0),
        "seed": _p("int", 42),
    },
    run=_call(bench.sweep_offered_load, wrap="rows"),
    present=_present_sweep_offered_load,
    required_keys=("rows[].rate_rps_per_region", "rows[].median_ms",
                   "rows[].lock_wait_total_ms"),
    smoke_defaults={"rates_rps": [5.0, 20.0], "duration_ms": 2_000.0},
))

_register(ScenarioKind(
    name="scalability",
    params={
        "shard_counts": _p("list", [1, 2, 4, 8], element="int"),
        "rate_rps_per_region": _p("number", 150.0),
        "duration_ms": _p("number", 4_000.0),
        "batch_window_ms": _p("number", 5.0),
        "seed": _p("int", 42),
        "workloads": _p("list", None, element="str"),
    },
    run=_run_scalability,
    present=_present_scalability,
    required_keys=("points[].series", "points[].shards",
                   "points[].throughput_rps", "rate_rps_per_region"),
    gate=_gate_scalability,
    smoke_defaults={"shard_counts": [1, 2], "rate_rps_per_region": 100.0,
                    "duration_ms": 1_500.0, "workloads": ["counter"]},
    validate=_validate_scalability,
))

_register(ScenarioKind(
    name="readscale",
    params={
        "shard_counts": _p("list", [1, 2, 4, 8], element="int"),
        "rate_rps_per_region": _p("number", 250.0),
        "duration_ms": _p("number", 4_000.0),
        "read_replicas": _p("int", 3),
        "seed": _p("int", 42),
    },
    run=_call(bench.sweep_readscale),
    present=_present_readscale,
    required_keys=("points[].series", "points[].shards",
                   "points[].throughput_rps", "points[].lock_skipped",
                   "read_replicas"),
    gate=bench.readscale_gate_failures,
    smoke_defaults={"shard_counts": [1, 2], "rate_rps_per_region": 100.0,
                    "duration_ms": 1_500.0},
))

_register(ScenarioKind(
    name="overload",
    params={
        "rates": _p("list", [40.0, 60.0, 80.0, 100.0, 120.0, 160.0],
                    element="number"),
        "duration_ms": _p("number", 3_000.0),
        "seed": _p("int", 42),
    },
    run=_call(bench.sweep_overload),
    present=_present_overload,
    required_keys=("points[].series", "points[].rate_rps",
                   "points[].goodput_rps", "admission_queue_depth"),
    gate=_gate_overload,
    smoke_defaults={"rates": [60.0, 160.0], "duration_ms": 1_500.0},
))

_register(ScenarioKind(
    name="mesh",
    params={
        "apps": _p("list", None, element="str"),
        "intervals": _p("list", [25.0, 100.0, 400.0], element="number"),
        "requests": _p("int", 1_200),
        "seed": _p("int", 42),
    },
    run=_call(bench.sweep_mesh),
    present=_present_mesh,
    required_keys=("rows[].app", "rows[].mesh", "rows[].chaos", "apps",
                   "gossip_intervals_ms"),
    gate=bench.mesh_gate_failures,
    smoke_defaults={"apps": ["forum"], "intervals": [50.0], "requests": 300},
    validate=lambda where, p: _validate_apps(where, p["apps"] or ()),
))

_register(ScenarioKind(
    name="chaos",
    params={
        "plans": _p("any", "all"),
        "seeds": _p("int", 10),
        "requests": _p("int", 25),
        "clients": _p("int", 1),
        "shards": _p("int", 1),
        "detect": _p("bool", False),
        "extra_plans": _p("list", None, element="dict"),
    },
    run=_run_chaos,
    present=_present_chaos,
    required_keys=("shards", "cases[].plan", "cases[].seed", "cases[].ok",
                   "cases[].serializable", "cases[].counters"),
    gate=_gate_chaos,
    smoke_defaults={"seeds": 2},
    validate=_validate_chaos,
))

_register(ScenarioKind(
    name="chaos-explore",
    params={
        "budget": _p("int", 48),
        "seed": _p("int", 7),
        "shapes": _p("list", ["seed", "sharded", "replicated", "mesh"],
                     element="str"),
        "requests": _p("int", 12),
        "clients": _p("int", 1),
    },
    run=_run_chaos_explore,
    present=_present_chaos_explore,
    required_keys=("budget", "seed", "shapes", "schedules_tried",
                   "novel_schedules", "coverage", "violations", "pool"),
    gate=_gate_chaos_explore,
    smoke_defaults={"budget": 12},
    validate=_validate_chaos_explore,
))

_register(ScenarioKind(
    name="analysis",
    params={
        "inputs_per_function": _p("int", 10),
        "seed": _p("int", 42),
    },
    run=_call(bench.run_analysis_corpus),
    present=_present_analysis,
    required_keys=("aggregate", "functions[].function", "conflict_matrix",
                   "checks"),
    gate=bench.analysis_gate_failures,
    smoke_defaults={"inputs_per_function": 3},
))

_register(ScenarioKind(
    name="routing",
    params={
        "region_counts": _p("list", [10, 25, 50], element="int"),
        "policies": _p("list", ["nearest-rtt", "tiered", "direct"],
                       element="str"),
        "placements": _p("list", ["dense", "sparse"], element="str"),
        "requests": _p("int", 1_500),
        "seed": _p("int", 42),
        "rtt_seed": _p("int", 7),
        "tiered_threshold_ms": _p("number", 60.0),
        "sparse_pops": _p("int", 5),
        "workers": _p("int", None),
    },
    run=_call(bench.run_routing_sweep),
    present=bench.present_routing,
    required_keys=("points[].policy", "points[].placement",
                   "points[].region_count", "points[].median_ms",
                   "breakeven", "region_counts"),
    gate=bench.routing_gate_failures,
    smoke_defaults={"region_counts": [10], "requests": 200,
                    "placements": ["dense"],
                    "policies": ["nearest-rtt", "direct"]},
    validate=_validate_routing,
))
