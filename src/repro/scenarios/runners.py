"""Scenario kinds: the runners behind every config under ``configs/``.

A :class:`ScenarioKind` bundles what the driver needs to execute one kind
of scenario: the parameter schema (each :class:`ParamSpec` typed, and
value-checked by its ``check``, at config load), the run function
(params → JSON-shaped payload, exactly the bytes that land in
``results/<artifact>.json``), the console output, an optional gate
(payload → failure messages; any failure fails the driver) and CI smoke
overrides.  There is one kind per paper table or figure.

The console output is data: each row table is a declared :class:`Table`
(title template, rows key, ``(header, field[, formatter])`` columns).
Output that is not a row table (a chart, an aggregate, a report) stays a
small ``extra`` presenter with its ``probes`` listed beside it.  The
structural probe ``run --smoke`` checks against both the fresh payload
and the checked-in artifact is derived from those declarations, so a
field the console prints cannot drift out of the probe.  This registry
is the only place an experiment's schema, presentation and gate are
declared; a parameter's *value* lives in ``configs/<name>.json``, its
type and fallback in the :class:`~repro.scenarios.spec.ParamSpec` here.

Every run function is pure in the simulation sense: the payload is fully
determined by the parameters, so rerunning a config regenerates its
artifact byte for byte (the migration tests prove this).
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .. import bench
from ..analysis.ir.summary import ConflictMatrix
from ..apps import social_media_app
from ..bench import print_table
from ..bench.plots import bar_chart, grouped_bar_chart
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

__all__ = ["KINDS", "ScenarioKind", "Table", "run_exploration", "schema_failures"]

Payload = Dict[str, Any]


class _TitleFormatter(string.Formatter):
    """``str.format``, plus ``{field!n}``: the number of items in ``field``."""

    def convert_field(self, value: Any, conversion: Optional[str]) -> Any:
        return len(value) if conversion == "n" else super().convert_field(value, conversion)


_TITLE = _TitleFormatter()


@dataclass(frozen=True)
class Table:
    """One console row table, declared as data.

    ``title`` is a ``str.format`` template over the payload; ``rows`` is
    the payload key holding the row list; each column is
    ``(header, field[, formatter])``, the formatter mapping the field's
    value to the printed cell.
    """

    title: str
    rows: str
    columns: Tuple[tuple, ...]

    def probes(self) -> Tuple[str, ...]:
        """A structural probe for every payload field the table prints."""
        titled = [name for _, name, _, _ in _TITLE.parse(self.title) if name]
        return (*titled, *(f"{self.rows}[].{col[1]}" for col in self.columns))

    def print(self, payload: Payload) -> None:
        print_table(
            [col[0] for col in self.columns],
            [[col[2](row[col[1]]) if len(col) > 2 else row[col[1]] for col in self.columns]
             for row in payload[self.rows]],
            title=_TITLE.vformat(self.title, (), payload),
        )


@dataclass(frozen=True)
class ScenarioKind:
    name: str
    params: Dict[str, ParamSpec]
    run: Callable[[Payload], Payload]
    #: The console's row tables, printed in order.
    tables: Tuple[Table, ...] = ()
    #: Output that is not a row table, printed after the tables.
    extra: Optional[Callable[[Payload], None]] = None
    #: Dotted structural probes ("model[].locks", "*[].region") for the
    #: payload fields no table prints.
    probes: Tuple[str, ...] = ()
    #: payload -> failure messages (empty = pass).
    gate: Optional[Callable[[Payload], List[str]]] = None
    smoke_defaults: Dict[str, Any] = field(default_factory=dict)

    def present(self, payload: Payload) -> None:
        for table in self.tables:
            table.print(payload)
        if self.extra is not None:
            self.extra(payload)

    @property
    def required_keys(self) -> Tuple[str, ...]:
        """Every probe, checked against both smoke payloads and
        checked-in artifacts: what the tables print, then ``probes``."""
        derived = [p for table in self.tables for p in table.probes()]
        return tuple(dict.fromkeys(derived + list(self.probes)))


# -- structural payload probes ----------------------------------------------

def _holds(node: Any, tokens: List[str]) -> bool:
    """Whether the probe ``tokens`` holds at and below ``node``."""
    if not tokens:
        return True
    if not isinstance(node, dict):
        return False
    key, want_list = tokens[0].removesuffix("[]"), tokens[0].endswith("[]")
    if key == "*":
        values = list(node.values())
    elif key in node:
        values = [node[key]]
    else:
        return False
    if want_list:
        if not all(isinstance(v, list) for v in values):
            return False
        values = [item for v in values for item in v]
    return all(_holds(v, tokens[1:]) for v in values)


def schema_failures(payload: Any, paths: Tuple[str, ...],
                    label: str = "payload") -> List[str]:
    """Check dotted structural probes against a payload.

    Tokens: ``key`` (dict key), ``key[]`` (dict key holding a list, then
    each element), ``*`` (every dict value), ``*[]`` (every dict value is
    a list, then each element).  Empty lists pass — probes pin structure,
    not cardinality.
    """
    return [f"{label}: missing or mis-shaped {path!r}"
            for path in paths if not _holds(payload, path.split("."))]


# -- parameter checks (ParamSpec.check: value -> None, raises) ---------------

def _check_rtt_ref(value: Any) -> None:
    try:
        resolve_rtt_dataset(value)
    except RttDatasetError as exc:
        raise ScenarioError(f"bad RTT dataset reference: {exc}") from None


def _one_of(what: str, available: Sequence[str]) -> Callable[[Any], None]:
    """The check of a list parameter whose items each name one of ``available``."""
    def check(values: Any) -> None:
        for value in values:
            if value not in available:
                raise ScenarioError(
                    f"unknown {what} {value!r} (available: {', '.join(available)})"
                )

    return check


def _check_region_counts(counts: Any) -> None:
    for n in counts:
        if not 2 <= n <= 512:
            raise ScenarioError(f"region_counts entries must be in [2, 512], got {n}")


def _plans_spec(plans: Any) -> str:
    """The ``plans`` parameter (a list of names or the harness's own
    comma-separated string) as :func:`repro.faults.resolve_plans` takes it."""
    return plans if isinstance(plans, str) else ",".join(plans)


def _check_plans(plans: Any) -> None:
    # An @file reference is read (and its contents schema-checked) at run
    # time, not config-parse time; every built-in name resolves now.
    builtin = [
        name for name in _plans_spec(plans).split(",")
        if name.strip() and not name.strip().startswith("@")
    ]
    if builtin:
        resolve_plans(",".join(builtin))


def _extra_plans(raws: Any) -> List[Any]:
    """The ``extra_plans`` parameter parsed into fault plans (also its check)."""
    return [parse_fault_plan(raw, where=f"extra_plans[{i}]")
            for i, raw in enumerate(raws or [])]


#: Series name -> App factory (each point gets a fresh App).
_SCALABILITY_WORKLOADS = {
    "counter": bench.uniform_counter_app,
    "social": social_media_app,
}


# -- run functions -----------------------------------------------------------

def _call(fn: Callable[..., Any], wrap: Optional[str] = None) -> Callable[[Payload], Payload]:
    """The run function of a kind whose parameter names are ``fn``'s own
    keyword arguments — the schema is the signature, with no renaming
    layer in between.  ``wrap`` names the payload key of a row-list result."""
    def run(p: Payload) -> Payload:
        result = fn(**p)
        return result if wrap is None else {wrap: result}

    return run


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


def _eval_trios(p: Payload) -> Dict[str, Any]:
    """The three systems per app under one spec: what fig4/5/6 each view."""
    spec = TopologySpec(
        seed=p["seed"], network_jitter_sigma=bench.PAPER_JITTER_SIGMA, rtt=p.get("rtt")
    )
    return {app: bench.run_eval_trio(app, spec, p["requests"]) for app in p["apps"]}


def _run_scalability(p: Payload) -> Payload:
    names = p["workloads"] or list(_SCALABILITY_WORKLOADS)
    return bench.sweep_scalability(
        shard_counts=tuple(p["shard_counts"]),
        rate_rps_per_region=p["rate_rps_per_region"],
        duration_ms=p["duration_ms"],
        batch_window_ms=p["batch_window_ms"],
        seed=p["seed"],
        workloads={n: _SCALABILITY_WORKLOADS[n] for n in names},
    )


def _run_chaos(p: Payload) -> Payload:
    plans = resolve_plans(_plans_spec(p["plans"])) + _extra_plans(p["extra_plans"])
    for plan in plans:
        if plan.replicated and p["shards"] > 1:
            raise ScenarioError(
                f"plan {plan.name!r} needs replicated (Raft-backed) servers, "
                f"which are single-shard only (shards={p['shards']})"
            )
    results = run_chaos_matrix(
        plans, p["seeds"],
        requests_per_client=p["requests"],
        clients_per_region=p["clients"],
        shards=p["shards"],
        detect=p["detect"],
    )
    return {"shards": p["shards"], "cases": [r.to_dict() for r in results]}


def run_exploration(p: Payload, corpus_dir: Optional[str] = None,
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


# -- console output ----------------------------------------------------------

def _dash(fmt: Callable[[Any], Any] = lambda v: v) -> Callable[[Any], Any]:
    """A column formatter that prints a missing (``None``) value as ``-``."""
    return lambda v: "-" if v is None else fmt(v)


def _pct(v: float) -> float:
    return v * 100


def _round1(v: float) -> float:
    return round(v, 1)


_FIG1 = Table("Figure 1: motivation", "rows", (
    ("region", "region", str.upper), ("centralized (ms)", "centralized_median_ms"),
    ("geo-replicated (ms)", "geo_replicated_median_ms"),
    ("local ideal (ms)", "local_ideal_median_ms"),
))

_TABLE1 = Table("Table 1: benchmark functions", "rows", (
    ("function", "function"), ("writes", "writes"), ("analyzable", "analyzable"),
    ("exec (ms)", "exec_time_ms"), ("workload %", "workload_pct"),
))

_FIG4 = Table("Figure 4: end-to-end latency", "rows", (
    ("app", "app"), ("radical med", "radical_median_ms"),
    ("baseline med", "baseline_median_ms"), ("ideal med", "ideal_median_ms"),
    ("improve %", "improvement_pct"), ("of max %", "fraction_of_max_pct"),
    ("valid %", "validation_success_rate", _pct),
))

#: Printed once per app, over ``{"app": name, "rows": that app's rows}``.
_FIG5 = Table("Figure 5 ({app}): regional variation", "rows", (
    ("region", "region", str.upper), ("radical med", "radical_median_ms"),
    ("baseline med", "baseline_median_ms"), ("ideal med", "ideal_median_ms"),
))

_FIG6 = Table("Figure 6: per-function latency", "rows", (
    ("function", "function"), ("exec (ms)", "service_time_ms"),
    ("radical med", "radical_median_ms"), ("baseline med", "baseline_median_ms"),
    ("n", "samples"),
))

_SEC57 = Table("Section 5.7: cost (infrastructure overhead {infra_overhead:.1%})", "rows", (
    ("monthly invocations", "invocations", "{:,}".format),
    ("baseline ($)", "baseline_total"), ("radical ($)", "radical_total"),
    ("overhead %", "overhead", _pct),
))

_SWEEP_SKEW = Table("Sweep: skew (counter microbenchmark)", "rows", (
    ("zipf s", "zipf_s"), ("validation", "validation_success"),
    ("median (ms)", "median_ms"), ("p99 (ms)", "p99_ms"),
))

_SWEEP_CONCURRENCY = Table("Sweep: concurrency (forum)", "rows", (
    ("clients/region", "clients_per_region"), ("validation", "validation_success"),
    ("median (ms)", "median_ms"), ("p99 (ms)", "p99_ms"),
))

_SWEEP_OFFERED_LOAD = Table("Sweep: offered load (forum, open loop)", "rows", (
    ("rate (rps/region)", "rate_rps_per_region"), ("requests", "requests"),
    ("median", "median_ms"), ("p99", "p99_ms"),
    ("validation", "validation_success"), ("lock wait (ms)", "lock_wait_total_ms"),
))

_SCALABILITY = Table(
    "Scalability: offered {rate_rps_per_region:.0f} rps/region, "
    "proc {server_proc_ms:.0f} ms/msg", "points", (
        ("series", "series"), ("shards", "shards"),
        ("throughput (rps)", "throughput_rps"), ("median (ms)", "median_ms", _round1),
        ("p99 (ms)", "p99_ms", _round1), ("coalesced", "batch_coalesced"),
        ("xshard commits", "xshard_commits"),
    ))

_READSCALE = Table(
    "Read scaling: conflict detection on/off, "
    "{read_replicas} read replica(s)/shard", "points", (
        ("series", "series"), ("shards", "shards"),
        ("throughput (rps)", "throughput_rps"), ("median (ms)", "median_ms", _round1),
        ("p99 (ms)", "p99_ms", _round1), ("lock skips", "lock_skipped"),
        ("conflict hits", "conflict_hits"), ("bounces", "replica_bounces"),
    ))

_OVERLOAD = Table(
    "Overload sweep: proc {server_proc_ms:.0f} ms/msg, queue depth "
    "{admission_queue_depth}, rpc timeout {rpc_timeout_ms:.0f} ms", "points", (
        ("series", "series"), ("rate (rps)", "rate_rps"),
        ("goodput (rps)", "goodput_rps"), ("acked", "acked"),
        ("failed", "unavailable"), ("shed", "shed"),
        ("timeouts", "rpc_timeouts"), ("max queue", "max_admission_queue"),
        ("p99 (ms)", "p99_ms", _dash(_round1)),
    ))

_MESH = Table("Mesh sweep: {apps!n} app(s), {requests} requests/point", "rows", (
    ("app", "app"), ("mesh", "mesh"), ("chaos", "chaos"),
    ("abort %", "abort_rate", _dash(lambda v: f"{v * 100:.2f}")),
    ("backup %", "backup_rate", _dash(lambda v: f"{v * 100:.2f}")),
    ("hit age p50 (ms)", "hit_age_p50_ms", _dash()), ("med (ms)", "median_ms"),
    ("updates applied", "updates_applied"),
))

_ROUTING = Table(
    "Routing sweep: {requests} requests/point, "
    "tiered threshold {tiered_threshold_ms:.0f} ms", "points", (
        ("regions", "region_count"), ("placement", "placement"),
        ("policy", "policy"), ("pops", "pops"),
        ("median (ms)", "median_ms"), ("p99 (ms)", "p99_ms"),
        ("valid %", "validation_success", _dash(lambda v: f"{v * 100:.1f}")),
        ("home/edge/direct", "modes",
         lambda modes: "/".join(str(modes.get(m, 0)) for m in ("home", "edge", "direct"))),
    ))


def _chart_fig4(payload: Payload) -> None:
    rows = payload["rows"]
    print(grouped_bar_chart(
        [r["app"] for r in rows],
        {
            "radical": [r["radical_median_ms"] for r in rows],
            "baseline": [r["baseline_median_ms"] for r in rows],
            "ideal": [r["ideal_median_ms"] for r in rows],
        },
        title="median end-to-end latency",
    ))


def _present_fig5(payload: Payload) -> None:
    for app, rows in payload.items():
        _FIG5.print({"app": app, "rows": rows})
        print(grouped_bar_chart(
            [r["region"].upper() for r in rows],
            {
                "radical": [r["radical_median_ms"] for r in rows],
                "baseline": [r["baseline_median_ms"] for r in rows],
            },
            title=f"{app}: median latency by region",
        ))


def _chart_fig6(payload: Payload) -> None:
    stable = [r for r in payload["rows"] if r["samples"] >= 30]
    if stable:
        print(bar_chart(
            [r["function"] for r in stable],
            [r["radical_median_ms"] for r in stable],
            markers=[r["radical_p99_ms"] for r in stable],
            title="Radical per-function median (p99 markers)",
        ))


def _present_table2(payload: Payload) -> None:
    measured = payload["measured"]
    print_table(
        ["region", "configured RTT (ms)", "measured RTT (ms)"],
        [[r["region"], r["rtt_to_primary_ms"],
          measured.get(r["region"].lower(), "-")] for r in payload["rows"]],
        title="Table 2: round-trip latency to the primary (VA)",
    )


def _present_sec56(payload: Payload) -> None:
    print(f"Raft per-lock commit: {payload['raft_per_lock_commit_ms']:.2f} ms "
          f"(paper: 2.3 ms)")
    print_table(
        ["locks", "model 3+2.3L", "measured added (ms)"],
        [[m["locks"], model["added_latency_model_ms"], m["measured_added_ms"]]
         for m, model in zip(payload["measured"], payload["model"])],
        title="Section 5.6: replicated LVI server",
    )


def _present_chaos(payload: Payload) -> None:
    by_plan: Dict[str, List[Payload]] = {}
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


def _present_chaos_explore(payload: Payload) -> None:
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


def _present_analysis(payload: Payload) -> None:
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


def _present_breakeven(payload: Payload) -> None:
    rows = [
        [b["region_count"], b["placement"],
         f"{b['breakeven_pop_rtt_ms']:.1f}"
         if b["breakeven_pop_rtt_ms"] is not None else "> max",
         f"{b['edge_wins']}/{b['clients']}"]
        for b in payload["breakeven"]
    ]
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


# -- gates -------------------------------------------------------------------

def _gate_chaos(payload: Payload) -> List[str]:
    return [
        f"chaos case plan={c['plan']} seed={c['seed']}: {c['violation']}"
        for c in payload["cases"] if not c["ok"]
    ]


def _gate_chaos_explore(payload: Payload) -> List[str]:
    failures = [
        f"explorer violation [{v['shape']} seed {v['seed']}]: {v['violation']}"
        for v in payload["violations"]
    ]
    if payload["novel_schedules"] < 1:
        # The very first schedule always reaches unseen coverage, so
        # zero novelty means the coverage extraction itself is broken.
        failures.append("exploration reached no new coverage at all")
    return failures


def _gate_scalability(payload: Payload) -> List[str]:
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


def _gate_overload(payload: Payload) -> List[str]:
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


def _ablation(name: str, run: Callable[..., Payload], label: str,
              radical: str, ablated: str) -> ScenarioKind:
    """One design-choice ablation: a radical-vs-ablated headline pair."""
    return ScenarioKind(
        name=f"ablation-{name}",
        params={"requests": _p("int", 800), "seed": _p("int", 42)},
        run=_call(run),
        extra=lambda payload: print_table(
            ["ablation", "radical", "ablated"],
            [[label, payload[radical], payload[ablated]]],
            title="Design-choice ablation",
        ),
        probes=(radical, ablated),
        smoke_defaults={"requests": 150},
    )


_APPS = _one_of("app", sorted(bench.MAIN_APP_BUILDERS))

#: fig4, fig5 and fig6 view the same runs.
_EVAL_PARAMS = {
    "requests": _p("int", 2500),
    "seed": _p("int", 42),
    "apps": _p("list", ["social", "hotel", "forum"], element="str", check=_APPS),
    "rtt": _p("any", None, check=_check_rtt_ref),
}

KINDS: Dict[str, ScenarioKind] = {kind.name: kind for kind in [
    ScenarioKind(
        name="fig1",
        params={"requests_per_region": _p("int", 200), "seed": _p("int", 42)},
        run=_call(bench.fig1_motivation, wrap="rows"),
        tables=(_FIG1,),
        smoke_defaults={"requests_per_region": 60},
    ),
    ScenarioKind(
        name="table1",
        params={},
        run=lambda p: {"rows": bench.table1_functions()},
        tables=(_TABLE1,),
    ),
    ScenarioKind(
        name="table2",
        params={},
        run=lambda p: {"rows": bench.table2_rtt(), "measured": _measure_table2_rtts()},
        extra=_present_table2,
        probes=("rows[].region", "rows[].rtt_to_primary_ms", "measured"),
    ),
    ScenarioKind(
        name="fig4",
        params=_EVAL_PARAMS,
        run=lambda p: {"rows": [bench.fig4_rows(t) for t in _eval_trios(p).values()]},
        tables=(_FIG4,),
        extra=_chart_fig4,
        smoke_defaults={"requests": 150},
    ),
    ScenarioKind(
        name="fig5",
        params=_EVAL_PARAMS,
        run=lambda p: {app: bench.fig5_rows(t) for app, t in _eval_trios(p).items()},
        extra=_present_fig5,
        probes=tuple(f"*[].{col[1]}" for col in _FIG5.columns),
        smoke_defaults={"requests": 150},
    ),
    ScenarioKind(
        name="fig6",
        params=_EVAL_PARAMS,
        run=lambda p: {"rows": [row for t in _eval_trios(p).values()
                                for row in bench.fig6_rows(t)]},
        tables=(_FIG6,),
        extra=_chart_fig6,
        probes=("rows[].radical_p99_ms",),
        smoke_defaults={"requests": 150},
    ),
    ScenarioKind(
        name="sec56",
        params={"lock_counts": _p("list", [1, 2, 4, 8], element="int"),
                "seed": _p("int", 42)},
        run=_call(bench.sec56_replication),
        extra=_present_sec56,
        probes=("raft_per_lock_commit_ms", "model[].locks",
                "model[].added_latency_model_ms", "measured[].locks",
                "measured[].measured_added_ms"),
        smoke_defaults={"lock_counts": [1, 2]},
    ),
    ScenarioKind(
        name="sec57",
        params={},
        run=lambda p: {"rows": bench.cost_table(),
                       "infra_overhead": bench.infrastructure_overhead()},
        tables=(_SEC57,),
    ),
    _ablation("overlap", bench.ablation_overlap, "overlap off (median ms)",
              "overlap_median_ms", "no_overlap_median_ms"),
    _ablation("two-rtt", bench.ablation_two_rtt, "2-RTT commit (overall ms)",
              "overall_single_ms", "overall_two_rtt_ms"),
    _ablation("cache-bootstrap", bench.ablation_cache_bootstrap,
              "cold cache (median ms)", "warm_median_ms", "cold_median_ms"),
    ScenarioKind(
        name="sweep-skew",
        params={"zipf_values": _p("list", [0.0, 0.5, 0.9, 0.99, 1.2], element="number"),
                "requests": _p("int", 800), "seed": _p("int", 42)},
        run=_call(bench.sweep_skew, wrap="rows"),
        tables=(_SWEEP_SKEW,),
        smoke_defaults={"requests": 120, "zipf_values": [0.0, 1.2]},
    ),
    ScenarioKind(
        name="sweep-concurrency",
        params={"clients": _p("list", [1, 2, 4, 8], element="int"),
                "requests": _p("int", 800), "seed": _p("int", 42)},
        run=_call(bench.sweep_concurrency, wrap="rows"),
        tables=(_SWEEP_CONCURRENCY,),
        smoke_defaults={"requests": 120, "clients": [1, 2]},
    ),
    ScenarioKind(
        name="sweep-offered-load",
        params={"rates_rps": _p("list", [2.0, 5.0, 10.0, 20.0], element="number"),
                "duration_ms": _p("number", 15_000.0), "seed": _p("int", 42)},
        run=_call(bench.sweep_offered_load, wrap="rows"),
        tables=(_SWEEP_OFFERED_LOAD,),
        smoke_defaults={"rates_rps": [5.0, 20.0], "duration_ms": 2_000.0},
    ),
    ScenarioKind(
        name="scalability",
        params={
            "shard_counts": _p("list", [1, 2, 4, 8], element="int"),
            "rate_rps_per_region": _p("number", 150.0), "duration_ms": _p("number", 4_000.0),
            "batch_window_ms": _p("number", 5.0), "seed": _p("int", 42),
            "workloads": _p("list", None, element="str",
                            check=_one_of("scalability workload", list(_SCALABILITY_WORKLOADS))),
        },
        run=_run_scalability,
        tables=(_SCALABILITY,),
        gate=_gate_scalability,
        smoke_defaults={"shard_counts": [1, 2], "rate_rps_per_region": 100.0,
                        "duration_ms": 1_500.0, "workloads": ["counter"]},
    ),
    ScenarioKind(
        name="readscale",
        params={
            "shard_counts": _p("list", [1, 2, 4, 8], element="int"),
            "rate_rps_per_region": _p("number", 250.0), "duration_ms": _p("number", 4_000.0),
            "read_replicas": _p("int", 3), "seed": _p("int", 42),
        },
        run=_call(bench.sweep_readscale),
        tables=(_READSCALE,),
        gate=bench.readscale_gate_failures,
        smoke_defaults={"shard_counts": [1, 2], "rate_rps_per_region": 100.0,
                        "duration_ms": 1_500.0},
    ),
    ScenarioKind(
        name="overload",
        params={"rates": _p("list", [40.0, 60.0, 80.0, 100.0, 120.0, 160.0], element="number"),
                "duration_ms": _p("number", 3_000.0), "seed": _p("int", 42)},
        run=_call(bench.sweep_overload),
        tables=(_OVERLOAD,),
        gate=_gate_overload,
        smoke_defaults={"rates": [60.0, 160.0], "duration_ms": 1_500.0},
    ),
    ScenarioKind(
        name="mesh",
        params={"apps": _p("list", None, element="str", check=_APPS),
                "intervals": _p("list", [25.0, 100.0, 400.0], element="number"),
                "requests": _p("int", 1_200), "seed": _p("int", 42)},
        run=_call(bench.sweep_mesh),
        tables=(_MESH,),
        probes=("gossip_intervals_ms",),
        gate=bench.mesh_gate_failures,
        smoke_defaults={"apps": ["forum"], "intervals": [50.0], "requests": 300},
    ),
    ScenarioKind(
        name="chaos",
        params={
            "plans": _p("any", "all", check=_check_plans),
            "seeds": _p("int", 10), "requests": _p("int", 25), "clients": _p("int", 1),
            "shards": _p("int", 1), "detect": _p("bool", False),
            "extra_plans": _p("list", None, element="dict", check=_extra_plans),
        },
        run=_run_chaos,
        extra=_present_chaos,
        probes=("shards", "cases[].plan", "cases[].seed", "cases[].ok",
                "cases[].verdicts", "cases[].violation", "cases[].counters",
                "cases[].acked", "cases[].requests", "cases[].median_ms",
                "cases[].p99_ms"),
        gate=_gate_chaos,
        smoke_defaults={"seeds": 2},
    ),
    ScenarioKind(
        name="chaos-explore",
        params={
            "budget": _p("int", 48), "seed": _p("int", 7),
            "shapes": _p("list", ["seed", "sharded", "replicated", "mesh"],
                         element="str", check=_one_of("deployment shape", SHAPES)),
            "requests": _p("int", 12), "clients": _p("int", 1),
        },
        run=lambda p: run_exploration(p).to_payload(),
        extra=_present_chaos_explore,
        probes=("budget", "seed", "shapes", "schedules_tried", "novel_schedules",
                "coverage", "coverage.features", "coverage.distinct_signatures",
                "violations", "pool"),
        gate=_gate_chaos_explore,
        smoke_defaults={"budget": 12},
    ),
    ScenarioKind(
        name="analysis",
        params={"inputs_per_function": _p("int", 10), "seed": _p("int", 42)},
        run=_call(bench.run_analysis_corpus),
        extra=_present_analysis,
        probes=("aggregate", "functions[].function", "functions[].analyzable",
                "conflict_matrix", "conflict_matrix.names",
                "conflict_matrix.conflicting_pairs", "checks",
                "inputs_per_function"),
        gate=bench.analysis_gate_failures,
        smoke_defaults={"inputs_per_function": 3},
    ),
    ScenarioKind(
        name="routing",
        params={
            "region_counts": _p("list", [10, 25, 50], element="int",
                                check=_check_region_counts),
            "policies": _p("list", ["nearest-rtt", "tiered", "direct"], element="str",
                           check=_one_of("assignment policy", ASSIGNMENT_POLICIES)),
            "placements": _p("list", ["dense", "sparse"], element="str",
                             check=_one_of("placement", ("dense", "sparse"))),
            "requests": _p("int", 1_500), "seed": _p("int", 42), "rtt_seed": _p("int", 7),
            "tiered_threshold_ms": _p("number", 60.0), "sparse_pops": _p("int", 5),
            "workers": _p("int", None),
        },
        run=_call(bench.run_routing_sweep),
        tables=(_ROUTING,),
        extra=_present_breakeven,
        probes=("breakeven[].region_count", "breakeven[].placement",
                "breakeven[].breakeven_pop_rtt_ms", "breakeven[].edge_wins",
                "breakeven[].clients", "breakeven", "region_counts"),
        gate=bench.routing_gate_failures,
        smoke_defaults={"region_counts": [10], "requests": 200, "placements": ["dense"],
                        "policies": ["nearest-rtt", "direct"]},
    ),
]}
