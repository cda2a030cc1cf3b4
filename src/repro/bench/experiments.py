"""Per-figure/table experiment functions (the paper's entire evaluation).

Each ``figN_*``/``tableN_*``/``secNN_*`` function reproduces one table or
figure from the paper: it runs the relevant deployments on the simulator
and returns structured rows — parameters in, payload out.  The scenario
registry (:mod:`repro.scenarios.runners`) is the one caller: it passes
every parameter from ``configs/<name>.json`` and prints the same series
the paper reports.  Absolute numbers come from our simulated substrate; the
*shapes* — who wins, by what factor, where crossovers fall — are the
reproduction targets recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence

from ..analysis import analyze_source
from ..apps import App, AppFunction, WorkloadContext, forum_app, hotel_app, social_media_app
from ..baselines import (
    GeoReplicatedDeployment,
    LocalIdealDeployment,
    PrimaryDeployment,
    SimpleWorkload,
)
from ..core import FunctionSpec, RadicalConfig
from ..core.config import REPLICATED_IDEM_MS
from ..sim import PAPER_RTT_TO_PRIMARY, RandomStreams, Region, Simulator, Summary
from ..topology import Deployment, TopologySpec
from .harness import (
    PAPER_JITTER_SIGMA,
    drive_closed_loop,
    drive_open_loop,
    validation_success_rate,
)

__all__ = [
    "fig1_motivation",
    "table1_functions",
    "table2_rtt",
    "EvalTrio",
    "run_eval_trio",
    "fig4_rows",
    "fig5_rows",
    "fig6_rows",
    "sec56_replication",
    "ablation_overlap",
    "ablation_two_rtt",
    "ablation_cache_bootstrap",
    "sweep_skew",
    "sweep_concurrency",
    "sweep_offered_load",
    "MAIN_APP_BUILDERS",
]

MAIN_APP_BUILDERS: Dict[str, Callable[[], App]] = {
    "social": social_media_app,
    "hotel": hotel_app,
    "forum": forum_app,
}


# ---------------------------------------------------------------------------
# Figure 1 — motivation: centralized vs geo-replicated vs local ideal
# ---------------------------------------------------------------------------

MOTIVATION_SRC = '''
def motivation(k):
    item = db_get("data", f"k:{k}")
    busy(10000)
    return item
'''


def _back_to_back(sim: Simulator, call: Callable[[], object], n: int, name: str) -> List[float]:
    """Latencies of ``n`` sequential invocations of ``call()`` (a generator
    factory), run as the process ``name``."""
    def flow():
        samples = []
        for _i in range(n):
            start = sim.now
            yield from call()
            samples.append(sim.now - start)
        return samples

    return sim.run_process(flow(), name=name)


def fig1_motivation(requests_per_region: int, seed: int) -> List[dict]:
    """Figure 1: a ~100 ms + one-read request from five user locations under
    the three §2 deployments.  Returns one row per region."""
    spec = TopologySpec(seed=seed, network_jitter_sigma=PAPER_JITTER_SIGMA)
    item = {"payload": "x"}
    function = dict(
        functions=[FunctionSpec("fig1.motivation", MOTIVATION_SRC, 100.0)],
        seed_data=lambda store: store.put("data", "k:0", item),
    )

    # Three independent worlds under one spec.  Centralized: app + data in
    # VA, every user (VA's included) reaching it over the network;
    # geo-replicated: app per region over the ABD quorum store; local ideal:
    # app + uncoordinated local data per region.
    central = PrimaryDeployment.build(spec, **function)
    geo = GeoReplicatedDeployment.build(spec)
    geo.write("motivation", item)
    local = LocalIdealDeployment.build(spec, **function)

    rows = []
    for region in spec.regions:
        user = central.remote_client(region, f"fig1-client-{region}")
        calls = {
            "centralized": (central.sim, lambda: user("fig1.motivation", [0])),
            "geo_replicated": (geo.sim, lambda: geo.apps[region].invoke(SimpleWorkload())),
            "local_ideal": (
                local.sim, lambda: local.locals[region].invoke("fig1.motivation", [0])
            ),
        }
        row = {"region": region}
        for column, (sim, call) in calls.items():
            samples = _back_to_back(sim, call, requests_per_region, f"fig1-{column}-{region}")
            row[f"{column}_median_ms"] = Summary.of(samples).median
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Tables 1 and 2
# ---------------------------------------------------------------------------

def table1_functions() -> List[dict]:
    """Table 1: per-function description, writes?, analyzable? (with the
    dependent-read asterisk), service time, and workload share — computed
    by actually running the analyzer on each function."""
    rows = []
    for app_name, builder in MAIN_APP_BUILDERS.items():
        app = builder()
        for fn in app.functions:
            analyzed = analyze_source(fn.spec.source)
            rows.append(
                {
                    "function": fn.function_id,
                    "description": fn.spec.description,
                    "writes": analyzed.writes,
                    "analyzable": (
                        "Yes*" if analyzed.dependent_reads
                        else ("Yes" if analyzed.analyzable else "No")
                    ),
                    "exec_time_ms": fn.spec.service_time_ms,
                    "workload_pct": fn.spec.workload_weight,
                }
            )
    return rows


def table2_rtt() -> List[dict]:
    """Table 2: RTT between each deployment location and the VA primary."""
    return [
        {"region": region.upper(), "rtt_to_primary_ms": rtt}
        for region, rtt in PAPER_RTT_TO_PRIMARY.items()
    ]


# ---------------------------------------------------------------------------
# Figures 4-6 — the main evaluation (shared runs)
# ---------------------------------------------------------------------------

@dataclass
class EvalTrio:
    """The three driven systems for one application, built from one spec."""

    app_name: str
    radical: Deployment
    baseline: PrimaryDeployment
    ideal: LocalIdealDeployment

    def _gain_over_baseline(self, system: Any) -> float:
        """How far ``system``'s median end-to-end latency sits under the
        baseline's, as a fraction of the baseline's."""
        baseline = self.baseline.metrics.summary("e2e").median
        return 1.0 - system.metrics.summary("e2e").median / baseline

    def improvement(self) -> float:
        """Median end-to-end latency improvement of Radical vs baseline."""
        return self._gain_over_baseline(self.radical)

    def max_improvement(self) -> float:
        return self._gain_over_baseline(self.ideal)

    def fraction_of_max(self) -> float:
        maximum = self.max_improvement()
        return self.improvement() / maximum if maximum > 0 else float("nan")


def run_eval_trio(
    app_name: str, spec: TopologySpec, requests: int = 2000, clients_per_region: int = 2
) -> EvalTrio:
    """Build the three systems for one app from ``spec`` — identical
    network, seed and regions — and drive each with the identical load."""
    def driven(build: Callable[..., Any]) -> Any:
        app = MAIN_APP_BUILDERS[app_name]()
        return drive_closed_loop(build(spec, app=app), app, requests, clients_per_region)

    return EvalTrio(
        app_name=app_name,
        radical=driven(Deployment.build),
        baseline=driven(PrimaryDeployment.build),
        ideal=driven(LocalIdealDeployment.build),
    )


def _latency_columns(trio: EvalTrio, label: str = "e2e") -> dict:
    """Radical's and the baseline's median+p99 under one metrics label —
    the columns Figures 4, 5 and 6 share."""
    r, b = trio.radical.metrics.summary(label), trio.baseline.metrics.summary(label)
    return {
        "radical_median_ms": r.median,
        "radical_p99_ms": r.p99,
        "baseline_median_ms": b.median,
        "baseline_p99_ms": b.p99,
    }


def fig4_rows(trio: EvalTrio) -> dict:
    """Figure 4: per-app median+p99 for both deployments plus the red line,
    improvement percentages, and the validation success rate (§5.3)."""
    return {
        "app": trio.app_name,
        **_latency_columns(trio),
        "ideal_median_ms": trio.ideal.metrics.summary("e2e").median,
        "improvement_pct": trio.improvement() * 100,
        "fraction_of_max_pct": trio.fraction_of_max() * 100,
        "validation_success_rate": validation_success_rate(trio.radical.metrics),
    }


def fig5_rows(trio: EvalTrio) -> List[dict]:
    """Figure 5: per-region median+p99 for one application."""
    spec, latency = trio.radical.spec, trio.radical.net.latency
    return [
        {
            "app": trio.app_name,
            "region": region,
            "lat_nu_ns_ms": latency.rtt(region, spec.primary_region),
            **_latency_columns(trio, f"e2e.region.{region}"),
            "ideal_median_ms": trio.ideal.metrics.summary(f"e2e.region.{region}").median,
        }
        for region in spec.regions
    ]


def fig6_rows(trio: EvalTrio) -> List[dict]:
    """Figure 6: per-function median+p99 for one application."""
    rows = []
    for fn in MAIN_APP_BUILDERS[trio.app_name]().functions:
        label = f"e2e.fn.{fn.function_id}"
        if not trio.radical.metrics.has(label):
            continue  # low-weight function that drew no requests
        rows.append(
            {
                "function": fn.function_id,
                "service_time_ms": fn.spec.service_time_ms,
                **_latency_columns(trio, label),
                "samples": trio.radical.metrics.summary(label).count,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# §5.6 — replicated LVI server
# ---------------------------------------------------------------------------

MICRO_RW_SRC_TEMPLATE = '''
def micro_rw(k):
    busy(500)
{reads}
    db_put("micro", f"w:{{k}}", 1)
    return 1
'''


def _micro_source(lock_count: int) -> str:
    """A function that touches ``lock_count`` keys (L-1 reads + 1 write)."""
    reads = "\n".join(
        f'    r{i} = db_get("micro", f"r{i}:{{k}}")' for i in range(lock_count - 1)
    )
    return MICRO_RW_SRC_TEMPLATE.format(reads=reads)


def measure_raft_lock_latency(commits: int = 200, seed: int = 42) -> float:
    """Median latency of one lock record committed through Raft — the
    paper's 2.3 ms constant."""
    from ..raft import RaftCluster

    sim = Simulator()
    cluster = RaftCluster(sim, RandomStreams(seed))
    cluster.start()
    sim.run(until=500.0)

    def flow():
        samples = []
        for i in range(commits):
            start = sim.now
            yield from cluster.submit(("put", f"lock:{i}", "owner"))
            samples.append(sim.now - start)
        return samples

    samples = sim.run_process(flow())
    return Summary.of(samples).median


def sec56_replication(lock_counts: Sequence[int], seed: int) -> dict:
    """§5.6: per-lock Raft commit latency, the 3 + 2.3·L added-latency
    model, and the minimum beneficial execution time 16 + 2.3·L.

    Also measures the replicated server's end-to-end effect directly by
    running the same single-key write microbenchmark against a singleton
    and a Raft-replicated server.
    """
    per_lock = measure_raft_lock_latency(seed=seed)
    model_rows = [
        {
            "locks": L,
            "added_latency_model_ms": REPLICATED_IDEM_MS + 2.3 * L,
            "min_beneficial_exec_ms": 16.0 + 2.3 * L,
        }
        for L in lock_counts
    ]

    measured_rows = []
    for L in lock_counts:
        singleton = _micro_lvi_latency(L, replicated=False, seed=seed)
        replicated = _micro_lvi_latency(L, replicated=True, seed=seed)
        batched = _micro_lvi_latency(L, replicated=True, seed=seed, batch_locks=True)
        measured_rows.append(
            {
                "locks": L,
                "singleton_lvi_ms": singleton,
                "replicated_lvi_ms": replicated,
                "measured_added_ms": replicated - singleton,
                "batched_lvi_ms": batched,
                "batched_added_ms": batched - singleton,
            }
        )
    return {
        "raft_per_lock_commit_ms": per_lock,
        "idempotency_key_ms": REPLICATED_IDEM_MS,
        "model": model_rows,
        "measured": measured_rows,
    }


def _micro_lvi_latency(
    lock_count: int, replicated: bool, seed: int, batch_locks: bool = False
) -> float:
    """Median e2e latency of an L-key write with a ~0.5 ms execution (so
    the LVI request is never hidden and server costs are visible)."""
    config = RadicalConfig(
        service_jitter_sigma=0.0,
        replicated=replicated,
        replicated_batch_locks=batch_locks,
    )

    def seed_micro(store):
        for i in range(lock_count - 1):
            store.put("micro", f"r{i}:x", 0)
        store.put("micro", "w:x", 0)

    dep = Deployment.build(
        TopologySpec(
            regions=(Region.CA,), seed=seed, config=config,
            warm_caches=False, persistent_caches=False,
        ),
        functions=[FunctionSpec("micro.rw", _micro_source(lock_count), 0.5)],
        seed_data=seed_micro,
    )
    sim = dep.sim
    runtime = dep.runtimes[Region.CA]

    def flow():
        samples = []
        for _i in range(40):
            outcome = yield from runtime.invoke("micro.rw", ["x"])
            samples.append(outcome.latency_ms)
            # Let the followup settle so locks do not queue across requests.
            yield sim.timeout(500.0)
        return samples

    samples = sim.run_process(flow())
    # Skip the first (cache-miss) sample.
    return Summary.of(samples[1:]).median


# ---------------------------------------------------------------------------
# Ablations (DESIGN.md §5)
# ---------------------------------------------------------------------------

def _paper_run(
    app: App, requests: int, seed: int, clients_per_region: int = 2, **spec_fields: Any
) -> Deployment:
    """Radical on the paper topology (``spec_fields`` override it) under
    the closed-loop workload every figure uses."""
    spec = TopologySpec(seed=seed, network_jitter_sigma=PAPER_JITTER_SIGMA, **spec_fields)
    return drive_closed_loop(Deployment.build(spec, app=app), app, requests, clients_per_region)


def ablation_overlap(requests: int, seed: int) -> dict:
    """Speculation overlap on vs off: without overlap the LVI round trip
    serializes before execution — most of Radical's win disappears."""
    on = _paper_run(social_media_app(), requests, seed).metrics.summary("e2e").median
    off = _paper_run(
        social_media_app(), requests, seed, config=RadicalConfig(speculate=False)
    ).metrics.summary("e2e").median
    return {
        "app": "social",
        "overlap_median_ms": on,
        "no_overlap_median_ms": off,
        "penalty_pct": (off / on - 1.0) * 100,
    }


def ablation_two_rtt(requests: int, seed: int) -> dict:
    """Single LVI request vs validate-then-commit (a second synchronous
    round trip before responding on the write path)."""
    one = _paper_run(social_media_app(), requests, seed)
    two = _paper_run(
        social_media_app(), requests, seed, config=RadicalConfig(single_request=False)
    )
    # Writes are rare in the mix, so compare the write function directly.
    fid = "social.post"
    row = {"app": "social", "write_function": fid}
    if one.metrics.has(f"e2e.fn.{fid}") and two.metrics.has(f"e2e.fn.{fid}"):
        row["single_request_median_ms"] = one.metrics.summary(f"e2e.fn.{fid}").median
        row["two_rtt_median_ms"] = two.metrics.summary(f"e2e.fn.{fid}").median
    row["overall_single_ms"] = one.metrics.summary("e2e").median
    row["overall_two_rtt_ms"] = two.metrics.summary("e2e").median
    return row


_COUNTER_READ_SRC = '''
def read_counter(k):
    busy(4000)
    count = db_get("counters", f"c:{k}")
    if count is None:
        count = 0
    return count
'''

_COUNTER_BUMP_SRC = '''
def bump_counter(k):
    busy(2000)
    count = db_get("counters", f"c:{k}")
    if count is None:
        count = 0
    db_put("counters", f"c:{k}", count + 1)
    return count + 1
'''


def _counter_app(zipf_s: float, keys: int = 500, write_pct: float = 20.0) -> App:
    """A skew-microbenchmark app: zipf-selected counters, 80/20 read/write.

    Unlike the paper's applications (whose hottest key is the forum's
    single front page, making them skew-insensitive), this workload's
    contention is entirely controlled by the zipf parameter — the right
    instrument for the §3.6 locking/validation discussion.
    """
    ctx = WorkloadContext(zipf_s=zipf_s)

    def gen_read(c, rng):
        return [str(c.zipf("micro.counters", keys, rng))]

    def gen_bump(c, rng):
        return [str(c.zipf("micro.counters", keys, rng))]

    functions = [
        AppFunction(FunctionSpec("micro.read", _COUNTER_READ_SRC, 40.0,
                                 100.0 - write_pct, "Read a counter"), gen_read),
        AppFunction(FunctionSpec("micro.bump", _COUNTER_BUMP_SRC, 20.0,
                                 write_pct, "Increment a counter"), gen_bump),
    ]

    def seed_data(store, streams, c):
        for i in range(keys):
            store.put("counters", f"c:{i}", 0)

    return App(name="counter-micro", functions=functions, seed=seed_data, context=ctx)


def _contention_row(dep: Deployment) -> dict:
    summary = dep.metrics.summary("e2e")
    return {
        "validation_success": validation_success_rate(dep.metrics),
        "median_ms": summary.median,
        "p99_ms": summary.p99,
    }


def sweep_skew(zipf_values: Sequence[float], requests: int, seed: int) -> List[dict]:
    """Validation success and tail latency vs workload skew on the counter
    microbenchmark (zipf-selected keys, 20% writes): the §5.3/§3.6 axis,
    isolated.  The paper's apps run at zipf 0.99; here the whole curve."""
    return [
        {"zipf_s": s, **_contention_row(_paper_run(_counter_app(zipf_s=s), requests, seed))}
        for s in zipf_values
    ]


def sweep_concurrency(clients: Sequence[int], requests: int, seed: int) -> List[dict]:
    """Latency vs client concurrency on the skewed forum workload: more
    concurrent clients means more lock queueing on the hot front-page key
    and more cross-region invalidation (§3.6's contention discussion)."""
    return [
        {
            "clients_per_region": n,
            **_contention_row(_paper_run(forum_app(), requests, seed, clients_per_region=n)),
        }
        for n in clients
    ]


def sweep_offered_load(rates_rps: Sequence[float], duration_ms: float, seed: int) -> List[dict]:
    """Latency vs offered load with open-loop (Poisson) clients on the
    forum workload.  §5.3 states Radical's throughput matches the
    baseline's because the LVI server adds no bottleneck; what *does*
    queue under load is the hot front-page write lock — visible here as
    p99 growth while the median stays flat."""
    rows = []
    for rate in rates_rps:
        app = forum_app()
        dep = Deployment.build(
            TopologySpec(seed=seed, network_jitter_sigma=PAPER_JITTER_SIGMA), app=app
        )
        # Failures are bugs here, not shed load: nothing is tolerated.
        point = drive_open_loop(dep, app, "open", rate, duration_ms, tolerate_unavailable=False)
        rows.append(
            {
                "rate_rps_per_region": rate,
                "requests": point["completed"],
                "median_ms": point["median_ms"],
                "p99_ms": point["p99_ms"],
                "validation_success": validation_success_rate(dep.metrics),
                # Aggregated across shards (one server on this topology).
                "lock_wait_total_ms": sum(s.locks.total_wait_ms for s in dep.servers),
                "lock_wait_max_ms": max(s.locks.max_wait_ms for s in dep.servers),
            }
        )
    return rows


def ablation_cache_bootstrap(requests: int, seed: int) -> dict:
    """Cold vs warm caches: the §3.2 gradual-bootstrap latency penalty."""
    warm = _paper_run(social_media_app(), requests, seed, warm_caches=True)
    cold = _paper_run(social_media_app(), requests, seed, warm_caches=False)
    return {
        "warm_median_ms": warm.metrics.summary("e2e").median,
        "cold_median_ms": cold.metrics.summary("e2e").median,
        "warm_validation_success": validation_success_rate(warm.metrics),
        "cold_validation_success": validation_success_rate(cold.metrics),
    }
