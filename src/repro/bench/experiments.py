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

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..analysis import analyze_source
from ..apps import App, forum_app, hotel_app, social_media_app
from ..baselines import GeoReplicatedApp, LocalIdeal, PrimaryBaseline, SimpleWorkload
from ..core import FunctionRegistry, FunctionSpec, LVIServer, NearUserRuntime, RadicalConfig
from ..sim import (
    Metrics,
    Network,
    PAPER_RTT_TO_PRIMARY,
    RandomStreams,
    Region,
    Simulator,
    Summary,
    paper_latency_table,
)
from ..storage import KVStore, NearUserCache, ReplicatedStore
from .harness import (
    ExperimentConfig,
    ExperimentResult,
    drive_open_loop,
    run_baseline_experiment,
    run_local_ideal_experiment,
    run_radical_experiment,
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
    config = RadicalConfig()

    # --- centralized: app + data in VA, clients everywhere -----------------
    sim = Simulator()
    streams = RandomStreams(seed)
    net = Network(sim, paper_latency_table(), streams, jitter_sigma=0.02)
    registry = FunctionRegistry()
    registry.register(FunctionSpec("fig1.motivation", MOTIVATION_SRC, 100.0))
    store = KVStore()
    store.put("data", "k:0", {"payload": "x"})
    baseline = PrimaryBaseline(sim, net, registry, store, config, streams)
    central: Dict[str, List[float]] = {}
    for region in Region.NEAR_USER:
        client = f"fig1-client-{region}"
        net.register(client, region)
        central[region] = _back_to_back(
            sim, lambda: baseline.invoke_from(client, "fig1.motivation", [0]),
            requests_per_region, f"fig1-central-{region}",
        )

    # --- geo-replicated: app per region, ABD quorum store ------------------
    sim = Simulator()
    streams = RandomStreams(seed)
    net = Network(sim, paper_latency_table(), streams, jitter_sigma=0.02)
    quorum = ReplicatedStore(sim, net, [Region.VA, Region.OH, Region.OR])
    seed_client = quorum.client(Region.VA, "fig1-seed")
    sim.run_process(seed_client.write("app", "motivation", {"payload": "x"}))
    geo: Dict[str, List[float]] = {}
    for region in Region.NEAR_USER:
        app_instance = GeoReplicatedApp(sim, net, region, quorum, config, streams)
        geo[region] = _back_to_back(
            sim, lambda: app_instance.invoke(SimpleWorkload()),
            requests_per_region, f"fig1-geo-{region}",
        )

    # --- local ideal: app + uncoordinated local data per region ------------
    sim = Simulator()
    streams = RandomStreams(seed)
    registry2 = FunctionRegistry()
    registry2.register(FunctionSpec("fig1.motivation", MOTIVATION_SRC, 100.0))
    local: Dict[str, List[float]] = {}
    for region in Region.NEAR_USER:
        store_r = KVStore()
        store_r.put("data", "k:0", {"payload": "x"})
        ideal = LocalIdeal(sim, region, registry2, config, streams, store=store_r)
        local[region] = _back_to_back(
            sim, lambda: ideal.invoke("fig1.motivation", [0]),
            requests_per_region, f"fig1-local-{region}",
        )

    return [
        {
            "region": region,
            "centralized_median_ms": Summary.of(central[region]).median,
            "geo_replicated_median_ms": Summary.of(geo[region]).median,
            "local_ideal_median_ms": Summary.of(local[region]).median,
        }
        for region in Region.NEAR_USER
    ]


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
    """Radical + baseline + local-ideal results for one application."""

    app_name: str
    radical: ExperimentResult
    baseline: ExperimentResult
    ideal: ExperimentResult

    def improvement(self) -> float:
        """Median end-to-end latency improvement of Radical vs baseline."""
        return 1.0 - self.radical.summary().median / self.baseline.summary().median

    def max_improvement(self) -> float:
        return 1.0 - self.ideal.summary().median / self.baseline.summary().median

    def fraction_of_max(self) -> float:
        maximum = self.max_improvement()
        return self.improvement() / maximum if maximum > 0 else float("nan")


def run_eval_trio(app_name: str, cfg: Optional[ExperimentConfig] = None) -> EvalTrio:
    """Run the three deployments for one app under identical workloads."""
    builder = MAIN_APP_BUILDERS[app_name]
    cfg = cfg or ExperimentConfig()
    return EvalTrio(
        app_name=app_name,
        radical=run_radical_experiment(builder(), cfg),
        baseline=run_baseline_experiment(builder(), cfg),
        ideal=run_local_ideal_experiment(builder(), cfg),
    )


def fig4_rows(trio: EvalTrio) -> dict:
    """Figure 4: per-app median+p99 for both deployments plus the red line,
    improvement percentages, and the validation success rate (§5.3)."""
    r, b, i = trio.radical.summary(), trio.baseline.summary(), trio.ideal.summary()
    return {
        "app": trio.app_name,
        "radical_median_ms": r.median,
        "radical_p99_ms": r.p99,
        "baseline_median_ms": b.median,
        "baseline_p99_ms": b.p99,
        "ideal_median_ms": i.median,
        "improvement_pct": trio.improvement() * 100,
        "fraction_of_max_pct": trio.fraction_of_max() * 100,
        "validation_success_rate": trio.radical.validation_success_rate(),
    }


def fig5_rows(trio: EvalTrio) -> List[dict]:
    """Figure 5: per-region median+p99 for one application."""
    rows = []
    for region in Region.NEAR_USER:
        r = trio.radical.region_summary(region)
        b = trio.baseline.region_summary(region)
        i = trio.ideal.region_summary(region)
        rows.append(
            {
                "app": trio.app_name,
                "region": region,
                "lat_nu_ns_ms": PAPER_RTT_TO_PRIMARY[region],
                "radical_median_ms": r.median,
                "radical_p99_ms": r.p99,
                "baseline_median_ms": b.median,
                "baseline_p99_ms": b.p99,
                "ideal_median_ms": i.median,
            }
        )
    return rows


def fig6_rows(trio: EvalTrio) -> List[dict]:
    """Figure 6: per-function median+p99 for one application."""
    builder = MAIN_APP_BUILDERS[trio.app_name]
    rows = []
    for fn in builder().functions:
        fid = fn.function_id
        if not trio.radical.metrics.has(f"e2e.fn.{fid}"):
            continue  # low-weight function that drew no requests
        r = trio.radical.function_summary(fid)
        b = trio.baseline.function_summary(fid)
        rows.append(
            {
                "function": fid,
                "service_time_ms": fn.spec.service_time_ms,
                "radical_median_ms": r.median,
                "radical_p99_ms": r.p99,
                "baseline_median_ms": b.median,
                "baseline_p99_ms": b.p99,
                "samples": r.count,
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
    cfg = RadicalConfig()
    model_rows = [
        {
            "locks": L,
            "added_latency_model_ms": cfg.replicated_idem_ms + 2.3 * L,
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
        "idempotency_key_ms": cfg.replicated_idem_ms,
        "model": model_rows,
        "measured": measured_rows,
    }


def _micro_lvi_latency(
    lock_count: int, replicated: bool, seed: int, batch_locks: bool = False
) -> float:
    """Median e2e latency of an L-key write with a ~0.5 ms execution (so
    the LVI request is never hidden and server costs are visible)."""
    from ..topology import Deployment, TopologySpec

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

def ablation_overlap(requests: int, seed: int, app_name: str = "social") -> dict:
    """Speculation overlap on vs off: without overlap the LVI round trip
    serializes before execution — most of Radical's win disappears."""
    on = run_radical_experiment(
        MAIN_APP_BUILDERS[app_name](),
        ExperimentConfig(requests=requests, seed=seed),
    )
    off = run_radical_experiment(
        MAIN_APP_BUILDERS[app_name](),
        ExperimentConfig(requests=requests, seed=seed, radical=RadicalConfig(speculate=False)),
    )
    return {
        "app": app_name,
        "overlap_median_ms": on.summary().median,
        "no_overlap_median_ms": off.summary().median,
        "penalty_pct": (off.summary().median / on.summary().median - 1.0) * 100,
    }


def ablation_two_rtt(requests: int, seed: int, app_name: str = "social") -> dict:
    """Single LVI request vs validate-then-commit (a second synchronous
    round trip before responding on the write path)."""
    one = run_radical_experiment(
        MAIN_APP_BUILDERS[app_name](),
        ExperimentConfig(requests=requests, seed=seed),
    )
    two = run_radical_experiment(
        MAIN_APP_BUILDERS[app_name](),
        ExperimentConfig(requests=requests, seed=seed, radical=RadicalConfig(single_request=False)),
    )
    # Writes are rare in the mixes, so compare the write functions directly.
    write_fns = {
        "social": "social.post",
        "hotel": "hotel.book",
        "forum": "forum.post",
    }
    fid = write_fns[app_name]
    row = {"app": app_name, "write_function": fid}
    if one.metrics.has(f"e2e.fn.{fid}") and two.metrics.has(f"e2e.fn.{fid}"):
        row["single_request_median_ms"] = one.function_summary(fid).median
        row["two_rtt_median_ms"] = two.function_summary(fid).median
    row["overall_single_ms"] = one.summary().median
    row["overall_two_rtt_ms"] = two.summary().median
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
    from ..apps.base import App, AppFunction, WorkloadContext
    from ..core import FunctionSpec

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


def sweep_skew(zipf_values: Sequence[float], requests: int, seed: int) -> List[dict]:
    """Validation success and tail latency vs workload skew on the counter
    microbenchmark (zipf-selected keys, 20% writes): the §5.3/§3.6 axis,
    isolated.  The paper's apps run at zipf 0.99; here the whole curve."""
    rows = []
    for s in zipf_values:
        app = _counter_app(zipf_s=s)
        result = run_radical_experiment(app, ExperimentConfig(requests=requests, seed=seed))
        rows.append(
            {
                "zipf_s": s,
                "validation_success": result.validation_success_rate(),
                "median_ms": result.summary().median,
                "p99_ms": result.summary().p99,
            }
        )
    return rows


def sweep_concurrency(clients: Sequence[int], requests: int, seed: int) -> List[dict]:
    """Latency vs client concurrency on the skewed forum workload: more
    concurrent clients means more lock queueing on the hot front-page key
    and more cross-region invalidation (§3.6's contention discussion)."""
    rows = []
    for n in clients:
        cfg = ExperimentConfig(requests=requests, seed=seed, clients_per_region=n)
        result = run_radical_experiment(forum_app(), cfg)
        rows.append(
            {
                "clients_per_region": n,
                "validation_success": result.validation_success_rate(),
                "median_ms": result.summary().median,
                "p99_ms": result.summary().p99,
            }
        )
    return rows


def sweep_offered_load(rates_rps: Sequence[float], duration_ms: float, seed: int) -> List[dict]:
    """Latency vs offered load with open-loop (Poisson) clients on the
    forum workload.  §5.3 states Radical's throughput matches the
    baseline's because the LVI server adds no bottleneck; what *does*
    queue under load is the hot front-page write lock — visible here as
    p99 growth while the median stays flat."""
    from ..topology import Deployment, TopologySpec

    rows = []
    for rate in rates_rps:
        app = forum_app()
        dep = Deployment.build(
            TopologySpec(
                regions=Region.NEAR_USER, seed=seed, config=RadicalConfig(),
                network_jitter_sigma=0.02,
            ),
            app=app,
        )
        sim, metrics = dep.sim, dep.metrics
        # Failures are bugs here, not shed load: nothing is tolerated.
        drive_open_loop(dep, app, Region.NEAR_USER, "open", rate, duration_ms,
                        tolerate_unavailable=False)
        sim.run(until=sim.now + 10_000.0)
        summary = metrics.summary("e2e")
        rows.append(
            {
                "rate_rps_per_region": rate,
                "requests": summary.count,
                "median_ms": summary.median,
                "p99_ms": summary.p99,
                "validation_success": metrics.counter("validation.success")
                / max(1, metrics.counter("validation.success") + metrics.counter("validation.failure")),
                # Aggregated across shards (one server on this topology).
                "lock_wait_total_ms": sum(s.locks.total_wait_ms for s in dep.servers),
                "lock_wait_max_ms": max(s.locks.max_wait_ms for s in dep.servers),
            }
        )
    return rows


def ablation_cache_bootstrap(requests: int, seed: int) -> dict:
    """Cold vs warm caches: the §3.2 gradual-bootstrap latency penalty."""
    warm = run_radical_experiment(
        social_media_app(), ExperimentConfig(requests=requests, seed=seed, warm_caches=True)
    )
    cold = run_radical_experiment(
        social_media_app(), ExperimentConfig(requests=requests, seed=seed, warm_caches=False)
    )
    return {
        "warm_median_ms": warm.summary().median,
        "cold_median_ms": cold.summary().median,
        "warm_validation_success": warm.validation_success_rate(),
        "cold_validation_success": cold.validation_success_rate(),
    }
