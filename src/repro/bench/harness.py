"""Experiment harness: build deployments, drive workloads, collect results.

Three deployment builders mirror the paper's three systems (§5.3):

* :func:`run_radical_experiment` — Radical: runtimes + caches in each of
  the five regions, one LVI server + primary store in Virginia.
* :func:`run_baseline_experiment` — the primary-datacenter baseline.
* :func:`run_local_ideal_experiment` — the inconsistent lower bound (the
  red lines): per-region apps on per-region stores.

Each returns an :class:`ExperimentResult` with the latency distributions
(overall / per region / per function), protocol counters (validation
success rate, paths taken), and optionally the full consistency history.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from ..apps import App
from ..baselines import LocalIdeal, PrimaryBaseline
from ..consistency import HistoryRecorder
from ..core import FunctionRegistry, RadicalConfig
from ..faults import FaultPlan
from ..mesh import MeshSpec
from ..obs import Breakdown, TraceCollector, all_breakdowns
from ..sim import (
    Metrics,
    Network,
    RandomStreams,
    Region,
    Simulator,
    Summary,
    paper_latency_table,
)
from ..storage import KVStore
from ..topology import Deployment, ShardMap, TopologySpec
from ..workloads import ClosedLoopClient, OpenLoopClient, run_clients, run_open_loop

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "drive_open_loop",
    "run_radical_experiment",
    "run_baseline_experiment",
    "run_local_ideal_experiment",
]


@dataclass
class ExperimentConfig:
    """Knobs shared by every experiment in the reproduction."""

    requests: int = 2000                  # total, split across regions/clients
    regions: tuple = Region.NEAR_USER     # the five deployment locations
    clients_per_region: int = 2
    seed: int = 42
    warm_caches: bool = True              # pre-populate near-user caches
    record_history: bool = False          # collect TxnRecords (tests)
    network_jitter_sigma: float = 0.02
    # Structured tracing (repro.obs): spans for every invocation phase,
    # network hop, and server stage.  Off by default — the no-op collector
    # allocates nothing; on or off, identical seeds give identical results.
    trace: bool = False
    # Near-storage shard count (1 = the paper's single LVI server; the
    # seed topology, byte for byte) and optional explicit placement.
    shards: int = 1
    shard_map: Optional[ShardMap] = None
    # PoP cache mesh (repro.mesh): None keeps the seed's isolated caches.
    mesh: Optional[MeshSpec] = None
    # Armed through the fault scheduler right after construction.
    fault_plan: Optional[FaultPlan] = None
    radical: RadicalConfig = field(default_factory=RadicalConfig)
    # Routing layer (docs/ROUTING.md).  The defaults are the seed topology:
    # the paper RTT matrix, a PoP in every client region, clients on their
    # home PoP.  ``rtt`` takes any resolve_rtt_dataset reference.
    rtt: Optional[object] = None
    pop_regions: Optional[tuple] = None
    primary_region: str = Region.VA
    assignment: str = "home-region"
    tiered_threshold_ms: float = 100.0

    def per_client_requests(self) -> int:
        per_region = max(1, self.requests // len(self.regions))
        return max(1, per_region // self.clients_per_region)

    def topology(self) -> TopologySpec:
        return TopologySpec(
            regions=self.regions,
            shards=self.shards,
            seed=self.seed,
            config=self.radical,
            network_jitter_sigma=self.network_jitter_sigma,
            trace=self.trace,
            warm_caches=self.warm_caches,
            persistent_caches=True,
            record_history=self.record_history,
            shard_map=self.shard_map,
            mesh=self.mesh,
            fault_plan=self.fault_plan,
            rtt=self.rtt,
            pop_regions=self.pop_regions,
            primary_region=self.primary_region,
            assignment=self.assignment,
            tiered_threshold_ms=self.tiered_threshold_ms,
        )


@dataclass
class ExperimentResult:
    """Everything an experiment produced."""

    metrics: Metrics
    history: Optional[HistoryRecorder]
    store: KVStore
    virtual_time_ms: float
    #: The trace collector, when the experiment ran with ``cfg.trace``.
    trace: Optional[TraceCollector] = None
    #: The full topology, for shard-aware inspection (``store`` above is
    #: shard 0's — the whole primary on the default one-shard topology).
    deployment: Optional[Deployment] = None
    #: Kernel events dispatched over the run (scheduler throughput metric;
    #: 0 for runners that predate the counter).
    events_dispatched: int = 0

    def breakdowns(self) -> List[Breakdown]:
        """Per-invocation latency decompositions (requires ``cfg.trace``)."""
        if self.trace is None:
            raise ValueError("experiment ran without tracing (set ExperimentConfig.trace)")
        return all_breakdowns(self.trace.spans)

    def summary(self, label: str = "e2e") -> Summary:
        return self.metrics.summary(label)

    def region_summary(self, region: str) -> Summary:
        return self.metrics.summary(f"e2e.region.{region}")

    def function_summary(self, function_id: str) -> Summary:
        return self.metrics.summary(f"e2e.fn.{function_id}")

    def validation_success_rate(self) -> Optional[float]:
        ok = self.metrics.counter("validation.success")
        bad = self.metrics.counter("validation.failure")
        if ok + bad == 0:
            return None
        return ok / (ok + bad)


def run_radical_experiment(app: App, cfg: ExperimentConfig) -> ExperimentResult:
    """Deploy Radical across the configured regions and drive the workload.

    Construction is delegated to :class:`repro.topology.Deployment` — the
    shared builder for experiments, chaos, and tests; this function only
    adds the closed-loop workload on top.
    """
    dep = Deployment.build(cfg.topology(), app=app)
    clients: List[ClosedLoopClient] = []
    for region in cfg.regions:
        # Routing-aware: the assignment policy picks the serving PoP and
        # the client<->PoP RTT (home-region keeps the seed's 1 ms hop).
        runtime = dep.runtime_for_client(region)
        pop_rtt = dep.client_pop_rtt_ms(region)
        for i in range(cfg.clients_per_region):
            clients.append(
                ClosedLoopClient(
                    sim=dep.sim,
                    app=app,
                    region=region,
                    invoke=runtime.invoke,
                    metrics=dep.metrics,
                    rng=dep.streams.fork(f"client.{region}.{i}").stream("workload"),
                    requests=cfg.per_client_requests(),
                    client_app_rtt_ms=(
                        pop_rtt if pop_rtt is not None
                        else cfg.radical.client_app_rtt_ms
                    ),
                    history=dep.history,
                )
            )
    run_clients(dep.sim, clients)
    return ExperimentResult(
        metrics=dep.metrics, history=dep.history, store=dep.store,
        virtual_time_ms=dep.sim.now, trace=dep.trace, deployment=dep,
        events_dispatched=getattr(dep.sim, "events_dispatched", 0),
    )


def run_baseline_experiment(app: App, cfg: ExperimentConfig) -> ExperimentResult:
    """The primary-datacenter baseline under the identical workload.

    ``cfg.trace`` is ignored here: the baseline's invocation path is not
    phase-instrumented (it has no speculation phases to decompose), and a
    partially-traced run would violate the phases-sum-to-e2e invariant.
    """
    sim = Simulator()
    streams = RandomStreams(cfg.seed)
    net = Network(sim, paper_latency_table(), streams, jitter_sigma=cfg.network_jitter_sigma)
    metrics = Metrics()
    history = HistoryRecorder() if cfg.record_history else None

    registry = FunctionRegistry()
    registry.register_all(app.specs())
    store = KVStore()
    app.seed(store, streams, app.context)
    baseline = PrimaryBaseline(sim, net, registry, store, cfg.radical, streams, metrics)

    clients: List[ClosedLoopClient] = []
    for region in cfg.regions:
        for i in range(cfg.clients_per_region):
            if region == baseline.region:
                # Co-located clients skip the WAN entirely.
                invoke = baseline.invoke_local
            else:
                endpoint = f"client-{region}-{i}"
                net.register(endpoint, region)

                def invoke(function_id, args, _ep=endpoint):
                    return baseline.invoke_from(_ep, function_id, args)

            clients.append(
                ClosedLoopClient(
                    sim=sim,
                    app=app,
                    region=region,
                    invoke=invoke,
                    metrics=metrics,
                    rng=streams.fork(f"client.{region}.{i}").stream("workload"),
                    requests=cfg.per_client_requests(),
                    # The WAN hop to Virginia is inside invoke_from; the
                    # local client hop is negligible for remote clients.
                    client_app_rtt_ms=0.0,
                    history=history,
                )
            )
    run_clients(sim, clients)
    return ExperimentResult(metrics=metrics, history=history, store=store, virtual_time_ms=sim.now)


def run_local_ideal_experiment(app: App, cfg: ExperimentConfig) -> ExperimentResult:
    """The inconsistent local lower bound: no coordination at all."""
    sim = Simulator()
    streams = RandomStreams(cfg.seed)
    metrics = Metrics()

    registry = FunctionRegistry()
    registry.register_all(app.specs())

    clients: List[ClosedLoopClient] = []
    shared_store_for_result = KVStore()
    app.seed(shared_store_for_result, streams, app.context)
    for region in cfg.regions:
        store = KVStore(name=f"local-{region}")
        app.seed(store, streams, app.context)
        local = LocalIdeal(sim, region, registry, cfg.radical, streams, metrics, store=store)
        for i in range(cfg.clients_per_region):
            clients.append(
                ClosedLoopClient(
                    sim=sim,
                    app=app,
                    region=region,
                    invoke=local.invoke,
                    metrics=metrics,
                    rng=streams.fork(f"client.{region}.{i}").stream("workload"),
                    requests=cfg.per_client_requests(),
                    client_app_rtt_ms=cfg.radical.client_app_rtt_ms,
                    history=None,
                )
            )
    run_clients(sim, clients)
    return ExperimentResult(
        metrics=metrics, history=None, store=shared_store_for_result, virtual_time_ms=sim.now
    )


def drive_open_loop(
    dep: Deployment,
    app: App,
    regions: Sequence[str],
    name: str,
    rate_rps: float,
    duration_ms: float,
    tolerate_unavailable: bool = True,
) -> float:
    """Offer open-loop Poisson load (``rate_rps`` from each of ``regions``
    for ``duration_ms``) to a built deployment and run to the last
    completion; returns the makespan (see :func:`run_open_loop`).  ``name``
    names the clients' RNG streams (``<name>.<region>``) and processes."""
    clients = [
        OpenLoopClient(
            sim=dep.sim,
            app=app,
            region=region,
            invoke=dep.runtimes[region].invoke,
            metrics=dep.metrics,
            rng=dep.streams.fork(f"{name}.{region}").stream("workload"),
            rate_rps=rate_rps,
            duration_ms=duration_ms,
            tolerate_unavailable=tolerate_unavailable,
        )
        for region in regions
    ]
    return run_open_loop(dep.sim, clients, name=name)
