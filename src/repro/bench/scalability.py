"""Near-storage scalability: aggregate throughput vs shard count.

The paper's topology pins the whole consistent tier on one LVI server
(§3.3) and argues the server adds no *latency* bottleneck at evaluation
load.  The sharded tier (docs/TOPOLOGY.md) asks the follow-on question:
when the server's CPU *is* the bottleneck, does partitioning the key
space across independent LVI shards scale aggregate throughput — without
touching single-shard latency?

The seed simulator cannot answer that: server handlers cost zero virtual
time, so one shard has infinite capacity.  ``capacity_config`` turns on
the serial processing model (``server_proc_ms`` per message through one
CPU; coalesced batch members after the first pay only
``server_batch_item_ms``) which makes the near-storage tier saturable,
and — with every paper experiment leaving the knob at 0 — changes nothing
anywhere else.

Each sweep point drives open-loop Poisson clients from all five regions
at an offered load past the single-shard capacity and measures *delivered*
throughput: completed requests over the makespan (generation plus backlog
drain).  Overloaded shards stretch the makespan, so throughput converges
to capacity; added shards move the ceiling.  ``tests/test_paper_shapes.py``
asserts the headline on the checked-in artifact (>= 2.5x aggregate
throughput at 4 shards on the uniform counter workload with batching
enabled) and ``tests/test_topology.py`` that a single shard's latency
profile is identical to a hand-rolled seed-style stack.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Sequence

from ..apps import App
from ..core import RadicalConfig
from ..topology import Deployment, TopologySpec
from .experiments import _counter_app
from .harness import drive_open_loop, validation_success_rate

__all__ = [
    "capacity_config",
    "scalability_config",
    "uniform_counter_app",
    "run_scalability_point",
    "sweep_scalability",
]

def capacity_config(server_proc_ms: float = 6.0, **overrides: Any) -> RadicalConfig:
    """The capacity model the scalability and read-scaling sweeps share.

    The serial processing model makes shards saturable; the generous RPC
    timeout and disabled deadline let requests sit in an overloaded
    shard's queue instead of timing out (the sweeps measure capacity, not
    availability — chaos owns the failure axis), and the long followup
    timer keeps intent re-execution out of the capacity signal.
    """
    return RadicalConfig(
        service_jitter_sigma=0.0,
        server_proc_ms=server_proc_ms,
        rpc_timeout_ms=300_000.0,
        retry_max_attempts=1,
        invocation_deadline_ms=0.0,
        followup_timeout_ms=120_000.0,
        **overrides,
    )


def scalability_config(batch_window_ms: float = 0.0) -> RadicalConfig:
    """The knobs every scalability point runs under: the capacity model
    plus batching (coalesced batch members after the first pay only
    ``server_batch_item_ms``)."""
    return capacity_config(
        server_batch_item_ms=2.0,
        lvi_batch_window_ms=batch_window_ms,
        # Hot cross-shard keys churn fast under deliberate overload; give
        # restarts more room before a request is shed as unavailable.
        cross_shard_max_restarts=8,
    )


def uniform_counter_app(keys: int = 256) -> App:
    """The uniform counter workload (zipf s=0): 50/50 read/bump over
    ``keys`` independent counters, so load spreads evenly across shards
    and contention stays negligible — the cleanest probe of raw capacity."""
    return _counter_app(zipf_s=0.0, keys=keys, write_pct=50.0)


def run_scalability_point(
    app: App,
    shards: int,
    rate_rps_per_region: float,
    duration_ms: float,
    seed: int,
    batch_window_ms: float,
) -> Dict[str, object]:
    """One sweep point: open-loop Poisson load against a ``shards``-wide
    deployment; returns delivered throughput and the latency profile."""
    spec = TopologySpec(
        shards=shards, seed=seed, config=scalability_config(batch_window_ms=batch_window_ms)
    )
    dep = Deployment.build(spec, app=app)
    metrics = dep.metrics
    return {
        **drive_open_loop(dep, app, "scale", rate_rps_per_region, duration_ms),
        "workload": app.name,
        "shards": shards,
        "rate_rps_per_region": rate_rps_per_region,
        "offered_rps": rate_rps_per_region * len(spec.regions),
        "validation_success": validation_success_rate(metrics),
        "batch_window_ms": batch_window_ms,
        "batch_flushes": metrics.counter("batch.flush"),
        "batch_coalesced": metrics.counter("batch.coalesced"),
        "xshard_commits": metrics.counter("xshard.commit"),
    }


def sweep_scalability(
    shard_counts: Sequence[int],
    rate_rps_per_region: float,
    duration_ms: float,
    batch_window_ms: float,
    seed: int,
    workloads: Dict[str, "Callable[[], App]"],
) -> Dict[str, object]:
    """The full sweep: shards x workloads, batching on, plus an unbatched
    counter series to separate the sharding win from the batching win —
    the ``scalability`` scenario's payload (see EXPERIMENTS.md).

    ``workloads`` maps series names to App *factories* — each point gets a
    fresh App so per-app sampler state never leaks across deployments.
    """
    series = [(name, make_app, batch_window_ms) for name, make_app in workloads.items()]
    counter_factory = workloads.get("counter", next(iter(workloads.values())))
    series.append(("counter-unbatched", counter_factory, 0.0))
    points: List[Dict[str, object]] = []
    for name, make_app, window_ms in series:
        for shards in shard_counts:
            point = run_scalability_point(
                make_app(), shards, rate_rps_per_region, duration_ms, seed, window_ms
            )
            point["series"] = name
            points.append(point)
    return {
        "rate_rps_per_region": rate_rps_per_region,
        "duration_ms": duration_ms,
        "batch_window_ms": batch_window_ms,
        "server_proc_ms": scalability_config().server_proc_ms,
        "server_batch_item_ms": scalability_config().server_batch_item_ms,
        "points": points,
    }
