"""Overload capacity sweep: goodput plateau vs metastable collapse.

The chaos harness (``repro.faults.chaos``) proves overload *safety* —
shedding aborts cleanly and the system returns to its pre-surge latency
once a surge ends.  This sweep measures the *capacity* argument for the
same machinery: drive one saturable LVI server (the serial processing
model from ``repro.bench.scalability``) at offered loads past its
capacity, once with the overload controls on and once with them off, and
compare delivered goodput.

With the controls off the system is metastable above capacity: the
admission queue grows without bound, every queued request blows its
400 ms RPC timeout, and the client's retries (3 attempts) multiply the
offered message load by up to 3x — the server burns its whole budget on
requests whose callers already gave up, and goodput collapses well below
capacity.  With admission control + bounded queues + AIMD client
backpressure, excess arrivals are shed in O(1) before touching any
state, so goodput plateaus at (roughly) the server's capacity no matter
how far past it the offered rate climbs.

``radical-repro run overload`` renders the two series and gates on
shed-on goodput beating shed-off at the top rate (``--smoke`` is the
CI-sized run of the same gate).  Results land in ``results/overload.json``
(byte-reproducible for a fixed seed — the simulator is deterministic and
the JSON is written sorted).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..core import RadicalConfig
from ..sim import Region
from ..topology import Deployment, TopologySpec
from .harness import drive_open_loop
from .scalability import uniform_counter_app

__all__ = [
    "overload_config",
    "run_overload_point",
    "sweep_overload",
]

def overload_config(shedding: bool = True, server_proc_ms: float = 8.0) -> RadicalConfig:
    """The knobs every overload point runs under.

    Unlike the scalability sweep — which *removes* timeouts so queueing
    shows up as latency — this sweep keeps production-shaped timeouts
    (400 ms RPC, 3 attempts, 4 s invocation deadline) because retry
    amplification under queueing is exactly the metastable feedback loop
    being measured.  ``shedding`` toggles the whole overload-control
    stack at once: server-side admission (depth + sojourn bounds) and the
    client-side AIMD in-flight limiter.
    """
    return RadicalConfig(
        service_jitter_sigma=0.0,
        server_proc_ms=server_proc_ms,
        rpc_timeout_ms=400.0,
        retry_max_attempts=3,
        invocation_deadline_ms=4_000.0,
        admission_queue_depth=12 if shedding else 0,
        admission_sojourn_ms=100.0 if shedding else 0.0,
        limiter_max_inflight=32 if shedding else 0,
    )


def run_overload_point(
    rate_rps: float, shedding: bool, duration_ms: float, seed: int
) -> Dict[str, object]:
    """One sweep point: open-loop Poisson arrivals from one region (JP)
    against a single-shard deployment; returns delivered goodput (acked
    requests over the makespan, which includes the backlog drain) plus
    the shed / failure accounting."""
    app = uniform_counter_app(keys=64)
    spec = TopologySpec(regions=(Region.JP,), seed=seed, config=overload_config(shedding))
    dep = Deployment.build(spec, app=app)
    # Goodput is the shared row's delivered throughput under this sweep's
    # names: acked requests over the makespan.
    point = drive_open_loop(dep, app, "overload", rate_rps, duration_ms)
    acked, goodput_rps = point.pop("completed"), point.pop("throughput_rps")
    metrics = dep.metrics
    return {
        **point,
        "rate_rps": rate_rps,
        "shedding": shedding,
        "acked": acked,
        "offered": acked + point["unavailable"],
        "goodput_rps": goodput_rps,
        "shed": metrics.counter("admission.shed"),
        "rpc_timeouts": metrics.counter("rpc.timeout"),
        "rpc_exhausted": metrics.counter("rpc.exhausted"),
        "limiter_shed": metrics.counter("limiter.shed"),
        "max_admission_queue": max(
            (s.max_admission_queue for s in dep.servers), default=0
        ),
    }


def sweep_overload(
    rates: Sequence[float], duration_ms: float, seed: int
) -> Dict[str, object]:
    """The full sweep: every rate with shedding on and off — the
    ``overload`` scenario's payload (see EXPERIMENTS.md).  Single-server
    capacity with the default knobs sits near 80 rps (8 ms/message, ~1.5
    messages/request on the 50/50 counter mix); ``configs/overload.json``
    runs the tail of the sweep ~2x past it."""
    points: List[Dict[str, object]] = []
    for shedding in (True, False):
        for rate in rates:
            point = run_overload_point(rate, shedding, duration_ms, seed)
            point["series"] = "shed-on" if shedding else "shed-off"
            points.append(point)
    cfg = overload_config(shedding=True)
    return {
        "duration_ms": duration_ms,
        "seed": seed,
        "server_proc_ms": cfg.server_proc_ms,
        "admission_queue_depth": cfg.admission_queue_depth,
        "admission_sojourn_ms": cfg.admission_sojourn_ms,
        "limiter_max_inflight": cfg.limiter_max_inflight,
        "rpc_timeout_ms": cfg.rpc_timeout_ms,
        "retry_max_attempts": cfg.retry_max_attempts,
        "points": points,
    }
