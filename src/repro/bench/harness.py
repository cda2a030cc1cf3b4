"""Experiment harness: attach load to a built system, read the result off it.

A :class:`~repro.topology.TopologySpec` is the one description of a
deployment under test, and each of the paper's three systems (§5.3) has
one builder taking it: :meth:`repro.topology.Deployment.build` (Radical),
:meth:`repro.baselines.PrimaryDeployment.build` (the primary-datacenter
baseline) and :meth:`repro.baselines.LocalIdealDeployment.build` (the
inconsistent lower bound, the red lines).  Every built system exposes
``sim``, ``metrics``, ``history``, ``streams``, ``spec`` and
``client(region) -> (invoke, client_rtt_ms)``; the two drive functions
here need nothing else, so the same load lands on whichever system was
built.  Load is the drive call's arguments, not a config object; results
are read off the system's ``metrics`` (``metrics.summary("e2e")``,
``"e2e.region.<r>"``, ``"e2e.fn.<id>"``).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..apps import App
from ..sim import Metrics
from ..workloads import ClosedLoopClient, OpenLoopClient, run_clients, run_open_loop

__all__ = [
    "PAPER_JITTER_SIGMA",
    "drive_closed_loop",
    "drive_open_loop",
    "validation_success_rate",
]

#: Network jitter the paper-figure experiments run at.  ``TopologySpec``
#: defaults to 0.0 (capacity sweeps and chaos compare exact timelines), so
#: every figure states this at the spec it builds.
PAPER_JITTER_SIGMA = 0.02


def drive_closed_loop(
    system: Any, app: App, requests: int = 2000, clients_per_region: int = 2
) -> Any:
    """Split ``requests`` over ``clients_per_region`` back-to-back clients in
    each of the system's regions, run them all to completion plus the
    settle window (see :func:`run_clients`), and return ``system``."""
    regions = system.spec.regions
    per_client = max(1, max(1, requests // len(regions)) // clients_per_region)
    clients = []
    for region in regions:
        for i in range(clients_per_region):
            invoke, client_rtt_ms = system.client(region)
            clients.append(
                ClosedLoopClient(
                    sim=system.sim,
                    app=app,
                    region=region,
                    invoke=invoke,
                    metrics=system.metrics,
                    rng=system.streams.fork(f"client.{region}.{i}").stream("workload"),
                    requests=per_client,
                    client_app_rtt_ms=client_rtt_ms,
                    history=system.history,
                )
            )
    run_clients(system.sim, clients)
    return system


def drive_open_loop(
    system: Any,
    app: App,
    name: str,
    rate_rps: float,
    duration_ms: float,
    tolerate_unavailable: bool = True,
) -> Dict[str, object]:
    """One open-loop point: offer Poisson load (``rate_rps`` from each of
    the system's regions for ``duration_ms``), run to the last completion,
    settle, and return the row every sweep shares.  ``name`` names the
    clients' RNG streams (``<name>.<region>``) and processes.

    Delivered throughput is completions over the *makespan* — generation
    plus backlog drain — so an overloaded system converges to its capacity
    rather than the offered rate, and the work a collapsed run wastes on
    requests whose callers gave up counts against it.  Both are read before
    the settle window, which keeps followups and timers off the books."""
    sim, metrics = system.sim, system.metrics
    clients = [
        OpenLoopClient(
            sim=sim,
            app=app,
            region=region,
            invoke=system.client(region)[0],
            metrics=metrics,
            rng=system.streams.fork(f"{name}.{region}").stream("workload"),
            rate_rps=rate_rps,
            duration_ms=duration_ms,
            tolerate_unavailable=tolerate_unavailable,
        )
        for region in system.spec.regions
    ]
    makespan_ms = run_open_loop(sim, clients, name=name)
    completed = metrics.counter("requests.total")
    unavailable = metrics.counter("requests.unavailable")
    sim.run(until=sim.now + 10_000.0)
    summary = metrics.summary("e2e")
    return {
        "duration_ms": duration_ms,
        "completed": completed,
        "unavailable": unavailable,
        "makespan_ms": round(makespan_ms, 3),
        "throughput_rps": round(completed / makespan_ms * 1000.0, 3),
        "median_ms": summary.median,
        "p99_ms": summary.p99,
    }


def validation_success_rate(metrics: Metrics) -> Optional[float]:
    """Share of LVI validations that succeeded (``None``: none ran)."""
    ok = metrics.counter("validation.success")
    total = ok + metrics.counter("validation.failure")
    return ok / total if total else None
