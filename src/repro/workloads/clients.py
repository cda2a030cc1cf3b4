"""Closed- and open-loop workload clients (paper §5.2).

The paper drives each configuration with logical client processes issuing
requests back-to-back; latencies are medians/p99s over the full run.  A
:class:`ClosedLoopClient` draws (function, args) pairs from its app's
workload mix with a private deterministic RNG, invokes through whatever
deployment it is bound to, and records per-request samples.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Generator, List, Optional

from ..apps import App
from ..consistency import HistoryRecorder
from ..errors import UnavailableError
from ..sim import Metrics, Simulator

__all__ = ["Invoker", "ClosedLoopClient", "OpenLoopClient", "run_clients", "run_open_loop"]

#: A deployment binding: invoke(function_id, args) -> generator -> outcome.
#: Outcomes must expose .result/.latency_ms/.path/.read_versions/
#: .write_versions (InvocationOutcome and BaselineOutcome both do); .path
#: tags the per-(region, path) latency histograms and trace root spans.
Invoker = Callable[[str, List[Any]], Generator]


@dataclass
class ClosedLoopClient:
    """One logical client bound to a region's deployment."""

    sim: Simulator
    app: App
    region: str
    invoke: Invoker
    metrics: Metrics
    rng: random.Random
    requests: int
    client_app_rtt_ms: float = 1.0
    label_prefix: str = "e2e"
    history: Optional[HistoryRecorder] = None
    think_time_ms: float = 0.0

    def run(self) -> Generator:
        """The client process: issue ``requests`` requests sequentially.

        With tracing enabled each request opens a fresh trace whose root
        ``invocation`` span covers exactly the recorded e2e interval; the
        two client-hop halves become ``phase.client_rtt`` spans so that
        every virtual millisecond of e2e is attributed to some phase.
        """
        obs = self.sim.obs
        for _i in range(self.requests):
            function_id, args = self.app.generate_request(self.rng)
            start = self.sim.now
            root = None
            if obs.enabled:
                root = obs.start(
                    "invocation", kind="invocation", new_trace=True,
                    function=function_id, region=self.region,
                )
                obs.activate(root.context)
            record = None if self.history is None else self.history.begin(function_id, start)
            # Client -> co-located deployment hop.
            yield self.sim.timeout(self.client_app_rtt_ms / 2.0)
            if root is not None:
                obs.phase("phase.client_rtt", start_ms=start)
            outcome = yield from self.invoke(function_id, args)
            reply_hop_start = self.sim.now
            yield self.sim.timeout(self.client_app_rtt_ms / 2.0)
            latency = self.sim.now - start
            if root is not None:
                obs.phase("phase.client_rtt", start_ms=reply_hop_start)
                root.finish(self.sim.now, path=outcome.path)
                obs.activate(None)
            self.metrics.record(self.label_prefix, latency)
            self.metrics.record(f"{self.label_prefix}.region.{self.region}", latency)
            self.metrics.record(f"{self.label_prefix}.fn.{function_id}", latency)
            self.metrics.record_tagged(
                self.label_prefix, latency,
                region=self.region, path=outcome.path, function=function_id,
            )
            self.metrics.incr("requests.total")
            if record is not None:
                self.history.finish(
                    record,
                    self.sim.now,
                    reads=outcome.read_versions,
                    writes=outcome.write_versions,
                )
            if self.think_time_ms > 0:
                yield self.sim.timeout(self.rng.expovariate(1.0 / self.think_time_ms))
        return self.metrics


@dataclass
class OpenLoopClient:
    """Poisson arrivals at a fixed offered rate, independent of responses.

    Unlike the closed-loop client, requests are spawned without waiting
    for the previous one — queueing (lock waits, invalidation storms)
    shows up as latency growth instead of throughput collapse.  Used by
    the offered-load sweep to probe §5.3's "the only bottleneck Radical
    introduces is the singleton LVI server" claim.
    """

    sim: Simulator
    app: App
    region: str
    invoke: Invoker
    metrics: Metrics
    rng: random.Random
    rate_rps: float          # offered load, requests per (virtual) second
    duration_ms: float       # how long to keep generating
    label_prefix: str = "e2e"
    #: Count a clean ``UnavailableError`` as a shed request instead of
    #: failing the run — what a capacity benchmark wants under deliberate
    #: overload (the latency sweeps keep the default: failures are bugs).
    tolerate_unavailable: bool = False
    #: Idle this long before the first arrival — what makes the client a
    #: *surge*: the chaos harness spawns it at time 0 with the window's
    #: start as the delay, so the Poisson gap stream is identical no
    #: matter when the window opens.
    start_after_ms: float = 0.0

    def run(self) -> Generator:
        """The generator process: emits requests until the duration ends,
        then waits for all in-flight requests to complete."""
        if self.start_after_ms > 0:
            yield self.sim.timeout(self.start_after_ms)
        deadline = self.sim.now + self.duration_ms
        mean_gap_ms = 1000.0 / self.rate_rps
        # In-flight requests are counted, not collected (the generator
        # itself is the count's first unit): a finished request leaves
        # nothing behind, and the drain is one wait on one event.
        in_flight = 1
        drained = self.sim.event(name="open-loop-drained")

        def request(function_id: str, args) -> Generator:
            nonlocal in_flight
            try:
                yield from self._one(function_id, args)
            finally:
                in_flight -= 1
                if in_flight == 0:
                    drained.trigger()

        while self.sim.now < deadline:
            yield self.sim.timeout(self.rng.expovariate(1.0 / mean_gap_ms))
            if self.sim.now >= deadline:
                break
            function_id, args = self.app.generate_request(self.rng)
            in_flight += 1
            # The arrival's timer entry is the request's wake-up; nothing
            # joins it, so its first step runs here.
            self.sim.spawn_in_dispatch(request(function_id, args), name=f"openreq({function_id})")
        in_flight -= 1
        if in_flight:
            yield drained

    def _one(self, function_id: str, args) -> Generator:
        obs = self.sim.obs
        start = self.sim.now
        root = None
        if obs.enabled:
            root = obs.start(
                "invocation", kind="invocation", new_trace=True,
                function=function_id, region=self.region, open_loop=True,
            )
            obs.activate(root.context)
        try:
            outcome = yield from self.invoke(function_id, args)
        except UnavailableError:
            if not self.tolerate_unavailable:
                raise
            if root is not None:
                root.finish(self.sim.now, path="unavailable")
                obs.activate(None)
            self.metrics.incr("requests.unavailable")
            return
        latency = self.sim.now - start
        if root is not None:
            root.finish(self.sim.now, path=outcome.path)
            obs.activate(None)
        self.metrics.record(self.label_prefix, latency)
        self.metrics.record(f"{self.label_prefix}.region.{self.region}", latency)
        self.metrics.record_tagged(
            self.label_prefix, latency,
            region=self.region, path=outcome.path, function=function_id,
        )
        self.metrics.incr("requests.total")


def _run_to_completion(sim: Simulator, procs: list) -> None:
    """Run the world until every client process is done; a client that
    died (e.g. an application function trapped in the VM) re-raises here —
    experiments must fail loudly, not report partial latency
    distributions."""
    sim.run(until_event=sim.all_of([p.done_event for p in procs]))
    # The first failure ends the run with the other clients still going:
    # report the failure itself, not the clients it cut short.
    for proc in procs:
        if proc.done:
            _ = proc.result  # re-raises the client's failure, if any
    for proc in procs:
        if not proc.done:
            raise RuntimeError(f"client {proc.name} did not finish (deadlock?)")


def run_clients(sim: Simulator, clients: List[ClosedLoopClient]) -> None:
    """Spawn every closed-loop client, run the world until all complete,
    then drain followups and timers so the primary reaches quiescence."""
    _run_to_completion(sim, [
        sim.spawn(c.run(), name=f"client-{c.region}-{i}") for i, c in enumerate(clients)
    ])
    sim.run(until=sim.now + 10_000.0)


def run_open_loop(sim: Simulator, clients: List[OpenLoopClient], name: str) -> float:
    """Spawn every open-loop client (process ``<name>-<region>``), run the
    world to the last completion, and return the makespan — generation
    plus backlog drain, the interval delivered throughput is measured
    over.  The caller reads its makespan counters, then drains followups
    itself, so they stay off the books."""
    _run_to_completion(sim, [
        sim.spawn(c.run(), name=f"{name}-{c.region}") for c in clients
    ])
    return sim.now
