"""Tracing must not perturb determinism (the tentpole's hard contract).

Two regressions are pinned here:

* the same seed run twice *with* tracing produces byte-identical span
  streams (hashed via the canonical JSONL serialization) and identical
  latency summaries;
* the same seed run *without* tracing produces exactly the same
  latency summaries as the traced run — the collector never
  draws randomness, never schedules events, and never changes event
  order.

``TestInPlaceWakeupsTraced`` holds both, plus span balance, on a 5-PoP
mesh, an open-loop deployment and a fault plan that times RPCs out.
"""

import pytest

from repro.bench import MAIN_APP_BUILDERS, PAPER_JITTER_SIGMA, drive_closed_loop, drive_open_loop
from repro.faults import FaultPlan, PartitionWindow
from repro.faults.chaos import chaos_config
from repro.mesh import MeshSpec
from repro.obs import all_breakdowns, assert_balanced, orphan_spans, trace_digest
from repro.sim import Region
from repro.topology import Deployment, TopologySpec

REQUESTS = 200
SEED = 1234


def run(trace, seed=SEED, app="social"):
    spec = TopologySpec(seed=seed, network_jitter_sigma=PAPER_JITTER_SIGMA, trace=trace)
    app = MAIN_APP_BUILDERS[app]()
    return drive_closed_loop(Deployment.build(spec, app=app), app, REQUESTS)


@pytest.fixture(scope="module")
def traced():
    return run(trace=True)


@pytest.fixture(scope="module")
def traced_again():
    return run(trace=True)


@pytest.fixture(scope="module")
def untraced():
    return run(trace=False)


class TestTracedRunsAreReproducible:
    def test_span_streams_byte_identical(self, traced, traced_again):
        assert trace_digest(traced.trace.spans) == trace_digest(traced_again.trace.spans)

    def test_span_counts_match(self, traced, traced_again):
        assert len(traced.trace.spans) == len(traced_again.trace.spans)
        assert orphan_spans(traced.trace.spans) == []

    def test_summaries_identical(self, traced, traced_again):
        assert traced.metrics.summary("e2e") == traced_again.metrics.summary("e2e")
        assert traced.sim.now == traced_again.sim.now

    def test_event_timestamps_identical(self, traced, traced_again):
        firsts = [(s.name, s.start_ms, s.end_ms) for s in traced.trace.spans]
        seconds = [(s.name, s.start_ms, s.end_ms) for s in traced_again.trace.spans]
        assert firsts == seconds


class TestTracingIsObservationallyFree:
    def test_overall_summary_identical(self, traced, untraced):
        assert traced.metrics.summary("e2e") == untraced.metrics.summary("e2e")

    def test_per_region_summaries_identical(self, traced, untraced):
        for region in Region.NEAR_USER:
            label = f"e2e.region.{region}"
            assert traced.metrics.summary(label) == untraced.metrics.summary(label)

    def test_counters_identical(self, traced, untraced):
        assert traced.metrics.counters() == untraced.metrics.counters()

    def test_virtual_time_identical(self, traced, untraced):
        assert traced.sim.now == untraced.sim.now

    def test_raw_samples_identical(self, traced, untraced):
        assert traced.metrics.samples("e2e") == untraced.metrics.samples("e2e")

    def test_untraced_result_has_no_collector(self, untraced):
        assert untraced.trace is None
        assert not untraced.sim.obs.enabled


class TestSeedsDiffer:
    def test_different_seed_changes_the_trace(self, traced):
        other = run(trace=True, seed=SEED + 1)
        assert trace_digest(other.trace.spans) != trace_digest(traced.trace.spans)


# Deployment shapes whose processes resume inside the queue entry that
# completes their wait — the mesh's one gossip tick, an open-loop arrival
# starting its request, an RPC deadline failing its reply — each paired
# with what proves its traced run took that path.


def _mesh_five_pops(trace):
    spec = TopologySpec(
        seed=SEED, network_jitter_sigma=PAPER_JITTER_SIGMA, trace=trace,
        mesh=MeshSpec(gossip_interval_ms=25.0),
    )
    app = MAIN_APP_BUILDERS["forum"]()
    return drive_closed_loop(Deployment.build(spec, app=app), app, 100)


def _gossiped(dep):
    return len(dep.mesh.pops) == 5 and dep.metrics.counter("mesh.gossip_sent") > 0


def _open_loop(trace):
    spec = TopologySpec(seed=SEED, network_jitter_sigma=PAPER_JITTER_SIGMA, trace=trace)
    app = MAIN_APP_BUILDERS["social"]()
    dep = Deployment.build(spec, app=app)
    drive_open_loop(dep, app, "traced", rate_rps=10.0, duration_ms=2_000.0)
    return dep


def _started_open_loop(dep):
    return any(s.attrs.get("open_loop") for s in dep.trace.spans if s.name == "invocation")


def _rpc_timeouts(trace):
    # JP loses the primary for 600 ms: requests caught in it time out and
    # retry, and the third attempt always lands after the heal.
    plan = FaultPlan("jp-cut", (PartitionWindow(Region.JP, Region.VA, 300.0, 900.0),))
    spec = TopologySpec(
        regions=(Region.JP, Region.CA), seed=SEED, config=chaos_config(),
        trace=trace, fault_plan=plan,
    )
    app = MAIN_APP_BUILDERS["social"]()
    return drive_closed_loop(Deployment.build(spec, app=app), app, 40, clients_per_region=2)


def _timed_out(dep):
    return any(
        s.name == "rpc" and s.attrs.get("status") == "timeout" for s in dep.trace.spans
    )


@pytest.fixture(
    scope="module",
    params=[
        (_mesh_five_pops, _gossiped),
        (_open_loop, _started_open_loop),
        (_rpc_timeouts, _timed_out),
    ],
    ids=["mesh-5-pops", "open-loop", "rpc-timeouts"],
)
def shape(request):
    """(traced, untraced, took_the_path) for one deployment shape.  Driving
    it is the no-exception check: a process that died unobserved aborts
    the run."""
    build, took_the_path = request.param
    return build(True), build(False), took_the_path


class TestInPlaceWakeupsTraced:
    def test_the_shape_takes_its_path(self, shape):
        traced, _untraced, took_the_path = shape
        assert took_the_path(traced)

    def test_spans_balance(self, shape):
        traced, _untraced, _ = shape
        spans = traced.trace.spans
        breakdowns = all_breakdowns(spans)
        assert len(breakdowns) == traced.metrics.summary("e2e").count
        assert_balanced(breakdowns)
        # The mesh gossips forever: only a message still in flight when the
        # run stopped may be open.
        for span in orphan_spans(spans):
            assert span.name == "net.hop"
            assert span.start_ms + span.attrs["one_way_ms"] > traced.sim.now

    def test_virtual_outcome_identical(self, shape):
        traced, untraced, _ = shape
        assert traced.metrics.samples("e2e") == untraced.metrics.samples("e2e")
        assert traced.metrics.counters() == untraced.metrics.counters()
        assert traced.sim.now == untraced.sim.now
        assert traced.sim.events_dispatched == untraced.sim.events_dispatched
