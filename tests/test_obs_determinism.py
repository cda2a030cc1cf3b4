"""Tracing must not perturb determinism (the tentpole's hard contract).

Two regressions are pinned here:

* the same seed run twice *with* tracing produces byte-identical span
  streams (hashed via the canonical JSONL serialization) and identical
  latency summaries;
* the same seed run *without* tracing produces exactly the same
  latency summaries as the traced run — the collector never
  draws randomness, never schedules events, and never changes event
  order.
"""

import pytest

from repro.bench import MAIN_APP_BUILDERS, PAPER_JITTER_SIGMA, drive_closed_loop
from repro.obs import orphan_spans, trace_digest
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
