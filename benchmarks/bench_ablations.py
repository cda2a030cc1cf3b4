"""Ablations of Radical's design choices (DESIGN.md §5).

Not figures from the paper, but quantifications of the design arguments
the paper makes in prose.  Each ablation is a scenario
(configs/ablation_*.json) run through the driver; this bench asserts:

* **overlap** (§3.2): running the LVI request concurrently with the
  speculative execution is where the latency win comes from — serializing
  them erases most of it;
* **single request** (§1, §3.2): a second synchronous commit round trip
  (validate-then-commit) puts the WAN RTT back on the write path;
* **read/write locks** (§3.6): exclusive-only locks serialize the
  read-heavy skewed forum workload on its hot front-page key;
* **cache bootstrap** (§3.2): cold caches fail validation until the
  working set is pulled in, then converge to warm behaviour.
"""

from conftest import bench_requests

from repro.scenarios import run_scenario


def test_ablation_overlap(benchmark):
    row = benchmark.pedantic(
        lambda: run_scenario("ablation_overlap",
                             overrides={"requests": bench_requests(800)}),
        rounds=1, iterations=1,
    )
    # Serializing the LVI request is dramatically slower.
    assert row["no_overlap_median_ms"] > row["overlap_median_ms"] + 40


def test_ablation_two_rtt(benchmark):
    row = benchmark.pedantic(
        lambda: run_scenario("ablation_two_rtt",
                             overrides={"requests": bench_requests(800)}),
        rounds=1, iterations=1,
    )
    if "single_request_median_ms" in row:
        # The write path pays (roughly) one extra WAN round trip.
        assert row["two_rtt_median_ms"] > row["single_request_median_ms"] + 30


def test_ablation_lock_modes(benchmark):
    row = benchmark.pedantic(
        lambda: run_scenario("ablation_lock_modes",
                             overrides={"requests": bench_requests(800)}),
        rounds=1, iterations=1,
    )
    # Exclusive locks can only hurt the tail (the hot front-page key
    # serializes) — but a read's lock is now held for its 2 ms validation
    # fetch alone, so at 2 clients per region two reads never meet on a key
    # and the runs coincide (EXPERIMENTS.md, "Known deviations").
    assert row["exclusive_p99_ms"] >= row["rw_locks_p99_ms"]


def test_ablation_cache_bootstrap(benchmark):
    row = benchmark.pedantic(
        lambda: run_scenario("ablation_cache_bootstrap",
                             overrides={"requests": bench_requests(600)}),
        rounds=1, iterations=1,
    )
    # Cold caches fail validation more and are slower overall.
    assert row["cold_validation_success"] < row["warm_validation_success"]
    assert row["cold_median_ms"] >= row["warm_median_ms"]
