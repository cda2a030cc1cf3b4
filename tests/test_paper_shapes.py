"""The paper's shape targets, asserted on the checked-in artifacts.

Absolute numbers come from a simulated substrate; what this reproduction
claims is the *shapes* — who wins, by what factor, where the crossovers
fall (EXPERIMENTS.md).  Each test reads ``results/<artifact>.json``: CI's
``artifact-freshness`` job regenerates every artifact from the tree and
fails on any byte of difference, so asserting on the artifact is asserting
on a full run of the code, at zero simulation cost here.
"""

import pytest

from repro.bench import monthly_costs
from repro.bench.report import load_results as artifact
from repro.sim import PAPER_RTT_TO_PRIMARY


def test_fig1_neither_centralized_nor_geo_replicated_is_near_user():
    rows = artifact("fig1_motivation")["rows"]
    by_region = {r["region"]: r for r in rows}
    # Centralized latency grows with distance from VA; JP > 2x VA.
    assert by_region["jp"]["centralized_median_ms"] > 2 * by_region["va"]["centralized_median_ms"]
    # Geo-replication is worse than (or at best comparable to) centralized
    # in every region — the paper's headline motivation result.
    for r in rows:
        assert r["geo_replicated_median_ms"] > r["centralized_median_ms"] * 0.95
    # Both are far above the local lower bound for far regions.
    for region in ("ca", "ie", "de", "jp"):
        r = by_region[region]
        assert r["centralized_median_ms"] > r["local_ideal_median_ms"] * 1.4
        assert r["geo_replicated_median_ms"] > r["local_ideal_median_ms"] * 1.4
    # The local bound is roughly flat across regions (no WAN in it).
    locals_ = [r["local_ideal_median_ms"] for r in rows]
    assert max(locals_) - min(locals_) < 25


# Table 1 ground truth: function -> (writes, analyzable-with-asterisk).
PAPER_TABLE1 = {
    "social.login": (False, "Yes"),
    "social.post": (True, "Yes*"),
    "social.follow": (True, "Yes"),
    "social.timeline": (False, "Yes"),
    "social.profile": (False, "Yes"),
    "hotel.search": (False, "Yes*"),
    "hotel.recommend": (False, "Yes"),
    "hotel.book": (True, "Yes"),
    "hotel.review": (True, "Yes"),
    "hotel.login": (False, "Yes"),
    "hotel.attractions": (False, "Yes"),
    "forum.homepage": (False, "Yes"),
    "forum.post": (True, "Yes"),
    "forum.interact": (True, "Yes"),
    "forum.view": (False, "Yes"),
    "forum.login": (False, "Yes"),
}


def test_table1_analyzer_reproduces_the_papers_columns():
    # The writes/analyzable columns are *computed* by the static analyzer.
    rows = artifact("table1_functions")["rows"]
    assert len(rows) == 16
    by_fn = {r["function"]: r for r in rows}
    for fn, (writes, analyzable) in PAPER_TABLE1.items():
        assert by_fn[fn]["writes"] == writes, fn
        assert by_fn[fn]["analyzable"] == analyzable, fn
    # Workload mixes sum to 100% per app.
    for app in ("social", "hotel", "forum"):
        total = sum(r["workload_pct"] for r in rows if r["function"].startswith(app))
        assert abs(total - 100.0) < 1e-9


def test_table2_simulated_network_delivers_the_papers_rtts():
    # The measured block is an empty RPC from each region to a VA server
    # through the simulated WAN.
    measured = artifact("table2_rtt")["measured"]
    for region, expected in PAPER_RTT_TO_PRIMARY.items():
        assert abs(measured[region] - expected) < 1e-6


def test_fig4_radical_beats_the_primary_dc_baseline():
    rows = artifact("fig4_end_to_end")["rows"]
    for r in rows:
        # Radical beats the baseline by a substantial margin everywhere
        # (paper: 28-35%) ...
        assert 15.0 <= r["improvement_pct"] <= 50.0, r
        # ... captures most of the possible improvement (paper: 84-89%) ...
        assert r["fraction_of_max_pct"] >= 75.0, r
        # ... and validation succeeds for the overwhelming majority of
        # requests (paper: ~95%) despite zipf-0.99 skew.
        assert r["validation_success_rate"] >= 0.85, r
        # The ideal stays the lower bound (up to jitter noise).
        assert r["radical_median_ms"] >= r["ideal_median_ms"] * 0.97, r
    # The forum benefits least (paper's ordering).
    by_app = {r["app"]: r for r in rows}
    assert by_app["forum"]["improvement_pct"] == min(r["improvement_pct"] for r in rows)


def test_fig5_gain_grows_with_distance_to_the_primary():
    for app, rows in artifact("fig5_regional").items():
        by_region = {r["region"]: r for r in rows}
        gains = {
            r["region"]: r["baseline_median_ms"] - r["radical_median_ms"] for r in rows
        }
        # JP gains the most, VA the least (in VA Radical is slightly
        # worse: same function, same storage, plus Radical's overheads).
        assert gains["jp"] == max(gains.values()), app
        assert gains["va"] == min(gains.values()), app
        assert gains["va"] <= 5.0, (app, gains["va"])  # ~no gain at home
        for region in ("ca", "ie", "de", "jp"):
            assert gains[region] > 20.0, (app, region)
        # Baseline latency grows with distance; Radical stays much flatter.
        base_spread = by_region["jp"]["baseline_median_ms"] - by_region["va"]["baseline_median_ms"]
        radical_spread = by_region["jp"]["radical_median_ms"] - by_region["va"]["radical_median_ms"]
        assert radical_spread < base_spread, app


def test_fig6_long_functions_hide_the_lvi_round_trip():
    rows = [r for r in artifact("fig6_functions")["rows"]
            if r["samples"] >= 30]  # fewer draws: no stable median
    gain = {r["function"]: r["baseline_median_ms"] - r["radical_median_ms"] for r in rows}
    for r in rows:
        if r["service_time_ms"] >= 100.0:
            # Execution longer than lat_nu<->ns: the round trip is hidden.
            assert gain[r["function"]] > 25.0, r["function"]
        else:
            # Short functions (§5.5) run at near-storage latency — still
            # no big regression, so enabling Radical is safe everywhere.
            assert gain[r["function"]] > -20.0, r["function"]
    longs = [gain[r["function"]] for r in rows if r["service_time_ms"] >= 100]
    shorts = [gain[r["function"]] for r in rows if r["service_time_ms"] < 30]
    assert longs and shorts
    assert sum(longs) / len(longs) > sum(shorts) / len(shorts)


def test_sec56_replication_cost_tracks_the_3_plus_2_3_L_model():
    result = artifact("sec56_replication")
    # The Raft commit latency lands near the paper's 2.3 ms constant.
    assert 1.0 <= result["raft_per_lock_commit_ms"] <= 4.0
    # Measured added latency grows roughly linearly in L and tracks the
    # 3 + 2.3*L model within a factor of two.
    for m, model in zip(result["measured"], result["model"]):
        assert m["measured_added_ms"] > 0
        assert 0.4 <= m["measured_added_ms"] / model["added_latency_model_ms"] <= 2.0
    added = [m["measured_added_ms"] for m in result["measured"]]
    assert added == sorted(added)  # monotone in lock count
    # Batching flattens the per-lock cost: for L=8 the batched server adds
    # far less than the serial one, and its cost barely grows with L.
    batched = [m["batched_added_ms"] for m in result["measured"]]
    assert batched[-1] < added[-1] * 0.7
    assert batched[-1] - batched[0] < 3.0


def test_sec57_cost_is_the_papers_arithmetic_exactly():
    payload = artifact("sec57_cost")
    by_n = {r["invocations"]: r for r in payload["rows"]}
    assert by_n[1_000_000]["baseline_total"] == pytest.approx(1080.23, abs=0.01)
    assert by_n[1_000_000]["radical_total"] == pytest.approx(1416.37, abs=0.01)
    assert by_n[10_000_000]["baseline_total"] == pytest.approx(1106.06, abs=0.01)
    assert by_n[10_000_000]["radical_total"] == pytest.approx(1443.50, abs=0.02)
    assert by_n[100_000_000]["baseline_total"] == pytest.approx(1364.36, abs=0.01)
    assert by_n[100_000_000]["radical_total"] == pytest.approx(1714.71, abs=0.01)
    # Infrastructure overhead ~31% ("we find it to be 1.3 times the baseline").
    assert payload["infra_overhead"] == pytest.approx(0.31, abs=0.005)
    # Failure re-execution is a rounding error at 1M invocations.
    _baseline, radical = monthly_costs(1_000_000)
    assert radical.failure_reexecutions == pytest.approx(0.1435, abs=0.001)
    # Relative overhead shrinks as invocations dominate.
    overheads = [r["overhead"] for r in payload["rows"]]
    assert overheads == sorted(overheads, reverse=True)


def test_sweep_skew_validation_degrades_gracefully():
    rows = artifact("sweep_skew")["rows"]
    by_s = {r["zipf_s"]: r for r in rows}
    # Uniform workloads validate the most; high skew degrades (with 20%
    # writes the uniform point already absorbs cross-region churn).
    assert by_s[0.0]["validation_success"] > 0.85
    assert by_s[1.2]["validation_success"] < by_s[0.0]["validation_success"] - 0.05
    # Monotone-ish: the most skewed point is the worst.
    assert by_s[1.2]["validation_success"] == min(r["validation_success"] for r in rows)


def test_sweep_concurrency_median_stays_flat():
    rows = artifact("sweep_concurrency")["rows"]
    # More concurrency -> more invalidation churn: success degrades.
    successes = [r["validation_success"] for r in rows]
    assert successes[0] >= successes[-1]
    # The median stays roughly flat (reads dominate and share locks).
    medians = [r["median_ms"] for r in rows]
    assert max(medians) < min(medians) * 1.5


def test_sweep_offered_load_the_lvi_server_is_not_the_bottleneck():
    rows = artifact("sweep_offered_load")["rows"]
    # The median stays roughly flat (§5.3's no-throughput-hit claim) ...
    medians = [r["median_ms"] for r in rows]
    assert max(medians) < min(medians) * 1.6
    # ... but hot-key lock waits and invalidation churn grow with load.
    waits = [r["lock_wait_total_ms"] for r in rows]
    assert waits[-1] > waits[0]
    assert rows[-1]["validation_success"] <= rows[0]["validation_success"]


def test_ablation_overlap_is_where_the_win_comes_from():
    # §3.2: serializing the LVI request before execution is dramatically slower.
    row = artifact("ablation_overlap")
    assert row["no_overlap_median_ms"] > row["overlap_median_ms"] + 40


def test_ablation_two_rtt_puts_the_wan_back_on_the_write_path():
    # §1, §3.2: validate-then-commit pays (roughly) one extra WAN round trip.
    row = artifact("ablation_two_rtt")
    assert row["two_rtt_median_ms"] > row["single_request_median_ms"] + 30


def test_ablation_cache_bootstrap_cold_caches_converge_from_below():
    # §3.2: cold caches fail validation more and are slower overall.
    row = artifact("ablation_cache_bootstrap")
    assert row["cold_validation_success"] < row["warm_validation_success"]
    assert row["cold_median_ms"] >= row["warm_median_ms"]


def test_scalability_four_shards_deliver_2_5x():
    payload = artifact("scalability")
    tput = {}
    for p in payload["points"]:
        tput.setdefault(p["series"], {})[p["shards"]] = p["throughput_rps"]
    # The headline: 4 shards deliver >= 2.5x one shard's throughput on the
    # uniform counter workload with batching enabled.
    assert tput["counter"][4] >= 2.5 * tput["counter"][1]
    # Scaling is monotone through the saturated range on every series.
    for series in tput:
        assert tput[series][2] > tput[series][1]
        assert tput[series][4] > tput[series][2]
    # The multi-key social workload scales too (cross-shard commits tax
    # it below the counter's ratio, but the tier still scales).
    assert tput["social"][4] >= 1.4 * tput["social"][1]
    # Batching raises single-shard capacity: coalesced members cost
    # server_batch_item_ms instead of a full server_proc_ms.
    assert tput["counter"][1] > tput["counter-unbatched"][1]
    # Cross-shard 2PC actually ran on the sharded social points.
    social_multi = [p for p in payload["points"]
                    if p["series"] == "social" and p["shards"] > 1]
    assert sum(p["xshard_commits"] for p in social_multi) > 0
