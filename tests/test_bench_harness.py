"""Tests for the experiment harness and per-figure experiment drivers."""

import importlib
import json

import pytest

from repro.apps import social_media_app
from repro.baselines import LocalIdealDeployment, PrimaryDeployment
from repro.bench import (
    PAPER_JITTER_SIGMA,
    cost_table,
    drive_closed_loop,
    fig4_rows,
    fig5_rows,
    fig6_rows,
    infrastructure_overhead,
    monthly_costs,
    run_eval_trio,
    table1_functions,
    table2_rtt,
    validation_success_rate,
)
from repro.core import RadicalConfig
from repro.scenarios.runners import KINDS
from repro.sim import Region, SyntheticGeoRttDataset, paper_latency_table
from repro.topology import Deployment, TopologySpec


def paper_spec(seed=11, **fields):
    return TopologySpec(seed=seed, network_jitter_sigma=PAPER_JITTER_SIGMA, **fields)


def run(build=Deployment.build, requests=300, **fields):
    """``requests`` social requests, one client per region, on the system
    ``build`` makes from the paper spec."""
    app = social_media_app()
    return drive_closed_loop(
        build(paper_spec(**fields), app=app), app, requests, clients_per_region=1
    )


def trio():
    return run_eval_trio("social", paper_spec(), requests=300, clients_per_region=1)


@pytest.mark.parametrize("package", ["repro.bench", "repro.sim", "repro.scenarios"])
def test_package_exports_resolve(package):
    # A name deleted from a package must leave its ``__all__`` too.
    module = importlib.import_module(package)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


class TestHarness:
    def test_radical_experiment_completes_all_requests(self):
        dep = run()
        assert dep.metrics.counter("requests.total") == 300
        assert dep.metrics.summary("e2e").count == 300

    def test_all_regions_and_functions_sampled(self):
        dep = run()
        for region in Region.NEAR_USER:
            assert dep.metrics.summary(f"e2e.region.{region}").count > 0
        assert dep.metrics.summary("e2e.fn.social.timeline").count > 100

    def test_baseline_fastest_in_va(self):
        baseline = run(PrimaryDeployment.build)
        medians = {r: baseline.metrics.summary(f"e2e.region.{r}").median for r in Region.NEAR_USER}
        assert medians["va"] == min(medians.values())
        assert medians["jp"] == max(medians.values())

    def test_baseline_reports_its_kernel_events(self):
        baseline = run(PrimaryDeployment.build, requests=60)
        assert baseline.sim.events_dispatched > 60

    def test_local_ideal_flat_across_regions(self):
        ideal = run(LocalIdealDeployment.build)
        medians = [ideal.metrics.summary(f"e2e.region.{r}").median for r in Region.NEAR_USER]
        assert max(medians) - min(medians) < 30

    def test_radical_beats_baseline(self):
        t = trio()
        assert t.improvement() > 0.15
        assert 0 < t.fraction_of_max() < 1.2

    def test_validation_success_rate_high_when_warm(self):
        assert validation_success_rate(run().metrics) > 0.9

    def test_cold_cache_run_completes(self):
        dep = run(requests=150, warm_caches=False)
        assert dep.metrics.counter("path.miss") > 0

    def test_deterministic_given_seed(self):
        a, b = run(), run()
        assert a.metrics.summary("e2e").median == b.metrics.summary("e2e").median
        assert a.metrics.counters() == b.metrics.counters()

    def test_different_seeds_differ(self):
        a, b = run(), run(seed=12)
        assert a.metrics.summary("e2e").median != b.metrics.summary("e2e").median

    def test_history_recording(self):
        dep = run(requests=100, record_history=True)
        assert dep.history is not None
        assert len(dep.history) == 100

    def test_recorded_history_strictly_serializable(self):
        from repro.consistency import check_strict_serializability

        dep = run(requests=200, seed=13, record_history=True)
        check_strict_serializability(dep.history.records())


class TestOneSpecBuildsAllThreeSystems:
    """The headline is a ratio of three systems under an identical network:
    an ``rtt`` override has to move the baseline with Radical."""

    @staticmethod
    def _fig(view, rtt):
        """The fig4/5 scenarios at smoke size, as ``run fig4 --smoke --set
        rtt=...`` resolves them."""
        return KINDS[view].run({"requests": 150, "seed": 42, "apps": ["social"], "rtt": rtt})

    @pytest.fixture
    def doubled(self, tmp_path):
        """A matrix-file dataset: the paper matrix with every WAN RTT doubled."""
        table, regions = paper_latency_table(), Region.ALL
        rtts = {
            f"{a}:{b}": 2 * table.rtt(a, b)
            for i, a in enumerate(regions) for b in regions[i + 1:]
        }
        path = tmp_path / "doubled.json"
        path.write_text(json.dumps({"primary": Region.VA, "rtts": rtts}))
        return {"kind": "matrix-file", "path": str(path)}

    def test_slower_wan_raises_the_baseline_and_the_improvement(self, doubled):
        (paper,), (slow,) = self._fig("fig4", None)["rows"], self._fig("fig4", doubled)["rows"]
        assert slow["radical_median_ms"] > paper["radical_median_ms"]
        assert slow["baseline_median_ms"] > paper["baseline_median_ms"] + 50
        assert slow["improvement_pct"] > paper["improvement_pct"]
        assert slow["ideal_median_ms"] == paper["ideal_median_ms"]

    def test_fig5_distance_column_reads_the_built_network(self, doubled):
        paper = {r["region"]: r["lat_nu_ns_ms"] for r in self._fig("fig5", None)["social"]}
        slow = {r["region"]: r["lat_nu_ns_ms"] for r in self._fig("fig5", doubled)["social"]}
        assert paper == {"va": 7.0, "ca": 74.0, "ie": 70.0, "de": 93.0, "jp": 146.0}
        assert slow == {"va": 7.0, "ca": 148.0, "ie": 140.0, "de": 186.0, "jp": 292.0}

    def test_synthetic_geography_runs_all_three_systems(self):
        dataset = SyntheticGeoRttDataset(6, seed=7)
        spec = TopologySpec(
            regions=dataset.region_names(), seed=11,
            network_jitter_sigma=PAPER_JITTER_SIGMA,
            rtt={"kind": "synthetic-geo", "n": 6, "seed": 7},
            primary_region=dataset.primary_region,
        )
        t = run_eval_trio("social", spec, requests=120, clients_per_region=1)
        for system in (t.radical, t.baseline, t.ideal):
            assert system.metrics.summary("e2e").count == 120
        assert [r["region"] for r in fig5_rows(t)] == list(dataset.region_names())
        assert t.baseline.baseline.region == dataset.primary_region


@pytest.mark.slow
class TestExperimentViews:
    def test_fig4_row_fields(self):
        row = fig4_rows(trio())
        assert row["app"] == "social"
        assert row["radical_median_ms"] < row["baseline_median_ms"]
        assert 0 < row["validation_success_rate"] <= 1

    def test_fig5_rows_cover_regions(self):
        rows = fig5_rows(trio())
        assert [r["region"] for r in rows] == list(Region.NEAR_USER)

    def test_fig6_rows_have_service_times(self):
        rows = fig6_rows(trio())
        assert any(r["function"] == "social.timeline" for r in rows)
        for r in rows:
            assert r["service_time_ms"] > 0

    def test_table1_matches_paper_flags(self):
        rows = table1_functions()
        by_fn = {r["function"]: r for r in rows}
        assert by_fn["social.post"]["analyzable"] == "Yes*"
        assert by_fn["hotel.search"]["analyzable"] == "Yes*"
        assert by_fn["social.timeline"]["analyzable"] == "Yes"
        assert by_fn["hotel.book"]["writes"] is True
        assert by_fn["forum.homepage"]["writes"] is False

    def test_table2_is_papers(self):
        rows = {r["region"]: r["rtt_to_primary_ms"] for r in table2_rtt()}
        assert rows == {"VA": 7.0, "CA": 74.0, "IE": 70.0, "DE": 93.0, "JP": 146.0}


class TestCostModel:
    def test_paper_exact_values(self):
        baseline, radical = monthly_costs(1_000_000)
        assert baseline.total == pytest.approx(1080.23, abs=0.01)
        assert radical.total == pytest.approx(1416.37, abs=0.02)

    def test_infrastructure_overhead_31pct(self):
        assert infrastructure_overhead() == pytest.approx(0.312, abs=0.002)

    def test_table_shrinking_relative_overhead(self):
        rows = cost_table()
        overheads = [r["overhead"] for r in rows]
        assert overheads == sorted(overheads, reverse=True)

    def test_failure_rate_scales_reexecution_cost(self):
        _b1, r1 = monthly_costs(1_000_000, validation_failure_rate=0.05)
        _b2, r2 = monthly_costs(1_000_000, validation_failure_rate=0.10)
        assert r2.failure_reexecutions == pytest.approx(2 * r1.failure_reexecutions)


class TestReplicatedMode:
    def test_replicated_experiment_runs(self):
        dep = run(requests=60, regions=(Region.CA,), config=RadicalConfig(replicated=True))
        assert dep.metrics.counter("requests.total") == 60

    def test_replicated_adds_latency(self):
        single = run(requests=100, regions=(Region.CA,))
        replicated = run(
            requests=100, regions=(Region.CA,), config=RadicalConfig(replicated=True)
        )
        assert replicated.metrics.summary("e2e").mean >= single.metrics.summary("e2e").mean
