"""Latency-aware routing sweep (repro.bench.routing): sparse PoP
placement, per-policy assignment behaviour, the breakeven analysis, and
worker-count invariance of the parallel sweep."""

import json

import pytest

from repro.bench.routing import (
    _breakeven,
    routing_gate_failures,
    run_routing_point,
    run_routing_sweep,
    sparse_placement,
)
from repro.sim import SyntheticGeoRttDataset


def _point_spec(**overrides):
    spec = {
        "region_count": 6,
        "placement": "dense",
        "policy": "nearest-rtt",
        "requests": 60,
        "seed": 42,
        "rtt_seed": 7,
        "tiered_threshold_ms": 60.0,
        "sparse_pops": 3,
    }
    spec.update(overrides)
    return spec


class TestSparsePlacement:
    def test_starts_at_primary_and_is_deterministic(self):
        ds = SyntheticGeoRttDataset(10, seed=7)
        pops = sparse_placement(ds, 4)
        assert pops[0] == ds.primary_region
        assert len(pops) == 4
        assert len(set(pops)) == 4
        assert pops == sparse_placement(SyntheticGeoRttDataset(10, seed=7), 4)

    def test_k_center_greedy_spreads_out(self):
        # Each added PoP is the region farthest from the chosen set, so
        # every region's distance to its nearest PoP shrinks (weakly) as
        # k grows.
        ds = SyntheticGeoRttDataset(12, seed=3)

        def worst_distance(pops):
            return max(
                min(ds.rtt(r, p) for p in pops)
                for r in ds.region_names() if r not in pops
            )

        assert worst_distance(sparse_placement(ds, 5)) <= worst_distance(
            sparse_placement(ds, 2)
        )

    def test_k_capped_at_region_count(self):
        ds = SyntheticGeoRttDataset(5, seed=1)
        assert len(sparse_placement(ds, 50)) == 5


class TestRoutingPoint:
    def test_dense_nearest_rtt_is_all_home(self):
        point = run_routing_point(_point_spec())
        # With a PoP in every region the nearest PoP is your own.
        assert point["modes"] == {"home": 6}
        assert point["validation_success"] > 0.5
        for c in point["clients"]:
            assert c["samples"] > 0
            assert c["pop"] == c["region"]

    def test_direct_policy_routes_everyone_to_primary(self):
        point = run_routing_point(_point_spec(policy="direct"))
        assert set(point["modes"]) == {"direct"}
        primary = point["primary"]
        for c in point["clients"]:
            assert c["pop"] == primary
            if c["region"] != primary:
                # Direct clients pay (at least) the WAN RTT to primary.
                assert c["median_ms"] >= c["primary_rtt_ms"]

    def test_sparse_placement_mixes_modes(self):
        point = run_routing_point(_point_spec(placement="sparse"))
        assert point["pops"] == 3
        assert sum(point["modes"].values()) == 6
        # Regions without a PoP get an "edge" assignment to a remote one.
        assert point["modes"].get("edge", 0) > 0

    def test_tiered_threshold_forces_direct(self):
        # A tiny threshold makes every remote client fall back to direct.
        point = run_routing_point(_point_spec(
            placement="sparse", policy="tiered", tiered_threshold_ms=0.001,
        ))
        assert point["modes"].get("edge", 0) == 0
        assert point["modes"].get("direct", 0) > 0


class TestBreakeven:
    @staticmethod
    def _fake_point(policy, clients, primary="g00"):
        return {
            "region_count": 4, "placement": "dense", "policy": policy,
            "primary": primary,
            "clients": [
                {"region": r, "pop_rtt_ms": rtt, "median_ms": med}
                for r, rtt, med in clients
            ],
        }

    def test_interpolates_the_crossing(self):
        edge = self._fake_point("nearest-rtt", [
            ("g00", 1.0, 10.0),   # primary — must be excluded
            ("g01", 10.0, 20.0),
            ("g02", 30.0, 40.0),
            ("g03", 50.0, 80.0),
        ])
        direct = self._fake_point("direct", [
            ("g00", 1.0, 10.0),
            ("g01", 10.0, 50.0),  # edge wins by 30
            ("g02", 30.0, 50.0),  # edge wins by 10
            ("g03", 50.0, 60.0),  # edge loses by 20
        ])
        (combo,) = _breakeven([edge, direct])
        assert combo["clients"] == 3  # primary excluded
        assert combo["edge_wins"] == 2
        # Crossing between pop_rtt 30 (adv +10) and 50 (adv -20):
        # 30 + 10/30 * 20 = 36.667.
        assert combo["breakeven_pop_rtt_ms"] == pytest.approx(36.667, abs=0.01)

    def test_edge_always_winning_means_no_breakeven(self):
        edge = self._fake_point("nearest-rtt", [
            ("g00", 1.0, 10.0), ("g01", 10.0, 20.0), ("g02", 30.0, 40.0),
        ])
        direct = self._fake_point("direct", [
            ("g00", 1.0, 10.0), ("g01", 10.0, 50.0), ("g02", 30.0, 70.0),
        ])
        (combo,) = _breakeven([edge, direct])
        assert combo["breakeven_pop_rtt_ms"] is None
        assert combo["edge_wins"] == combo["clients"] == 2


def small_sweep(**overrides):
    params = dict(
        region_counts=(6,), policies=("nearest-rtt", "direct"),
        placements=("dense",), requests=60, seed=42, rtt_seed=7,
        tiered_threshold_ms=60.0, sparse_pops=5, workers=1,
    )
    params.update(overrides)
    return run_routing_sweep(**params)


class TestSweep:
    @pytest.fixture(scope="class")
    def payload(self):
        return small_sweep(workers=2)

    def test_structure_and_gate(self, payload):
        assert len(payload["points"]) == 2
        assert payload["breakeven"]
        assert routing_gate_failures(payload) == []

    def test_worker_count_invariant(self, payload):
        serial = small_sweep(workers=1)
        assert json.dumps(serial, sort_keys=True) == json.dumps(
            payload, sort_keys=True
        )

    def test_home_region_skipped_off_dense(self):
        payload = small_sweep(
            policies=("home-region",), placements=("sparse",), sparse_pops=3,
        )
        assert payload["points"] == []
        assert payload["skipped"]

    def test_gate_catches_bad_points(self, payload):
        doctored = json.loads(json.dumps(payload))
        doctored["points"][0]["validation_success"] = 0.1
        assert any("validation" in f for f in routing_gate_failures(doctored))
