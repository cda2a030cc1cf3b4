"""Tests for metrics recording and percentile math."""

import math
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Metrics, Summary, percentile


class TestPercentile:
    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_p(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_single_sample(self):
        assert percentile([3.0], 0) == 3.0
        assert percentile([3.0], 50) == 3.0
        assert percentile([3.0], 100) == 3.0

    def test_median_odd(self):
        assert percentile([3.0, 1.0, 2.0], 50) == 2.0

    def test_median_even_interpolates(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5

    def test_p0_and_p100_are_extremes(self):
        data = [5.0, 1.0, 9.0, 3.0]
        assert percentile(data, 0) == 1.0
        assert percentile(data, 100) == 9.0

    def test_matches_numpy(self):
        # Reference values of numpy.percentile (default linear method)
        # for this data, recorded so the check runs without numpy.
        data = [12.5, 3.1, 99.0, 42.0, 7.7, 18.2, 0.4]
        expected = {1: 0.562, 25: 5.4, 50: 12.5, 75: 30.1, 99: 95.58}
        for p, value in expected.items():
            assert percentile(data, p) == pytest.approx(value)

    def test_nan_p_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0, 2.0], float("nan"))

    def test_duplicate_values(self):
        data = [7.0] * 5
        for p in (0, 25, 50, 75, 100):
            assert percentile(data, p) == 7.0
        # Duplicates mixed with a distinct extreme still interpolate
        # monotonically between the two values present.
        mixed = [1.0, 1.0, 1.0, 9.0]
        assert percentile(mixed, 0) == 1.0
        assert percentile(mixed, 50) == 1.0
        assert percentile(mixed, 100) == 9.0
        assert 1.0 <= percentile(mixed, 80) <= 9.0

    def test_fractional_p_on_two_samples(self):
        assert percentile([0.0, 10.0], 25) == pytest.approx(2.5)
        assert percentile([0.0, 10.0], 75) == pytest.approx(7.5)

    @given(
        data=st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=50),
        p=st.floats(min_value=0, max_value=100),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_bounded_by_extremes(self, data, p):
        result = percentile(data, p)
        assert min(data) <= result <= max(data)

    @given(
        data=st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=51),
    )
    @settings(max_examples=200, deadline=None)
    def test_property_p50_is_median_odd_and_even(self, data):
        # Linear interpolation at p=50 coincides with the classic median
        # definition for both odd and even sample counts.
        assert percentile(data, 50) == pytest.approx(
            statistics.median(data), rel=1e-12, abs=1e-9
        )

    @given(
        data=st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=30),
        p_lo=st.floats(min_value=0, max_value=100),
        p_hi=st.floats(min_value=0, max_value=100),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_monotone_in_p(self, data, p_lo, p_hi):
        if p_lo > p_hi:
            p_lo, p_hi = p_hi, p_lo
        assert percentile(data, p_lo) <= percentile(data, p_hi) + 1e-9


class TestSummary:
    def test_of_simple_set(self):
        s = Summary.of([1.0, 2.0, 3.0])
        assert s.count == 3
        assert s.mean == 2.0
        assert s.median == 2.0
        assert s.minimum == 1.0
        assert s.maximum == 3.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            Summary.of([])

    def test_single_sample(self):
        s = Summary.of([42.0])
        assert s.count == 1
        assert s.mean == s.median == s.p99 == s.minimum == s.maximum == 42.0

    def test_all_duplicates(self):
        s = Summary.of([5.0, 5.0, 5.0, 5.0])
        assert s.mean == s.median == s.p99 == 5.0
        assert s.minimum == s.maximum == 5.0
        assert not math.isnan(s.mean)

    def test_p99_near_max_for_large_sets(self):
        samples = list(map(float, range(1000)))
        s = Summary.of(samples)
        assert 985 <= s.p99 <= 999


class TestMetrics:
    def test_record_and_summary(self):
        m = Metrics()
        for v in (10.0, 20.0, 30.0):
            m.record("e2e", v)
        assert m.summary("e2e").median == 20.0

    def test_summary_of_unknown_label_raises(self):
        with pytest.raises(KeyError):
            Metrics().summary("nope")

    def test_samples_returns_copy(self):
        m = Metrics()
        m.record("x", 1.0)
        m.samples("x").append(99.0)
        assert m.samples("x") == [1.0]

    def test_has_and_labels(self):
        m = Metrics()
        m.record("b", 1.0)
        m.record("a", 1.0)
        assert m.has("a") and not m.has("c")
        assert list(m.labels()) == ["a", "b"]

    def test_counters(self):
        m = Metrics()
        m.incr("validation.success", 19)
        m.incr("validation.failure")
        assert m.counter("validation.success") == 19
        assert m.counter("never") == 0
        assert m.counters() == {"validation.success": 19, "validation.failure": 1}

    def test_ratio(self):
        m = Metrics()
        m.incr("hits", 95)
        m.incr("total", 100)
        assert m.ratio("hits", "total") == pytest.approx(0.95)
        assert m.ratio("hits", "zero") is None


class TestTaggedMetrics:
    def test_record_and_match_by_subset(self):
        m = Metrics()
        m.record_tagged("e2e", 10.0, region="jp", path="speculative")
        m.record_tagged("e2e", 20.0, region="jp", path="backup")
        m.record_tagged("e2e", 30.0, region="ie", path="speculative")
        assert sorted(m.samples_tagged("e2e", region="jp")) == [10.0, 20.0]
        assert m.samples_tagged("e2e", path="speculative") == [10.0, 30.0]
        assert m.samples_tagged("e2e", region="jp", path="backup") == [20.0]
        # Empty match selects everything.
        assert sorted(m.samples_tagged("e2e")) == [10.0, 20.0, 30.0]

    def test_tag_order_is_irrelevant(self):
        m = Metrics()
        m.record_tagged("x", 1.0, a="1", b="2")
        m.record_tagged("x", 2.0, b="2", a="1")
        assert m.samples_tagged("x", a="1", b="2") == [1.0, 2.0]
        assert len(m.tag_sets("x")) == 1

    def test_flat_namespace_untouched(self):
        m = Metrics()
        m.record_tagged("e2e", 5.0, region="va")
        assert not m.has("e2e")
        with pytest.raises(KeyError):
            m.summary("e2e")

    def test_summary_tagged(self):
        m = Metrics()
        for v in (10.0, 20.0, 30.0):
            m.record_tagged("e2e", v, path="speculative")
        assert m.summary_tagged("e2e", path="speculative").median == 20.0
        with pytest.raises(KeyError):
            m.summary_tagged("e2e", path="direct")

    def test_tag_sets_sorted(self):
        m = Metrics()
        m.record_tagged("e2e", 1.0, region="jp")
        m.record_tagged("e2e", 1.0, region="ie")
        assert m.tag_sets("e2e") == [{"region": "ie"}, {"region": "jp"}]
        assert m.tag_sets("unknown") == []
