"""Statistics helpers."""

import pytest
from hypothesis import given, strategies as st

from repro.util.stats import (
    RunningStats,
    Summary,
    geomean,
    jain_fairness,
    percentile,
)


class TestPercentile:
    def test_single_value(self):
        assert percentile([5.0], 50) == 5.0
        assert percentile([5.0], 0) == 5.0

    def test_median_of_even_sample_interpolates(self):
        assert percentile([1, 2, 3, 4], 50) == 2.5

    def test_two_element_interpolation(self):
        assert percentile([1, 2], 50) == 1.5
        assert percentile([1, 2], 25) == 1.25
        assert percentile([2, 1], 75) == 1.75  # order-insensitive

    def test_extremes(self):
        data = [3, 1, 4, 1, 5]
        assert percentile(data, 0) == 1
        assert percentile(data, 100) == 5

    def test_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1], 101)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1,
                    max_size=50),
           st.floats(min_value=0, max_value=100))
    def test_within_data_bounds(self, data, p):
        value = percentile(data, p)
        span = max(abs(min(data)), abs(max(data)), 1.0)
        eps = 1e-9 * span  # interpolation rounding slack
        assert min(data) - eps <= value <= max(data) + eps


class TestJainFairness:
    def test_equal_shares_are_fair(self):
        assert jain_fairness([1, 1, 1, 1]) == pytest.approx(1.0)

    def test_single_hog_is_max_unfair(self):
        assert jain_fairness([1, 0, 0, 0]) == pytest.approx(0.25)

    def test_all_zero_is_fair(self):
        assert jain_fairness([0, 0]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            jain_fairness([])

    @given(st.lists(st.floats(min_value=0, max_value=1e3), min_size=1,
                    max_size=20))
    def test_bounded(self, shares):
        f = jain_fairness(shares)
        assert 0.0 <= f <= 1.0 + 1e-9


class TestGeomean:
    def test_known_value(self):
        assert geomean([1, 4]) == pytest.approx(2.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])
        with pytest.raises(ValueError):
            geomean([])


class TestSummary:
    def test_basic_fields(self):
        s = Summary.of([1, 2, 3, 4, 5])
        assert s.count == 5
        assert s.mean == 3
        assert s.minimum == 1
        assert s.maximum == 5
        assert s.p50 == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Summary.of([])

    def test_from_values_is_alias_of_of(self):
        data = [0.5, 2.0, 9.0]
        assert Summary.from_values(data) == Summary.of(data)

    def test_dict_round_trip(self):
        s = Summary.of([1, 2, 3, 4, 5, 6, 7, 8])
        d = s.to_dict()
        assert set(d) == {"count", "mean", "stdev", "minimum",
                          "p50", "p95", "p99", "maximum"}
        assert all(isinstance(v, (int, float)) for v in d.values())
        assert Summary.from_dict(d) == s

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1,
                    max_size=40))
    def test_dict_round_trip_holds_for_any_sample(self, data):
        s = Summary.of(data)
        assert Summary.from_dict(s.to_dict()) == s


class TestRunningStats:
    def test_matches_direct_computation(self):
        data = [1.0, 2.0, 2.0, 3.5, 10.0]
        rs = RunningStats()
        for v in data:
            rs.add(v)
        mean = sum(data) / len(data)
        var = sum((v - mean) ** 2 for v in data) / len(data)
        assert rs.count == len(data)
        assert rs.mean == pytest.approx(mean)
        assert rs.variance == pytest.approx(var)
        assert rs.minimum == 1.0
        assert rs.maximum == 10.0

    def test_no_samples_raises(self):
        rs = RunningStats()
        with pytest.raises(ValueError):
            _ = rs.mean

    def test_merge_equals_single_stream(self):
        a, b, combined = RunningStats(), RunningStats(), RunningStats()
        for i in range(10):
            a.add(float(i))
            combined.add(float(i))
        for i in range(10, 25):
            b.add(float(i))
            combined.add(float(i))
        a.merge(b)
        assert a.count == combined.count
        assert a.mean == pytest.approx(combined.mean)
        assert a.variance == pytest.approx(combined.variance)
        assert a.minimum == combined.minimum
        assert a.maximum == combined.maximum

    def test_merge_with_empty(self):
        a, b = RunningStats(), RunningStats()
        a.add(1.0)
        a.merge(b)  # no-op
        assert a.count == 1
        b.merge(a)
        assert b.count == 1
        assert b.mean == 1.0

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1,
                    max_size=60),
           st.integers(min_value=0, max_value=60))
    def test_merge_split_invariant(self, data, split):
        split = min(split, len(data))
        left, right = RunningStats(), RunningStats()
        for v in data[:split]:
            left.add(v)
        for v in data[split:]:
            right.add(v)
        left.merge(right)
        whole = RunningStats()
        for v in data:
            whole.add(v)
        assert left.count == whole.count
        assert left.mean == pytest.approx(whole.mean, rel=1e-6, abs=1e-6)
