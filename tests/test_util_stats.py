"""Statistics helpers."""

import pytest
from hypothesis import given, strategies as st

from repro.util.stats import (
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

    def test_dict_round_trip(self):
        s = Summary.of([1, 2, 3, 4, 5, 6, 7, 8])
        d = s.to_dict()
        assert set(d) == {"count", "mean", "stdev", "minimum",
                          "p50", "p95", "p99", "maximum"}
        assert all(isinstance(v, (int, float)) for v in d.values())
        assert Summary(**d) == s

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1,
                    max_size=40))
    def test_dict_round_trip_holds_for_any_sample(self, data):
        s = Summary.of(data)
        assert Summary(**s.to_dict()) == s
