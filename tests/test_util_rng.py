"""Deterministic RNG behaviour and statistical sanity."""

import pytest
from hypothesis import given, strategies as st

from repro.util.rng import DeterministicRNG


def test_same_seed_same_stream():
    a = DeterministicRNG(42)
    b = DeterministicRNG(42)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]


def test_different_seeds_differ():
    a = DeterministicRNG(1)
    b = DeterministicRNG(2)
    assert [a.next_u64() for _ in range(10)] != [b.next_u64() for _ in range(10)]


def test_zero_seed_is_remapped():
    rng = DeterministicRNG(0)
    assert rng.next_u64() != 0


def test_fork_streams_are_independent():
    base = DeterministicRNG(7)
    f1 = base.fork(1)
    f2 = base.fork(2)
    s1 = [f1.next_u64() for _ in range(10)]
    s2 = [f2.next_u64() for _ in range(10)]
    assert s1 != s2


@given(st.integers(min_value=-100, max_value=100),
       st.integers(min_value=0, max_value=200))
def test_randint_in_range(lo, span):
    rng = DeterministicRNG(lo * 1000 + span + 5)
    hi = lo + span
    for _ in range(20):
        assert lo <= rng.randint(lo, hi) <= hi


def test_randint_empty_range_rejected():
    with pytest.raises(ValueError):
        DeterministicRNG(1).randint(5, 4)


def test_random_unit_interval():
    rng = DeterministicRNG(3)
    values = [rng.random() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in values)
    mean = sum(values) / len(values)
    assert 0.45 < mean < 0.55  # crude uniformity


def test_choice_and_empty_choice():
    rng = DeterministicRNG(9)
    items = ["a", "b", "c"]
    assert all(rng.choice(items) in items for _ in range(20))
    with pytest.raises(ValueError):
        rng.choice([])


def test_shuffle_is_permutation():
    rng = DeterministicRNG(11)
    items = list(range(30))
    shuffled = list(items)
    rng.shuffle(shuffled)
    assert sorted(shuffled) == items
    assert shuffled != items  # astronomically unlikely to be identity


def test_zipf_skews_toward_low_indices():
    rng = DeterministicRNG(13)
    counts = [0] * 16
    for _ in range(4000):
        counts[rng.sample_zipf(16, alpha=1.0)] += 1
    assert counts[0] > counts[8] > 0
    assert sum(counts) == 4000


def test_zipf_bounds_and_errors():
    rng = DeterministicRNG(17)
    assert rng.sample_zipf(1) == 0
    for _ in range(100):
        assert 0 <= rng.sample_zipf(5, alpha=0.5) < 5
    with pytest.raises(ValueError):
        rng.sample_zipf(0)


def test_expovariate_positive_and_mean():
    rng = DeterministicRNG(19)
    values = [rng.expovariate(2.0) for _ in range(2000)]
    assert all(v >= 0 for v in values)
    mean = sum(values) / len(values)
    assert 0.4 < mean < 0.6  # mean should be ~1/rate = 0.5
    with pytest.raises(ValueError):
        rng.expovariate(0)
