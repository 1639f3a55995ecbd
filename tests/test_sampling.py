"""Deterministic sample streams, parallel reduction invariance, Wilson CI."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from diophlab.sampling import (
    binomial_ci,
    grid_points,
    parallel_map,
    sample_point,
)


def test_sample_point_deterministic():
    assert sample_point(42, 3, 2) == sample_point(42, 3, 2)
    assert sample_point(42, 3, 2) != sample_point(42, 4, 2)
    assert sample_point(41, 3, 2) != sample_point(42, 3, 2)


def reference_point(seed, index, dim):
    """A sample point drawn through random.Random, with the (seed, index)
    key mixed as the sampler documents it."""
    mask = (1 << 64) - 1
    key = ((seed & mask) * 0x9E3779B97F4A7C15 + (index & mask) * 0xD1B54A32D192ED03) & mask
    rng = random.Random(key ^ (key >> 29))
    return tuple(F(rng.getrandbits(53), 1 << 53) for _ in range(dim))


@pytest.mark.parametrize("seed", [0, 1, 7, 2**70])
def test_sample_point_matches_the_random_stream(seed):
    for dim in (1, 2, 3):
        assert [sample_point(seed, i, dim) for i in range(2000)] == [reference_point(seed, i, dim) for i in range(2000)]


@given(seed=st.integers(min_value=0, max_value=2**64), i=st.integers(min_value=0, max_value=10**6))
def test_sample_point_in_unit_cube(seed, i):
    pt = sample_point(seed, i, 2)
    assert all(F(0) <= c < F(1) for c in pt)
    assert all(c.denominator & (c.denominator - 1) == 0 for c in pt)  # dyadic


def test_parallel_map_thread_invariant():
    items = list(range(200))
    fn = lambda x: x * x - 1  # noqa: E731
    out1 = parallel_map(fn, items, threads=1)
    out4 = parallel_map(fn, items, threads=4)
    out8 = parallel_map(fn, items, threads=8)
    assert out1 == out4 == out8 == [x * x - 1 for x in items]


def test_grid_points_1d():
    pts = grid_points(4, 1)
    assert pts == [(F(1, 8),), (F(3, 8),), (F(5, 8),), (F(7, 8),)]


def test_wilson_ci_oracle():
    # frozen against a 50-digit computation of the Wilson formula,
    # k = 7, n = 50, z = 1.96
    lo, hi = binomial_ci(7, 50)
    assert float(lo) <= 0.0695074526202286 <= float(lo) + 1e-12 or lo <= F(695074526202286, 10**16)
    assert abs(float(lo) - 0.0695074526202286) < 1e-9
    assert abs(float(hi) - 0.261864571985281) < 1e-9
    # outward rounding
    assert lo < F(7, 50) < hi


@given(k=st.integers(min_value=0, max_value=100))
def test_wilson_ci_contains_p_hat(k):
    lo, hi = binomial_ci(k, 100)
    assert F(0) <= lo <= F(k, 100) <= hi <= F(1)
