"""The bracketed root finder shared by the float solves."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexkit.kernel import bisect_root


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    root=st.floats(min_value=-100.0, max_value=100.0),
    width=st.floats(min_value=0.1, max_value=100.0),
    share=st.floats(min_value=0.01, max_value=0.99),
)
def test_bisect_root_finds_the_root_of_a_monotone_function(root, width, share):
    lo = root - share * width
    hi = lo + width

    def f(x):
        return (x - root) ** 3 + (x - root)

    assert abs(bisect_root(f, lo, hi) - root) <= 1e-12
    assert abs(bisect_root(f, lo, hi, xtol=1e-6) - root) <= 1e-6


def test_bisect_root_orientation_and_stops():
    # a falling function goes in negated
    x = bisect_root(lambda x: -(2.0 - x * x), 0.0, 2.0)
    assert x == pytest.approx(math.sqrt(2.0), abs=1e-15)
    # ftol returns the first midpoint that meets it
    x = bisect_root(lambda x: x * x - 2.0, 0.0, 2.0, ftol=1e-3)
    assert abs(x * x - 2.0) <= 1e-3
    assert bisect_root(lambda x: x - 1.0, 0.0, 2.0) == 1.0
    # one halving of [0, 1] leaves [0, 1/2]
    assert bisect_root(lambda x: x - 0.3, 0.0, 1.0, max_iter=1) == 0.25
