"""The root finders shared by the float solves."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexkit.kernel.roots import bisect_root, rising_quadratic_root


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
    # xtol stops once the bracket is that narrow: one halving of [0, 1]
    # leaves [0, 1/2]
    assert bisect_root(lambda x: x - 0.3, 0.0, 1.0, xtol=0.5) == 0.25


def test_rising_quadratic_root_is_exact_and_clamps():
    def q(x):
        return 1.0 + 2.0 * x - 0.5 * x * x

    f0, fh, f1 = q(0.0), q(0.5), q(1.0)
    assert rising_quadratic_root(f0, fh, f1, q(0.3)) == pytest.approx(0.3, abs=1e-15)
    assert rising_quadratic_root(f0, fh, f1, f0) == 0.0
    assert rising_quadratic_root(f0, fh, f1, f1) == pytest.approx(1.0, abs=1e-15)
    # outside [f0, f1] the root clamps to the nearer end
    assert rising_quadratic_root(f0, fh, f1, f0 - 1.0) == 0.0
    assert rising_quadratic_root(f0, fh, f1, f1 + 1.0) == 1.0
    # a straight line, and a quadratic that starts flat
    assert rising_quadratic_root(0.0, 1.0, 2.0, 0.5) == 0.25
    assert rising_quadratic_root(0.0, 0.25, 1.0, 0.49) == pytest.approx(0.7, abs=1e-15)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    a=st.floats(min_value=-10.0, max_value=10.0),
    b=st.floats(min_value=0.01, max_value=10.0),
    bend=st.floats(min_value=-0.49, max_value=5.0),
    x=st.floats(min_value=0.0, max_value=1.0),
)
def test_rising_quadratic_root_inverts_a_rising_quadratic(a, b, bend, x):
    # c = bend * b with bend > -1/2 keeps the slope b + 2 c x positive on [0, 1]
    c = bend * b

    def q(t):
        return a + b * t + c * t * t

    assert abs(rising_quadratic_root(q(0.0), q(0.5), q(1.0), q(x)) - x) <= 1e-9


@pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-100, 1.0, 1e100, 1e200, 1e300])
def test_rising_quadratic_root_does_not_depend_on_scale(scale):
    # areas at 1e200 square to 1e400 and at 1e-200 to 1e-400: the root must
    # not form such products
    f0, fh, f1, want = (v * scale for v in (0.0, 0.25, 1.0, 0.49))
    assert rising_quadratic_root(f0, fh, f1, want) == pytest.approx(0.7, abs=1e-15)
    # a flat bracket has no rising root: its left end is the answer
    assert rising_quadratic_root(f1, f1, f1, 2.0 * f1) == 0.0
