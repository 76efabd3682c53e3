"""The two root finders of the float paths, and the segment function two solves share.

`bisect_root` serves every transcendental solve in the toolkit (lens
half-angle, disc chord, fair-cut angle): each is a sign change of
a continuous function on a known bracket.  `rising_quadratic_root` serves
the fair-cut offset solves, whose area is an exact quadratic between two
vertex levels: its values at the ends and the midpoint fix it, and its rising
root is read off in closed form in units of its rise, the same at every scale.
The constant-width interpolant area does not use it:
A_D - (1-t)^2 (A_D - A_R) is solved for t directly in
`extremal.interpolant_with_area`.  The lens and disc chord solves bisect on
`segment_over_cube`, free of cancellation; its bounds bracket both.
"""

from __future__ import annotations

import math
from typing import Callable

MAX_HALVINGS = 200


def bisect_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    ftol: float = 0.0,
    xtol: float = 0.0,
) -> float:
    """A root of f in [lo, hi], given f(lo) < 0 <= f(hi); a caller with the
    other orientation passes -f.  Returns the first midpoint with
    |f| <= ftol, or the bracket midpoint once the bracket is no wider than
    xtol or MAX_HALVINGS halvings are spent."""
    for _ in range(MAX_HALVINGS):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if abs(fm) <= ftol:
            return mid
        if fm < 0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= xtol:
            break
    return 0.5 * (lo + hi)


def rising_quadratic_root(f0: float, fh: float, f1: float, want: float) -> float:
    """The x in [0, 1] where the quadratic through (0, f0), (1/2, fh),
    (1, f1), rising on [0, 1], reaches want; clamped to [0, 1] when want
    lies outside [f0, f1], and 0 when f1 <= f0."""
    if not (f1 > f0 and want > f0):
        return 0.0
    # in units of s = f1 - f0 it is f0 + s (b x + c x^2) with b + c = 1, so no
    # product of two values over- or underflows; b >= 0 is the slope at 0, and
    # the rising root 2 rise / (b + sqrt(b^2 + 4c rise)) is free of cancellation
    s = f1 - f0
    c = 2.0 * (f0 - 2.0 * fh + f1) / s
    b, rise = 1.0 - c, (want - f0) / s
    delta = max(b * b + 4.0 * c * rise, 0.0)
    return min(max(2.0 * rise / (b + math.sqrt(delta)), 0.0), 1.0)


def segment_over_cube(alpha: float) -> float:
    """(alpha - sin(alpha) cos(alpha)) / alpha^3, the circular segment of
    radius 1 and half-angle alpha over alpha^3, falling from 2/3 at 0 to
    4/pi^2 at pi/2.  Below 0.1 it is a Taylor series, free of cancellation
    and underflow; above, the difference loses less than 1e-13."""
    if alpha >= 0.1:
        return (alpha - math.sin(alpha) * math.cos(alpha)) / (alpha * alpha * alpha)
    return sum((-4.0 * alpha * alpha) ** k * 4.0 / math.factorial(2 * k + 3) for k in range(6))
