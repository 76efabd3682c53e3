"""The two root finders of the float paths.

`bisect_root` serves every transcendental solve in the toolkit (lens
half-angle, disc chord, fair-cut angle, equal cut): each is a sign change of
a continuous function on a known bracket.  `rising_quadratic_root` serves
the fair-cut offset solves, whose area is an exact quadratic between two
vertex levels: three values fix the quadratic, and its rising root is read
off in closed form.  The constant-width interpolant area does not use it:
A_D - (1-t)^2 (A_D - A_R) is solved for t directly in
`extremal.interpolant_with_area`.
"""

from __future__ import annotations

import math
from typing import Callable


def bisect_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    ftol: float = 0.0,
    xtol: float = 0.0,
    max_iter: int = 200,
) -> float:
    """A root of f in [lo, hi], given f(lo) < 0 <= f(hi); a caller with the
    other orientation passes -f.  Returns the first midpoint with
    |f| <= ftol, or the bracket midpoint once the bracket is no wider than
    xtol or max_iter halvings are spent."""
    for _ in range(max_iter):
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
    lies outside [f0, f1]."""
    c = 2.0 * (f0 - 2.0 * fh + f1)
    b = f1 - f0 - c
    # b >= 0 is the slope at x = 0, so the rising root is
    # 2 (want - f0) / (b + sqrt(b^2 + 4c (want - f0))), free of cancellation
    rise = want - f0
    delta = max(b * b + 4.0 * c * rise, 0.0)
    return min(max(2.0 * rise / (b + math.sqrt(delta)), 0.0), 1.0)
