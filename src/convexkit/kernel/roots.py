"""One bracketed root finder for the float paths.

Every transcendental solve in the toolkit (lens half-angle, cut offset,
disc chord, fair-cut angle) is a sign change of a continuous function on a
known bracket, so they share this bisection.
"""

from __future__ import annotations

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
