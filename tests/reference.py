"""Reference implementations and generators shared by the tests.

`solve_offset_for_area` is the oracle of `fairpart._ChordSweep`: it solves
one angle's offset by bisection over the vertex levels, with no state
carried between angles.  `random_convex_polygon` draws seeded hulls for the
polygon and arc-kernel sweeps.
"""

import bisect
import math
from typing import Sequence, Tuple

from convexkit.fairpart import LineCut
from convexkit.kernel import ConvexPolygon, convex_hull, rising_quadratic_root


def cut_area(V: Sequence[Tuple[float, float]], n: Tuple[float, float], offset: float) -> float:
    """Area of {p . n <= offset} within the CCW convex polygon V, in one
    pass over its edges.  In the frame s = p . t, u = p . n, with t the cut
    direction (n turned clockwise), edge i -> i+1 keeps the part of its level
    range [u_i, u_i+1] below the offset, and adds that trapezoid of the area
    integral of s du.  An edge parallel to the cut adds no area."""
    u = [x * n[0] + y * n[1] for x, y in V]
    s = [x * n[1] - y * n[0] for x, y in V]
    total = 0.0
    for ui, un, si, sn in zip(u, u[1:] + u[:1], s, s[1:] + s[:1]):
        # the edge's level range, clipped to the offset
        u0, u1 = min(ui, offset), min(un, offset)
        share = (u1 - u0) / (un - ui) if un != ui else float(ui <= offset)
        total += (u1 - u0) * si + (sn - si) * share * (0.5 * (u0 + u1) - ui)
    return total


def solve_offset_for_area(c: ConvexPolygon, theta: float, fraction: float) -> LineCut:
    """The unique offset where piece a holds the given area fraction.
    Between consecutive vertex levels the clipped area is an exact quadratic
    in the offset, rising with it; a bisection over the sorted levels finds
    the pair that brackets the target, and the quadratic through the area at
    the pair's ends and midpoint is solved for it.  O(m log m)."""
    if not (0.0 < fraction < 1.0):
        raise ValueError("area fraction must be strictly between 0 and 1")
    theta = theta % math.pi
    n = (-math.sin(theta), math.cos(theta))
    V = c.vertices
    levels = sorted({x * n[0] + y * n[1] for x, y in V})
    want = fraction * c.area

    def area(o: float) -> float:
        return cut_area(V, n, o)

    # area(levels[0]) = 0 < want, and the last level holds the whole area
    k = bisect.bisect_left(levels, want, lo=1, hi=len(levels) - 1, key=area)
    lo, hi = levels[k - 1], levels[k]
    x = rising_quadratic_root(area(lo), area(0.5 * (lo + hi)), area(hi), want)
    return LineCut(theta, lo + x * (hi - lo))


def random_convex_polygon(rng, max_vertices: int = 12) -> ConvexPolygon:
    """Hull of random points; useful for seeded property sweeps."""
    while True:
        k = rng.randint(4, max(4, max_vertices + 2))
        pts = [(rng.uniform(-1, 1) * rng.uniform(0.5, 3.0),
                rng.uniform(-1, 1) * rng.uniform(0.5, 3.0)) for _ in range(k)]
        hull = convex_hull(pts)
        if len(hull) >= 3:
            try:
                return ConvexPolygon(hull)
            except ValueError:
                continue
