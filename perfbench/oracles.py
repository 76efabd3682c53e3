"""Independent answers the benchmark checks the program's outputs against.

Nothing here imports convexkit: every oracle is either a recorded value
from the acceptance gate or a closed form / brute-force recomputation
written separately from the program's own code.
"""

from __future__ import annotations

import math
from fractions import Fraction

# Divisor-count records up to 1.5M and their divisor counts (acceptance
# criterion 04).
RECORDS = [
    1, 2, 4, 6, 12, 24, 36, 48, 60, 120, 180, 240, 360, 720, 840,
    1260, 1680, 2520, 5040, 7560, 10080, 15120, 20160, 25200, 27720,
    45360, 50400, 55440, 83160, 110880, 166320, 221760, 277200, 332640,
    498960, 554400, 665280, 720720, 1081080, 1441440,
]
RECORD_DIVISOR_COUNTS = [
    1, 2, 3, 4, 6, 8, 9, 10, 12, 16, 18, 20, 24, 30, 32, 36, 40, 48,
    60, 64, 72, 80, 84, 90, 96, 100, 108, 120, 128, 144, 160, 168,
    180, 192, 200, 216, 224, 240, 256, 288,
]

# Number of n-room mosaic floorplans (Baxter numbers), n = 1..8.
BAXTER = [1, 2, 6, 22, 92, 422, 2074, 10754]

# Feasible widths of the h=60, i=5, L=4 census and the split census of
# h=60, i=5, L=118 (acceptance criterion 03).
CENSUS_60_5 = [5, 6, 10, 12, 15, 20, 30, 60]
SPLIT_60_5_118_COUNT = 9
SPLIT_60_5_118_EXTRA = 59

REULEAUX_AREA_COEFF = 0.5 * (math.pi - math.sqrt(3.0))


class CheckFailed(Exception):
    """A job's output disagrees with its oracle."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def close(a: float, b: float, tol: float, what: str) -> None:
    expect(abs(a - b) <= tol, f"{what}: {a!r} vs {b!r} (tol {tol:g})")


def rational(text) -> Fraction:
    return Fraction(str(text))


def divisor_count(v: int) -> int:
    return sum(2 if d * d != v else 1 for d in range(1, math.isqrt(v) + 1) if v % d == 0)


# ------------------------------------------------------------------ tilings


def check_tiling(tiles: dict, width: Fraction, height: Fraction, placements) -> None:
    """Exact check that `placements` tile the width x height rectangle:
    every tile used once, inside the target, pairwise interiors disjoint,
    and areas summing to the target area.  `tiles` maps id -> (w, h)."""
    ids = [int(p["id"]) for p in placements]
    expect(sorted(ids) == sorted(tiles), f"placed ids {sorted(ids)} != tile ids {sorted(tiles)}")
    rects = []
    for p in placements:
        w, h = tiles[int(p["id"])]
        if p["rotated"]:
            w, h = h, w
        x, y = rational(p["x"]), rational(p["y"])
        expect(x >= 0 and y >= 0 and x + w <= width and y + h <= height,
               f"tile {p['id']} leaves the {width} x {height} target")
        rects.append((x, y, x + w, y + h))
    for i, a in enumerate(rects):
        for b in rects[i + 1:]:
            overlap = min(a[2], b[2]) > max(a[0], b[0]) and min(a[3], b[3]) > max(a[1], b[1])
            expect(not overlap, f"tiles overlap: {a} and {b}")
    area = sum((w * h for w, h in tiles.values()), Fraction(0))
    expect(area == width * height, f"tile area {area} != target area {width * height}")


def two_tile_targets(a: tuple, b: tuple) -> set:
    """Every rectangle (larger side first) that two rectangles tile: they
    must share a full side, in some orientation of each."""
    out = set()
    for wa, ha in {a, a[::-1]}:
        for wb, hb in {b, b[::-1]}:
            if ha == hb:
                out.add((max(wa + wb, ha), min(wa + wb, ha)))
    return out


# ------------------------------------------------------------- fair cuts


def _clip_below(pts, n, offset):
    """The part of polygon `pts` with p . n <= offset (Sutherland-Hodgman)."""
    out = []
    m = len(pts)
    for i in range(m):
        p, q = pts[i], pts[(i + 1) % m]
        dp = p[0] * n[0] + p[1] * n[1] - offset
        dq = q[0] * n[0] + q[1] * n[1] - offset
        if dp <= 0:
            out.append(p)
        if dp * dq < 0:
            t = dp / (dp - dq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return out


def _area(pts):
    return 0.5 * sum(pts[i - 1][0] * pts[i][1] - pts[i][0] * pts[i - 1][1] for i in range(len(pts)))


def _perimeter(pts):
    return sum(math.dist(pts[i - 1], pts[i]) for i in range(len(pts)))


def cut_rho(pts, theta: float, fraction: float) -> float:
    """Perimeter ratio of the two pieces of the straight cut at angle
    theta that gives the p . n <= offset side the area share `fraction`."""
    n = (-math.sin(theta), math.cos(theta))
    d = [p[0] * n[0] + p[1] * n[1] for p in pts]
    lo, hi = min(d), max(d)
    total = _area(pts)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _area(_clip_below(pts, n, mid)) < fraction * total:
            lo = mid
        else:
            hi = mid
    offset = 0.5 * (lo + hi)
    small = _clip_below(pts, n, offset)
    big = _clip_below(pts, (-n[0], -n[1]), -offset)
    return _perimeter(small) / _perimeter(big)


def polygon_points(shape: str):
    kind, _, rest = shape.partition(":")
    if kind == "rect":
        w, _, h = rest.partition("x")
        w, h = float(Fraction(w)), float(Fraction(h))
        return [(0.0, 0.0), (w, 0.0), (w, h), (0.0, h)]
    n = int(rest)
    return [(math.cos(2 * math.pi * k / n), math.sin(2 * math.pi * k / n)) for k in range(n)]


def disc_chord_rho(fraction: float) -> float:
    """rho of the straight chord cutting area share `fraction` off the unit
    disc: half-angle u solves u - sin u cos u = pi * fraction (Newton)."""
    u = 1.0
    for _ in range(100):
        g = u - math.sin(u) * math.cos(u) - math.pi * fraction
        u -= g / (2.0 * math.sin(u) ** 2)
    chord = 2.0 * math.sin(u)
    return (2.0 * u + chord) / (2.0 * math.pi - 2.0 * u + chord)


# ------------------------------------------------------------ shapes, solids


def sector(radius: float, phi: float) -> dict:
    return {
        "area": 0.5 * radius * radius * phi,
        "perimeter": radius * (2.0 + phi),
        "diameter": radius if phi <= math.pi / 3 else 2.0 * radius * math.sin(phi / 2),
    }


def constant_width_area(t: float, width: float) -> float:
    """Steiner: the Minkowski mean (1-t) Reuleaux + t disc has area
    A_disc - (1-t)^2 (A_disc - A_Reuleaux)."""
    disc = 0.25 * math.pi * width * width
    return disc - (1.0 - t) ** 2 * (disc - REULEAUX_AREA_COEFF * width * width)


def cube_with_pyramids_volume(a: float, h: float) -> float:
    return a ** 3 + 2.0 * a * a * h / 3.0


def rhombicuboctahedron_volume(edge: float) -> float:
    return (12.0 + 10.0 * math.sqrt(2.0)) / 3.0 * edge ** 3


def icosagonal_dipyramid_volume(s: float, l: float) -> float:
    n = 20
    r = s / (2.0 * math.sin(math.pi / n))
    base = 0.5 * n * r * r * math.sin(2.0 * math.pi / n)
    return 2.0 * base * math.sqrt(l * l - r * r) / 3.0
