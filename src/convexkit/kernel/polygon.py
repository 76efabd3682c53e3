"""Convex polygons in the float kernel: metrics, widths, clipping helpers.

Vertices are stored counterclockwise with the lexicographically smallest
vertex first. Construction drops points within 1e-12 (relative to the
coordinate scale) of their predecessor, and middle points whose turn sine
is at most 1e-12; everything else runs at the 1e-9 tolerance used across
the floating-point paths.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .arcs import ArcPolygon

EPS = 1e-9
_CLEAN_EPS = 1e-12
MAX_NGON_VERTICES = 100_000  # each fair-cut command costs O(n) per angle

Point = tuple[float, float]


def _cross(o: Point, a: Point, b: Point) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


class ConvexPolygon:
    """Immutable convex polygon; raises ValueError on degenerate input."""

    __slots__ = ("vertices", "_area", "_perimeter")

    def __init__(self, points: Iterable[Sequence[float]]):
        pts = [(float(x), float(y)) for x, y in points]
        if len(pts) < 3:
            raise ValueError("need at least 3 vertices")
        scale = max(max(abs(x), abs(y)) for x, y in pts) or 1.0

        # signed area decides orientation; flip clockwise input
        if ring_area(pts) < 0:
            pts.reverse()

        pts = self._cleanup(pts, scale)
        if len(pts) < 3:
            raise ValueError("degenerate polygon after cleanup")
        for i in range(len(pts)):
            if _cross(pts[i], pts[(i + 1) % len(pts)], pts[(i + 2) % len(pts)]) <= 0:
                raise ValueError("vertices are not strictly convex counterclockwise")

        start = min(range(len(pts)), key=lambda i: pts[i])
        self.vertices: tuple[Point, ...] = tuple(pts[start:] + pts[:start])
        self._area: float | None = None
        self._perimeter: float | None = None

    @staticmethod
    def _cleanup(pts: list[Point], scale: float) -> list[Point]:
        out = dedupe_ring(pts, _CLEAN_EPS * scale)
        # drop middles whose turn sine, cross / (|a - o| |b - a|), is <= 1e-12:
        # unlike the bare cross product, it does not shrink as n grows
        changed = True
        while changed and len(out) >= 3:
            changed = False
            kept = []
            n = len(out)
            for i in range(n):
                (ox, oy), (ax, ay), (bx, by) = out[i - 1], out[i], out[(i + 1) % n]
                ux, uy, vx, vy = ax - ox, ay - oy, bx - ax, by - ay
                if abs(ux * vy - uy * vx) > _CLEAN_EPS * math.hypot(ux, uy) * math.hypot(vx, vy):
                    kept.append(out[i])
                else:
                    changed = True
            out = kept
        return out

    def __len__(self) -> int:
        return len(self.vertices)

    def __repr__(self) -> str:
        return f"ConvexPolygon({len(self.vertices)} vertices, area={self.area:.6g})"

    @property
    def area(self) -> float:
        if self._area is None:
            self._area = ring_area(self.vertices)
        return self._area

    @property
    def perimeter(self) -> float:
        if self._perimeter is None:
            self._perimeter = ring_perimeter(self.vertices)
        return self._perimeter

    def contains(self, p: Sequence[float], tol: float = EPS) -> bool:
        px, py = float(p[0]), float(p[1])
        n = len(self.vertices)
        for i in range(n):
            a, b = self.vertices[i], self.vertices[(i + 1) % n]
            if (b[0] - a[0]) * (py - a[1]) - (b[1] - a[1]) * (px - a[0]) < -tol:
                return False
        return True


def ring_area(pts: Sequence[Point]) -> float:
    """Signed shoelace area of a closed ring, convex or not; positive when
    the ring runs counterclockwise."""
    return 0.5 * sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(pts, pts[1:] + pts[:1]))


def ring_perimeter(pts: Sequence[Point]) -> float:
    return sum(math.hypot(x1 - x0, y1 - y0) for (x0, y0), (x1, y1) in zip(pts, pts[1:] + pts[:1]))


def dedupe_ring(pts: Iterable[Point], eps: float) -> list[Point]:
    """Drop points within eps of their predecessor, and closing points
    within eps of the first."""
    out: list[Point] = []
    for p in pts:
        if not out or math.dist(out[-1], p) > eps:
            out.append(p)
    while len(out) > 1 and math.dist(out[0], out[-1]) <= eps:
        out.pop()
    return out


def is_convex_ring(pts: Sequence[Point], eps: float) -> bool:
    """Every turn of the ring bends the same way; turns whose cross
    product is within eps of 0 count as straight."""
    m = len(pts)
    sign = 0
    for i in range(m):
        ax, ay = pts[i]
        bx, by = pts[(i + 1) % m]
        cx, cy = pts[(i + 2) % m]
        cr = (bx - ax) * (cy - by) - (by - ay) * (cx - bx)
        if abs(cr) <= eps:
            continue
        s = 1 if cr > 0 else -1
        if sign == 0:
            sign = s
        elif s != sign:
            return False
    return True


def diameter(poly: ConvexPolygon) -> float:
    """Largest vertex-to-vertex distance: the largest width."""
    return ArcPolygon.polygon(poly.vertices).widths()[1]


def min_width(poly: ConvexPolygon) -> float:
    """Smallest width over all directions; attained normal to some edge."""
    return ArcPolygon.polygon(poly.vertices).widths()[0]


def rectangle(width: float, height: float) -> ConvexPolygon:
    if width <= 0 or height <= 0:
        raise ValueError("rectangle sides must be positive")
    return ConvexPolygon([(0.0, 0.0), (width, 0.0), (width, height), (0.0, height)])


def regular_ngon(n: int) -> ConvexPolygon:
    """The regular n-gon inscribed in the unit circle, a vertex at (1, 0)."""
    if n < 3:
        raise ValueError("need n >= 3")
    if n > MAX_NGON_VERTICES:
        raise ValueError(f"n = {n:,} is over the polygon cap of {MAX_NGON_VERTICES:,} vertices")
    pts = [(math.cos(2 * math.pi * k / n), math.sin(2 * math.pi * k / n)) for k in range(n)]
    return ConvexPolygon(pts)


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


def convex_hull(points: Sequence[Point]) -> list[Point]:
    """Monotone chain; returns counterclockwise hull without repetition."""
    pts = sorted(set((float(x), float(y)) for x, y in points))
    if len(pts) <= 2:
        return pts
    lower: list[Point] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Point] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]
