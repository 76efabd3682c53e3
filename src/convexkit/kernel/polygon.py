"""Convex polygons in the float kernel: metrics and clipping helpers.

Vertices are stored counterclockwise with the lexicographically smallest
vertex first. Construction rejects an area that is 0 or not a finite float,
drops points within 1e-12 times the polygon's extent (the longer side of
its bounding box, so the tolerance does not grow with the distance from the
origin) of their predecessor, and middle points whose turn sine is at most
1e-12; everything else runs at the 1e-9 tolerance used across the
floating-point paths.  The minimum width and the diameter are
`ArcPolygon.polygon(vertices).widths()`.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .. import Frozen, UnsupportedInstance

EPS = 1e-9
_CLEAN_EPS = 1e-12
MAX_NGON_VERTICES = 100_000  # O(n) to build; its rotation order leaves its sweep O(1) events

Point = tuple[float, float]


class ConvexPolygon(Frozen):
    """Immutable convex polygon; raises ValueError on degenerate input.
    `rotation_order` is the order of a rotation symmetry the polygon is
    known to have: n from `regular_ngon(n)`, 1 from the constructor.  The
    fair-cut sweep walks the events of one period of it.  Two polygons are
    equal when their vertices and rotation orders are, so
    `regular_ngon(6) != ConvexPolygon(regular_ngon(6).vertices)`: equal
    polygons give bit-identical sweeps."""

    __slots__ = ("vertices", "area", "perimeter", "rotation_order")

    def __init__(self, points: Iterable[Sequence[float]]):
        pts = [(float(x), float(y)) for x, y in points]
        if len(pts) < 3:
            raise ValueError("need at least 3 vertices")
        # signed area decides orientation; flip clockwise input.  An inf or
        # nan coordinate makes it inf or nan; one that rounds to 0 has no inside
        area = ring_area(pts)
        if not (math.isfinite(area) and area != 0.0):
            raise ValueError(f"polygon has a non-finite coordinate, or an area of {area}")
        xs, ys = zip(*pts)
        scale = max(max(xs) - min(xs), max(ys) - min(ys))
        if area < 0:
            pts.reverse()

        pts = self._cleanup(pts, scale)
        if len(pts) < 3:
            raise ValueError("degenerate polygon after cleanup")

        super().__init__(*_smallest_first(pts), 1)

    @staticmethod
    def _cleanup(pts: list[Point], scale: float) -> list[Point]:
        out = dedupe_ring(pts, _CLEAN_EPS * scale)
        # drop middles whose turn sine, cross / (|a - o| |b - a|), is <= 1e-12:
        # unlike the bare cross product, it does not shrink as n grows.  The
        # pass that drops nothing also checks that every kept turn is a left
        # one.  A vertex turns from edge u, into it, to edge v, out of it; v
        # is the next vertex's u, so each edge is measured once
        changed = True
        while changed and len(out) >= 3:
            changed = reflex = False
            kept = []
            (ox, oy), (ax, ay) = out[-1], out[0]
            ux, uy = ax - ox, ay - oy
            lu = math.hypot(ux, uy)
            for a, (bx, by) in zip(out, out[1:] + out[:1]):
                vx, vy = bx - a[0], by - a[1]
                lv = math.hypot(vx, vy)
                cross = ux * vy - uy * vx
                if abs(cross) > _CLEAN_EPS * lu * lv:
                    kept.append(a)
                    reflex = reflex or cross < 0
                else:
                    changed = True
                ux, uy, lu = vx, vy, lv
            out = kept
        if len(out) >= 3 and reflex:
            raise ValueError("vertices are not strictly convex counterclockwise")
        return out

    def __len__(self) -> int:
        return len(self.vertices)

    def __repr__(self) -> str:
        return (f"ConvexPolygon({len(self.vertices)}-gon, area={self.area:.6g}, "
                f"rotation_order={self.rotation_order})")


def _smallest_first(pts: list[Point]) -> tuple[tuple[Point, ...], float, float]:
    """The fields of a clean counterclockwise ring's polygon: its vertices
    from the lexicographically smallest, their area and perimeter."""
    start = min(range(len(pts)), key=pts.__getitem__)
    vertices = tuple(pts[start:] + pts[:start])
    return vertices, ring_area(vertices), ring_perimeter(vertices)


def ring_area(pts: Sequence[Point]) -> float:
    """Signed shoelace area of a closed ring, convex or not; positive when
    the ring runs counterclockwise.  Coordinates are measured from the first
    point, so the terms do not cancel when the ring lies far from the origin."""
    ox, oy = pts[0]
    return 0.5 * sum(
        (x0 - ox) * (y1 - oy) - (x1 - ox) * (y0 - oy)
        for (x0, y0), (x1, y1) in zip(pts, pts[1:] + pts[:1])
    )


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


def rectangle(width: float, height: float) -> ConvexPolygon:
    if width <= 0 or height <= 0:
        raise ValueError("rectangle sides must be positive")
    return ConvexPolygon([(0.0, 0.0), (width, 0.0), (width, height), (0.0, height)])


def regular_ngon(n: int) -> ConvexPolygon:
    """The regular n-gon inscribed in the unit circle, a vertex at (1, 0).
    Its ring is counterclockwise, with no repeated point and every turn sine
    sin(2 pi / n) >= 6e-5, far above the 1e-12 of `ConvexPolygon`'s cleanup,
    so it is built from its ring as it stands, with the same vertices, area
    and perimeter, and a rotation order of n."""
    if n < 3:
        raise ValueError("need n >= 3")
    if n > MAX_NGON_VERTICES:
        raise UnsupportedInstance(f"n = {n:,} is over the polygon cap of {MAX_NGON_VERTICES:,} vertices")
    angles = [math.tau * k / n for k in range(n)]
    c = ConvexPolygon.__new__(ConvexPolygon)
    Frozen.__init__(c, *_smallest_first(list(zip(map(math.cos, angles), map(math.sin, angles)))), n)
    return c

