"""Exact convex bodies bounded by circular arcs and segments.

An `ArcPolygon` stores its boundary as pieces in outward-normal order.  A
piece is a centre c, a radius r >= 0 and the normal interval [lo, hi] it
covers: its boundary point with outward normal u(t) = (cos t, sin t) is
c + r u(t), so a corner is a piece of radius 0.  The segment from the end of
one piece to the start of the next is implied; its normal is the first
piece's hi.  On each piece the support function is h(t) = c.u(t) + r, and
every metric is a closed form per piece:

    perimeter = sum of r (hi - lo) and of the segment lengths
    area      = 1/2 of the integral of x dy - y dx (Green), per arc and per segment
    width(t)  = h(t) + h(t + pi), the support function of K + (-K)

The Minkowski combination a K + b L merges the normal intervals of K and L
and adds their centres and radii with the same weights.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Iterable, List, NamedTuple, Sequence, Tuple

TAU = 2.0 * math.pi
# Normal angles closer than this are one breakpoint.
ANGLE_EPS = 1e-12


class Piece(NamedTuple):
    lo: float
    hi: float
    x: float
    y: float
    r: float

    def point(self, t: float) -> Tuple[float, float]:
        return self.x + self.r * math.cos(t), self.y + self.r * math.sin(t)

    def support(self, t: float) -> float:
        return self.x * math.cos(t) + self.y * math.sin(t) + self.r


class ArcPolygon:
    """Immutable convex body bounded by arcs and segments; raises
    ValueError unless the pieces cover the normal circle once, in order,
    with radii >= 0 and every implied segment running counterclockwise."""

    __slots__ = ("pieces", "_starts")

    def __init__(self, pieces: Iterable[Sequence[float]]):
        ps = [Piece(*map(float, p)) for p in pieces]
        if not ps or not all(p.r >= 0 and p.hi >= p.lo for p in ps):
            raise ValueError("arc pieces need radii >= 0 and ordered normal intervals")
        size = max(abs(p.x) + abs(p.y) + p.r for p in ps)
        if not math.isfinite(size):
            raise ValueError("arc pieces need finite centres and radii")
        for p, q in zip(ps, ps[1:] + [ps[0]._replace(lo=ps[0].lo + TAU)]):
            if abs(q.lo - p.hi) > ANGLE_EPS:
                raise ValueError("arc pieces must cover the normal circle once, in order")
            (ax, ay), (bx, by) = p.point(p.hi), q.point(q.lo)
            # the segment lies on the support line of normal p.hi and runs
            # counterclockwise along it
            c, s = math.cos(p.hi), math.sin(p.hi)
            off_line, forward = (bx - ax) * c + (by - ay) * s, (by - ay) * c - (bx - ax) * s
            if abs(off_line) > 1e-9 * size or forward < -1e-9 * size:
                raise ValueError("arc pieces do not bound a convex body")
        self.pieces: Tuple[Piece, ...] = tuple(p for p in ps if p.hi > p.lo)
        self._starts = [p.lo for p in self.pieces]

    @classmethod
    def disc(cls, width: float) -> "ArcPolygon":
        return cls([(0.0, TAU, 0.0, 0.0, 0.5 * width)])

    @classmethod
    def reuleaux(cls, width: float) -> "ArcPolygon":
        """Reuleaux triangle of the given width about the centre of its
        vertices, which sit at 90, 210 and 330 degrees: on each sixth of the
        normal circle, alternately the arc about the opposite vertex and a
        vertex."""
        rc = width / math.sqrt(3.0)
        pieces = []
        for k in range(6):
            lo, hi = TAU * k / 6, TAU * (k + 1) / 6
            v = lo + math.pi / 6 + (math.pi if k % 2 == 0 else 0.0)
            pieces.append((lo, hi, rc * math.cos(v), rc * math.sin(v), width if k % 2 == 0 else 0.0))
        return cls(pieces)

    @classmethod
    def lens(cls, chord: float, half_angle: float) -> "ArcPolygon":
        """Two arcs of half-angle a over a horizontal chord centred at the
        origin; a = pi/2 is the disc of that diameter."""
        a = half_angle
        rho = chord / (2.0 * math.sin(a))
        e = rho * math.cos(a)
        q = math.pi / 2
        return cls([(-q + a, q - a, 0.5 * chord, 0.0, 0.0), (q - a, q + a, 0.0, -e, rho),
                    (q + a, 3 * q - a, -0.5 * chord, 0.0, 0.0), (3 * q - a, 3 * q + a, 0.0, e, rho)])

    @classmethod
    def sector(cls, radius: float, phi: float) -> "ArcPolygon":
        """Circular sector with its apex at the origin, opening angle phi
        in (0, pi] symmetric about the x axis."""
        h, q = 0.5 * phi, math.pi / 2
        return cls([(-h, h, 0.0, 0.0, radius),
                    (h, h + q, radius * math.cos(h), radius * math.sin(h), 0.0),
                    (h + q, 3 * q - h, 0.0, 0.0, 0.0),
                    (3 * q - h, TAU - h, radius * math.cos(h), -radius * math.sin(h), 0.0)])

    @classmethod
    def polygon(cls, points: Sequence[Sequence[float]]) -> "ArcPolygon":
        """Convex polygon with counterclockwise vertices: one corner each,
        between the normals of its two edges."""
        def normal(a, b):
            return math.atan2(a[0] - b[0], b[1] - a[1])

        lo = normal(points[-1], points[0])
        pieces = []
        for i, v in enumerate(points):
            hi = lo + (normal(v, points[(i + 1) % len(points)]) - lo) % TAU
            pieces.append((lo, hi, v[0], v[1], 0.0))
            lo = hi
        return cls(pieces)

    def _piece_at(self, t: float) -> Piece:
        lo = self._starts[0]
        return self.pieces[bisect_right(self._starts, lo + (t - lo) % TAU) - 1]

    def support(self, t: float) -> float:
        return self._piece_at(t).support(t)

    def _joints(self) -> List[Tuple[Piece, Tuple[float, float], Tuple[float, float]]]:
        """Each piece with its end point and the start point of the next
        piece: the two ends of the segment between them."""
        ps = self.pieces
        return [(p, p.point(p.hi), q.point(q.lo)) for p, q in zip(ps, ps[1:] + ps[:1])]

    @property
    def area(self) -> float:
        total = 0.0
        for p, (ex, ey), (sx, sy) in self._joints():
            total += p.r * (p.x * (math.sin(p.hi) - math.sin(p.lo))
                            + p.y * (math.cos(p.lo) - math.cos(p.hi)) + p.r * (p.hi - p.lo))
            total += ex * sy - ey * sx  # the segment to the next piece
        return 0.5 * total

    @property
    def perimeter(self) -> float:
        return sum(p.r * (p.hi - p.lo) + math.dist(e, s) for p, e, s in self._joints())

    def combine(self, other: "ArcPolygon", s: float) -> "ArcPolygon":
        """(1 - s) self + s other as a Minkowski combination."""
        return self._sum(other, 1.0 - s, s)

    def _sum(self, other: "ArcPolygon", a: float, b: float) -> "ArcPolygon":
        lo = self._starts[0]
        cuts: List[float] = []
        for c in sorted(lo + (p.lo - lo) % TAU for p in self.pieces + other.pieces):
            if not cuts or c - cuts[-1] > ANGLE_EPS:
                cuts.append(c)
        while lo + TAU - cuts[-1] <= ANGLE_EPS:
            cuts.pop()
        cuts.append(lo + TAU)
        pieces = []
        for c0, c1 in zip(cuts, cuts[1:]):
            p, q = self._piece_at(0.5 * (c0 + c1)), other._piece_at(0.5 * (c0 + c1))
            pieces.append((c0, c1, a * p.x + b * q.x, a * p.y + b * q.y, a * p.r + b * q.r))
        return ArcPolygon(pieces)

    def widths(self) -> Tuple[float, float]:
        """(minimum width, diameter): the extremes of h(t) + h(t + pi), read
        per piece of K + (-K) from its ends and its stationary points, where
        u(t) is parallel to the piece's centre."""
        flipped = ArcPolygon((p.lo + math.pi, p.hi + math.pi, -p.x, -p.y, p.r) for p in self.pieces)
        values = []
        for p in self._sum(flipped, 1.0, 1.0).pieces:
            values += [p.support(p.lo), p.support(p.hi)]
            rho, toward = math.hypot(p.x, p.y), math.atan2(p.y, p.x)
            for sign, t in ((1.0, toward), (-1.0, toward + math.pi)):
                if (t - p.lo) % TAU <= p.hi - p.lo:
                    values.append(p.r + sign * rho)
        return min(values), max(values)

    def bounds(self) -> Tuple[float, float, float, float]:
        """(x_min, y_min, x_max, y_max), from the support function."""
        q = math.pi / 2
        return -self.support(2 * q), -self.support(3 * q), self.support(0.0), self.support(q)

    def outline(self) -> Tuple[Tuple[float, float], List[Tuple[float, float, float]]]:
        """The boundary as a start point and counterclockwise steps
        (x, y, r) to the next point: a segment when r = 0, else an arc of
        radius r turning at most a half turn.  The last step ends at the
        start point."""
        tol = 1e-12 * max(abs(p.x) + abs(p.y) + p.r for p in self.pieces)
        joints = self._joints()
        steps = []
        for p, end, there in joints:
            if p.r > 0:
                n = 1 if p.hi - p.lo <= math.pi else 2
                steps += [(*p.point(p.lo + (p.hi - p.lo) * k / n), p.r) for k in range(1, n + 1)]
            if math.dist(end, there) > tol:
                steps.append((*there, 0.0))
        return joints[-1][2], steps
