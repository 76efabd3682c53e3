"""Straight-cut area partitions of convex regions and the perimeter ratios
they realize.

A cut with angle theta and signed offset o is the line {p : p . n = o} with
n = (-sin theta, cos theta); theta lives in [0, pi).  For a prescribed area
split a:b the offset is uniquely determined per angle, so the perimeter
ratio of the two pieces becomes a continuous function of theta.  A scaled
fair cut is an angle where that ratio hits sqrt(a/b), the value forced when
the two pieces are similar.

Costs for an m-vertex polygon: `split` is O(m).  `perimeter_ratio_profile`
and `find_scaled_fair_cut` sample K angles with one chord sweep, which
walks the vertex events over [0, pi] once (an end of the cut passing a
vertex, O(1) each, about m in all) and keeps the cut's two boundary edges
on each interval between them.  Each angle, and each bisection step of a
refinement, is then a lookup of its interval plus one closed-form
evaluation of the offset: O(m + K) in all, in O(m) memory.  The sweep
walks the events of one period of the polygon's `rotation_order` only,
O(1) of them on a regular N-gon, which costs O(N) to build and to sum.
The cut that halves both the area and the perimeter is
`find_scaled_fair_cut` at 1:1, which always finds one.  Levels and
shoelace terms are measured from the polygon's first vertex, and a found
cut carries its offset from there to `split`, so a cut does not depend on
where the polygon sits.

The band family at the end partitions a rectangle without a straight
cut: piece one is the set of points within distance t of a boundary arc
of length s * perimeter from the bottom edge midpoint, counterclockwise,
with t meeting the area target.  Its feasible runs in s, their rho ranges
and the bands with rho = sqrt(a/b) are closed forms, not samples.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import accumulate
from operator import mul, neg, sub
from typing import List, NamedTuple, Optional, Tuple

from . import Frozen, UnsupportedInstance
from .kernel.polygon import (
    EPS, ConvexPolygon, dedupe_ring, is_convex_ring, ring_area, ring_perimeter
)
from .kernel.roots import bisect_root, rising_quadratic_root, segment_over_cube

# a sampled profile keeps about 0.4 KB per angle, so the cap holds it near 60 MiB
MAX_ANGLE_SAMPLES = 100_000
DEFAULT_ANGLE_SAMPLES = 720
DEFAULT_CUT_TOL = 1e-9
DEFAULT_BAND_TOL = 1e-6


class RatioTarget(Frozen):
    """Area ratio a:b, stored with a <= b so piece one is never the larger."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        if a < 1 or b < 1:
            raise ValueError("ratio parts must be positive integers")
        super().__init__(min(a, b), max(a, b))

    @property
    def fraction(self) -> float:
        """Area fraction of the smaller piece."""
        return self.a / (self.a + self.b)

    @property
    def rho(self) -> float:
        """Perimeter ratio sqrt(a/b) forced by similarity of the pieces."""
        return math.sqrt(self.a / self.b)

    def __str__(self):
        return f"{self.a}:{self.b}"


def parse_ratio(text: str) -> RatioTarget:
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"expected A:B, got {text!r}")
    try:
        a, b = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"expected integers in A:B, got {text!r}") from None
    return RatioTarget(a, b)


class LineCut(Frozen):
    """theta normalized to [0, pi); the line is {p . n = offset} with
    n = (-sin theta, cos theta).  Piece a is the side p . n <= offset.  A cut
    solved on a polygon keeps its offset from the first vertex, `origin`, as
    `level`, which `split` uses: far from the origin offsets round."""

    __slots__ = ("theta", "offset", "origin", "level")

    def __init__(self, theta: float, offset: float,
                 origin: Optional[Tuple[float, float]] = None, level: float = 0.0):
        t = theta % math.pi
        if t != theta:
            # An odd multiple of pi flips the normal; negate the offsets so
            # the normalized cut describes the same line.
            if round((theta - t) / math.pi) % 2 != 0:
                offset, level = -offset, -level
            theta = t
        super().__init__(theta, offset, origin, level)

    @property
    def normal(self) -> Tuple[float, float]:
        return (-math.sin(self.theta), math.cos(self.theta))


class SplitResult(NamedTuple):
    """Areas and perimeters are measured before the pieces' vertices move
    back from the first vertex, so they hold wherever the polygon sits."""

    piece_a: ConvexPolygon
    piece_b: ConvexPolygon
    cut_length: float
    area_a: float
    area_b: float
    perimeter_a: float
    perimeter_b: float


def split(c: ConvexPolygon, cut: LineCut) -> Optional[SplitResult]:
    """Cut the polygon along the line.  None when the line misses the
    interior (one piece would be empty or degenerate).  Coordinates and
    levels are measured from the first vertex, as the sweep measures them."""
    n0, n1 = cut.normal
    x0, y0 = c.vertices[0]
    V = [(x - x0, y - y0) for x, y in c.vertices]
    d = [x * n0 + y * n1 for x, y in V]
    offset = cut.level if cut.origin == (x0, y0) else cut.offset - (x0 * n0 + y0 * n1)
    lo, hi = min(d), max(d)
    margin = EPS * (hi - lo)
    if offset <= lo + margin or offset >= hi - margin:
        return None

    side_a: List[Tuple[float, float]] = []
    side_b: List[Tuple[float, float]] = []
    on_cut: List[Tuple[float, float]] = []  # the chord's two ends
    for p, q, dp, dq in zip(V, V[1:] + V[:1], d, d[1:] + d[:1]):
        if dp <= offset:
            side_a.append(p)
        if dp >= offset:
            side_b.append(p)
        if dp == offset:
            on_cut.append(p)
        if dp < offset < dq or dq < offset < dp:
            t = (offset - dp) / (dq - dp)
            x = (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))
            side_a.append(x)
            side_b.append(x)
            on_cut.append(x)
    try:
        pa, pb = (ConvexPolygon([(x + x0, y + y0) for x, y in side]) for side in (side_a, side_b))
    except ValueError:
        return None
    return SplitResult(pa, pb, math.dist(on_cut[0], on_cut[-1]), ring_area(side_a),
                       ring_area(side_b), ring_perimeter(side_a), ring_perimeter(side_b))


class ProfilePoint(NamedTuple):
    theta: float
    offset: float
    area_a: float
    area_b: float
    perimeter_a: float
    perimeter_b: float
    cut_length: float
    rho: float
    level: float  # the offset measured from the polygon's first vertex


class _ChordSweep:
    """The cut holding a fixed area fraction of one convex polygon, at any
    angle in [0, pi].  A polygon of rotation order k repeats the events of
    [0, 2 pi / k], shifted by m / k vertices a period: the walk stops at the
    end of the first period (or at pi), which leaves a regular N-gon with
    O(1) events.

    The boundary below the cut is the arc v[i+1..j]: edge i enters it
    (falling) and edge j leaves it (rising).  As theta grows both ends of the
    cut move counterclockwise (two nearby chords of equal area cross), so
    (i, j) changes only at vertex events, where an end passes a vertex.  With
    P = v[i+1], Q = v[j], R = v[j+1], the end on edge i reaches P first when
    the arc P..R holds the target area, and the other end then solves one
    linear equation on edge j; otherwise the end on edge j reaches R first,
    and the end on edge i solves one.  So each event is O(1) from prefix sums
    of the shoelace terms, at the angle of its chord, and the events of one
    period are walked once, on construction.  At an angle, (i, j) fixes the
    pair of vertex levels around the cut, [max(u_i+1, u_j), min(u_i, u_j+1)];
    on it the chord length w and the boundary length are linear in the level
    and the area is the integral of w, so one closed-form evaluation from w at
    both ends gives the offset.  Coordinates are measured from the first
    vertex, so no shoelace term or level cancels far from the origin.
    """

    def __init__(self, c: ConvexPolygon, fraction: float):
        self.origin = x0, y0 = c.vertices[0]
        self.m = m = len(c.vertices)
        self.period, self.shift = math.tau / c.rotation_order, m // c.rotation_order
        # the ring doubled, so that every arc of fewer than m vertices is a
        # difference of prefix sums of the shoelace terms and edge lengths
        self.xs = xs = [x - x0 for x, _ in c.vertices] * 2
        self.ys = ys = [y - y0 for _, y in c.vertices] * 2
        ax, ay, bx, by = xs[:m], ys[:m], xs[1:m + 1], ys[1:m + 1]
        self.edges = list(map(math.hypot, map(sub, bx, ax), map(sub, by, ay))) * 2
        self.cross = list(accumulate(list(map(sub, map(mul, ax, by), map(mul, ay, bx))) * 2,
                                     initial=0.0))
        self.length = list(accumulate(self.edges, initial=0.0))
        self.want = fraction * c.area
        self.area, self.perimeter = c.area, c.perimeter
        # from angles[k] on, edges ii[k] and jj[k] hold the cut.  An angle is
        # the running maximum of the events, as rounding may put one a hair
        # below the one before: bisect_right then takes every event <= theta.
        (i, j), ahead, top = self._start(), 0.0, 0.0
        self.angles, self.ii, self.jj = [], [], []
        step, add_angle, add_i, add_j = (self._next_event, self.angles.append, self.ii.append,
                                         self.jj.append)
        end = min(math.pi, self.period)
        while ahead <= end:
            add_angle(top)
            add_i(i)
            add_j(j)
            ahead, i, j = step(i, j, ahead)
            top = ahead if ahead > top else top

    def _below(self, i: int, j: int, ui, ui1, uj, uj1, level: float):
        """Area, shares of edges i and j and chord below `level`, when the arc
        v[i+1..j] is below it; ui .. uj1 are the levels of v_i .. v_j+1."""
        xs, ys = self.xs, self.ys
        # a flat end edge lies on the level: either end of it closes the area
        a = (level - ui1) / (ui - ui1) if ui > ui1 else 0.0
        b = (level - uj) / (uj1 - uj) if uj1 > uj else 0.0
        px, py, qx, qy = xs[i + 1], ys[i + 1], xs[j], ys[j]
        ex, ey = px + a * (xs[i] - px), py + a * (ys[i] - py)
        fx, fy = qx + b * (xs[j + 1] - qx), qy + b * (ys[j + 1] - qy)
        area = 0.5 * (self.cross[j] - self.cross[i + 1] + (ex * py - ey * px)
                      + (qx * fy - qy * fx) + (fx * ey - fy * ex))
        return area, a, b, math.hypot(fx - ex, fy - ey)

    def _start(self) -> Tuple[int, int]:
        """(i, j) at theta = 0, from one pass over the levels, which are the
        y offsets there: the arc holds the vertices below the lowest vertex
        level whose cut holds the target.  Levels rise along b..t, from the
        lowest vertex to the highest, and fall along t..b+m, so bisections
        find that level and the arc."""
        m, u = self.m, self.ys[:self.m]
        b = min(range(m), key=u.__getitem__)
        u += u
        t = max(range(b, b + m), key=u.__getitem__)

        def arc(level: float, strict: bool) -> Tuple[int, int]:
            # the edges out of the vertices below the level (or at it)
            j = (bisect_left if strict else bisect_right)(u, level, b, t) - 1
            i = (bisect_right if strict else bisect_left)(u, -level, t + 1, b + m + 1, key=neg) - 1
            return (i - m, j) if i >= m else (i, j + m)

        def holds(k: int) -> bool:
            i, j = arc(u[k], False)
            return self._below(i, j, u[i], u[i + 1], u[j], u[j + 1], u[k])[0] >= self.want

        rising = b + bisect_left(range(b, t + 1), True, key=holds)
        falling = t - 1 + bisect_left(range(t, b + m + 1), True, key=lambda k: not holds(k))
        return arc(min(u[rising], u[falling]), True)

    def _next_event(self, i: int, j: int, theta: float) -> Tuple[float, int, int]:
        """The angle of the first event after theta from (i, j), and the edge
        pair that holds the cut after it."""
        xs, ys, twice = self.xs, self.ys, 2.0 * self.want
        px, py, qx, qy, rx, ry = xs[i + 1], ys[i + 1], xs[j], ys[j], xs[j + 1], ys[j + 1]
        # twice the area of the arc P..R closed by its chord
        arc = self.cross[j + 1] - self.cross[i + 1] + (rx * py - ry * px)
        if arc >= twice:
            # the end on edge i passes P; the chord from P ends short of R by
            # the share of the triangle PQR that the arc holds beyond the target
            s = (arc - twice) / ((qx - px) * (ry - qy) - (qy - py) * (rx - qx))
            dx, dy = rx - s * (rx - qx) - px, ry - s * (ry - qy) - py
            i += 1
            if i == self.m:
                i, j = 0, j - self.m
        else:
            # the end on edge j passes R; the chord to R starts on edge i, adding E P R
            ix, iy = xs[i], ys[i]
            s = (twice - arc) / ((rx - px) * (iy - py) - (ry - py) * (ix - px))
            dx, dy = rx - px - s * (ix - px), ry - py - s * (iy - py)
            j += 1
        # the chord's angle, unwrapped to lie within a half turn of theta
        return theta + (math.atan2(dy, dx) - theta + math.pi) % math.tau - math.pi, i, j

    def point(self, theta: float) -> ProfilePoint:
        """The profile point at theta in [0, pi]: the edge pair of its event
        interval, q periods on, then one closed-form evaluation at theta.
        Events at theta itself are taken."""
        q, rest = divmod(theta, self.period)
        k = bisect_right(self.angles, rest) - 1
        i, j = self.ii[k], self.jj[k]
        if q:
            s = int(q) * self.shift
            if i + s >= self.m:
                s -= self.m
            i, j = i + s, j + s
        return self._evaluate(i, j, theta)

    def _evaluate(self, i: int, j: int, theta: float) -> ProfilePoint:
        """The closed-form point at theta, when edges i and j hold the cut."""
        xs, ys, want = self.xs, self.ys, self.want
        n0, n1 = -math.sin(theta), math.cos(theta)
        ix, iy, px, py = xs[i], ys[i], xs[i + 1], ys[i + 1]
        qx, qy, rx, ry = xs[j], ys[j], xs[j + 1], ys[j + 1]
        ui, ui1 = ix * n0 + iy * n1, px * n0 + py * n1
        uj, uj1 = qx * n0 + qy * n1, rx * n0 + ry * n1
        lo, hi = max(ui1, uj), min(ui, uj1)
        area_a, a, b, chord = self._below(i, j, ui, ui1, uj, uj1, lo)
        level = lo
        # when two vertex levels tie (a diagonal through two vertices), the
        # area at lo may round up to the target: the cut then runs at lo
        if area_a < want:
            a_hi = (hi - ui1) / (ui - ui1) if ui > ui1 else 0.0
            b_hi = (hi - uj) / (uj1 - uj) if uj1 > uj else 0.0
            chord_hi = math.hypot(qx + b_hi * (rx - qx) - px - a_hi * (ix - px),
                                  qy + b_hi * (ry - qy) - py - a_hi * (iy - py))
            h, dw = hi - lo, chord_hi - chord
            f1 = area_a + 0.5 * h * (chord + chord_hi)
            x = rising_quadratic_root(area_a, area_a + h * (3.0 * chord + chord_hi) / 8.0, f1, want)
            level = lo + x * h
            area_a += h * x * (chord + 0.5 * dw * x)
            a += x * (a_hi - a)
            b += x * (b_hi - b)
            chord += x * dw
        perim_a = (self.length[j] - self.length[i + 1]
                   + a * self.edges[i] + b * self.edges[j] + chord)
        perim_b = self.perimeter - perim_a + 2.0 * chord
        offset = level + (self.origin[0] * n0 + self.origin[1] * n1)
        return ProfilePoint(theta, offset, area_a, self.area - area_a, perim_a, perim_b, chord,
                            perim_a / perim_b, level)


def _check_tol(tol: float) -> None:
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")


def _angle_grid(samples: int) -> List[float]:
    if samples < 4:
        raise ValueError(f"need at least 4 angle samples, got {samples}")
    if samples > MAX_ANGLE_SAMPLES:
        raise UnsupportedInstance(f"{samples:,} angles exceed the angle-sample cap of {MAX_ANGLE_SAMPLES:,}")
    return [j * math.pi / samples for j in range(samples)]


def perimeter_ratio_profile(
    c: ConvexPolygon, target: RatioTarget, samples: int = DEFAULT_ANGLE_SAMPLES
) -> List[ProfilePoint]:
    """rho(theta) on the uniform angle grid j*pi/samples, j = 0..samples-1.
    Piece a always carries the smaller area share, so rho is continuous
    on [0, pi).  Towards pi, piece a becomes the share on the other side of
    the theta = 0 cut, so rho tends to rho(0) only for a centrally
    symmetric region (to 1/rho(0) when a = b).  One chord sweep: O(m +
    samples) for m vertices, in O(m) memory."""
    return list(map(_ChordSweep(c, target.fraction).point, _angle_grid(samples)))


class FairCutResult(NamedTuple):
    """found: a cut whose pieces have area ratio a:b and perimeter ratio
    sqrt(a/b) within tol.  Otherwise rho_min/rho_max are the extremes of
    rho over the sampled angles, and the target lies outside that sampled
    range; rho between samples is not bounded, so this is no proof that
    no cut exists."""

    found: bool
    cut: Optional[LineCut]
    rho: Optional[float]
    rho_min: float
    rho_max: float


def find_scaled_fair_cut(
    c: ConvexPolygon, target: RatioTarget, tol: float = DEFAULT_CUT_TOL,
    samples: int = DEFAULT_ANGLE_SAMPLES
) -> FairCutResult:
    """Sample rho on the closed grid j*pi/samples, j = 0..samples, with one
    sweep.  The answer is the first grid point below pi within tol of
    sqrt(a/b), or else the bisection of the first sign change of
    rho - sqrt(a/b).  rho need not return to rho(0) at pi (see
    `perimeter_ratio_profile`), so the sweep evaluates theta = pi itself to
    bracket the last interval; a cut at pi is the theta = 0 line with its
    pieces swapped, so pi is only ever a bracket end.  At 1:1, rho(pi) is
    1/rho(0), so a sign change always exists.  The sweep walks the events
    once, in O(m); each grid angle and each bisection step is then a lookup
    of its event interval plus one closed-form evaluation."""
    _check_tol(tol)
    sweep = _ChordSweep(c, target.fraction)
    points = list(map(sweep.point, _angle_grid(samples) + [math.pi]))
    rhos = [p.rho for p in points]
    gaps = [rho - target.rho for rho in rhos]
    # the first, not the nearest: on a symmetric polygon many angles tie
    # within rounding, and rounding must not pick the answer
    p = next((points[j] for j in range(samples) if abs(gaps[j]) <= tol), None)
    # every gap below pi then exceeds tol > 0, so a product <= 0 is a sign change
    crossings = (j for j in range(samples) if gaps[j] * gaps[j + 1] <= 0)
    j = None if p is not None else next(crossings, None)
    if j is not None:
        sign = 1.0 if gaps[j] < 0 else -1.0
        theta = bisect_root(lambda t: sign * (sweep.point(t).rho - target.rho),
                            points[j].theta, points[j + 1].theta, ftol=tol)
        q = sweep.point(theta)
        p = q if abs(q.rho - target.rho) <= tol else None
    if p is None:
        return FairCutResult(False, None, None, min(rhos), max(rhos))
    cut = LineCut(p.theta, p.offset, sweep.origin, p.level)
    return FairCutResult(True, cut, p.rho, min(rhos), max(rhos))


def disc_chord_analysis(target: RatioTarget) -> dict:
    """Exact straight-chord computation on the unit disc.  The chord cutting
    area fraction f spans half-angle u solving u^3 S(u) = pi f, S being
    `segment_over_cube` in [4/pi^2, 2/3]; the piece perimeters follow in
    closed form.  By rotation invariance rho is constant over theta, so either
    the single value matches sqrt(a/b) or no straight cut works on the disc
    at this ratio."""
    want = math.pi * target.fraction
    lo, hi = (1.5 * want) ** (1 / 3), min((0.25 * math.pi ** 2 * want) ** (1 / 3), math.pi / 2)
    u = bisect_root(lambda x: x ** 3 * segment_over_cube(x) - want, lo, hi, xtol=1e-15 * lo)
    chord = 2.0 * math.sin(u)
    perim_small = 2.0 * u + chord
    perim_large = 2.0 * math.pi - 2.0 * u + chord
    rho = perim_small / perim_large
    return {
        "half_angle": u,
        "chord": chord,
        "rho": rho,
        "target_rho": target.rho,
        "achievable": abs(rho - target.rho) <= EPS,
        "gap": rho - target.rho,
    }


# ---------------------------------------------------------------------------
# Band family: one piece is a uniform-thickness neighborhood of a boundary
# arc that starts at the bottom edge midpoint and grows counterclockwise.


# why a band fails, in the order nonconvex_band_partition checks; also why runs have gaps
BAND_CHECKS = ("area equation has no real thickness", "thickness exceeds min(W,H)/2",
               "arm past the last corner is shorter than the thickness")


class BandSample(NamedTuple):
    s: float
    feasible: bool
    reason: Optional[str]
    arc_length: float
    corners_covered: int
    thickness: Optional[float] = None
    arm: Optional[float] = None
    piece_small: Optional[tuple] = None
    piece_big: Optional[tuple] = None
    area_small: Optional[float] = None
    area_big: Optional[float] = None
    perimeter_small: Optional[float] = None
    perimeter_big: Optional[float] = None
    rho: Optional[float] = None
    small_convex: Optional[bool] = None


def nonconvex_band_partition(
    width: float, height: float, target: RatioTarget, s: float
) -> BandSample:
    """One member of the band family on the [0,width] x [0,height] rectangle.

    The boundary arc has length s * perimeter and runs counterclockwise
    from the bottom edge midpoint.  The band of thickness t inside it has
    area ell*t - k*t^2, where k counts the rectangle corners the arc
    strictly covers; t is the smaller positive root meeting the area
    target.  The band is piece one (the smaller area share).
    """
    if not (0.0 < s <= 0.5):
        raise ValueError("arc fraction s must be in (0, 1/2]")
    W, H = float(width), float(height)
    if W <= 0 or H <= 0:
        raise ValueError("rectangle dimensions must be positive")
    per = 2.0 * (W + H)
    ell = s * per
    want = target.fraction * W * H
    tmax = 0.5 * min(W, H)
    scale = max(W, H)
    eps_len = 1e-12 * per

    # s <= 1/2 keeps the arc on the first three edges, so only the two
    # right-hand corners can be covered
    corners = [(0.5 * W, (W, 0.0)), (0.5 * W + H, (W, H))]
    covered = [c for c in corners if c[0] < ell - eps_len]
    k = len(covered)

    if k == 0:
        t = want / ell
    else:
        # a discriminant within rounding of 0 is the double root
        disc = ell * ell - 4.0 * k * want
        if disc < -1e-12 * ell * ell:
            return BandSample(s, False, BAND_CHECKS[0], ell, k)
        t = (ell - math.sqrt(max(disc, 0.0))) / (2.0 * k)
    arm = ell - covered[-1][0] if covered else None
    if t > tmax * (1.0 + 1e-12):
        return BandSample(s, False, BAND_CHECKS[1], ell, k, thickness=t, arm=arm)
    if covered and arm < t * (1.0 - 1e-12):
        return BandSample(s, False, BAND_CHECKS[2], ell, k, thickness=t, arm=arm)

    def outer_point(d):
        # ties resolve to the earlier edge so an arc ending exactly on a
        # corner keeps its cap perpendicular to the edge it travelled
        if d <= 0.5 * W + eps_len:
            return (0.5 * W + d, 0.0)
        if d <= 0.5 * W + H + eps_len:
            return (W, d - 0.5 * W)
        return (W - (d - 0.5 * W - H), H)

    def inner_point(d):
        x, y = outer_point(d)
        if d <= 0.5 * W + eps_len:
            return (x, t)
        if d <= 0.5 * W + H + eps_len:
            return (x - t, y)
        return (x, y - t)

    start, end = (0.5 * W, 0.0), outer_point(ell)
    inner_corner = {(W, 0.0): (W - t, t), (W, H): (W - t, H - t)}
    outer_chain = [start] + [p for _, p in covered] + [end]
    inner_chain = (
        [(0.5 * W, t)] + [inner_corner[p] for _, p in covered] + [inner_point(ell)]
    )
    small = outer_chain + inner_chain[::-1]

    # when the arc ends exactly on a corner the end cap lies along the
    # boundary, so the complement never reaches the corner point itself
    corner_hit = any(abs(ell - c) <= eps_len for c, _ in corners)
    remaining = [p for c, p in corners if c > ell + eps_len]
    remaining += [(0.0, H), (0.0, 0.0)]
    big = ([] if corner_hit else [end]) + remaining + [start] + inner_chain

    eps = 1e-12 * scale
    small = dedupe_ring(small, eps)
    big = dedupe_ring(big, eps)
    area_s, area_b = abs(ring_area(small)), abs(ring_area(big))
    perim_s, perim_b = ring_perimeter(small), ring_perimeter(big)
    return BandSample(
        s, True, None, ell, k,
        thickness=t, arm=arm,
        piece_small=tuple(small), piece_big=tuple(big),
        area_small=area_s, area_big=area_b,
        perimeter_small=perim_s, perimeter_big=perim_b,
        rho=perim_s / perim_b,
        small_convex=is_convex_ring(small, eps * scale),
    )


class BandRun(NamedTuple):
    """An exact interval [s_lo, s_hi] where the band over a fixed number of
    corners is feasible, with rho at its ends and its extremes over it.  An
    arc ending on a corner lays the end cap along the boundary and rho jumps
    there: rho_hi is then the limit, and the band at s_hi is a run of its own."""

    s_lo: float
    s_hi: float
    rho_lo: float
    rho_hi: float
    rho_min: float
    rho_max: float


class BandSolveResult(NamedTuple):
    """found: `sample` is a feasible band with rho within tol of sqrt(a/b).
    The runs are closed forms, so a "not found" is a certificate up to
    float rounding; `infeasible_reasons` name the checks between runs."""

    found: bool
    sample: Optional[BandSample]
    target_rho: float
    runs: Tuple[BandRun, ...]
    infeasible_reasons: Tuple[str, ...]


def _band_runs(W: float, H: float, target: RatioTarget) -> Tuple[List[BandRun], List[str]]:
    """The runs of each corner count k, and the reasons for the gaps.  For ell = s*p in
    (c_k, c_k+1], t is the smaller root of ell*t - k*t^2 = A, so ell = A/t + k*t falls as t
    grows, and each check of `nonconvex_band_partition`, in its order, caps t and so floors
    ell: t <= sqrt(A/k) (a real root), t <= min(W,H)/2, and arm = ell - c_k >= t, i.e.
    t <= A/c_1 (k = 1) or the smaller root of t^2 - c_2 t + A (k = 2).  On a run, with
    m = 1 - k, rho = (2 ell + 2m t) / (p + 2m t) is stationary only at
    t* = (2mA + sqrt(4m^2A^2 + p^2A)) / p."""
    p, A = 2.0 * (W + H), target.fraction * W * H
    c = (0.0, 0.5 * W, 0.5 * W + H, W + H)
    d = c[2] * c[2] - 4.0 * A
    arm_cap = (math.inf, A / c[1], 2.0 * A / (c[2] + math.sqrt(d)) if d >= 0 else math.inf)

    def rho(k: int, ell: float) -> float:
        t = 2.0 * A / (ell + math.sqrt(max(ell * ell - 4.0 * k * A, 0.0)))
        return (2.0 * ell + 2.0 * (1 - k) * t) / (p + 2.0 * (1 - k) * t)

    runs, reasons = [], []
    for k in range(3):
        t_real = math.sqrt(A / k) if k else math.inf
        floor, end = c[k], c[k + 1]
        for reason, cap in zip(BAND_CHECKS, (t_real, 0.5 * min(W, H), arm_cap[k])):
            t = min(cap, t_real)
            if t < math.inf and A / t + k * t > floor:
                if floor < end and reason not in reasons:
                    reasons.append(reason)
                floor = A / t + k * t
        # with nonconvex_band_partition's 1e-12 slack for rounding: a run that
        # starts within 1e-12 p of its end, or just past it, is the band there.
        # The floor meets the end at a double root (1:1, the half rectangle)
        # and lands a few ulps either side of it, so exact comparisons would
        # drop that band or add a run of zero length, by the scale alone.
        if floor > end * (1.0 + 1e-12):
            continue
        if floor < end - 1e-12 * p:
            t_star = (2.0 * (1 - k) * A + math.sqrt(4.0 * (1 - k) ** 2 * A * A + p * p * A)) / p
            ell_star = A / t_star + k * t_star
            rhos = [rho(k, floor), rho(k, end)]
            rhos += [rho(k, ell_star)] if floor < ell_star < end else []
            runs.append(BandRun(floor / p, end / p, rhos[0], rhos[1], min(rhos), max(rhos)))
        e = nonconvex_band_partition(W, H, target, min(0.5, end / p))
        if (k < 2 or floor >= end - 1e-12 * p) and e.feasible:
            runs.append(BandRun(e.s, e.s, e.rho, e.rho, e.rho, e.rho))
    return runs, reasons


def solve_band(
    width: float, height: float, target: RatioTarget, tol: float = DEFAULT_BAND_TOL
) -> BandSolveResult:
    """The band of smallest s with rho = sqrt(a/b), in closed form.  Put
    ell = A/t + k*t into rho: one quadratic in t per corner count k,
    2(1 - rho(1-k)) t^2 - rho p t + 2A = 0, whose roots map to s = ell/p (at
    most 1/2).  With the one-point runs, those `nonconvex_band_partition`
    finds feasible and within tol are kept.  A negative discriminant counts
    as zero, so a target within tol of a run's extreme still finds a band."""
    _check_tol(tol)
    W, H = float(width), float(height)
    if not (1e-75 < W < 1e75 and 1e-75 < H < 1e75):  # keeps p^2 A a normal float
        raise ValueError("rectangle dimensions must be positive and in (1e-75, 1e75)")
    want, p, A = target.rho, 2.0 * (W + H), target.fraction * W * H
    runs, reasons = _band_runs(W, H, target)

    def roots(k: int) -> List[float]:
        a2 = 2.0 * (1.0 - want * (1 - k))
        q = 0.5 * (want * p + math.sqrt(max((want * p) ** 2 - 8.0 * a2 * A, 0.0)))
        return [2.0 * A / q] + ([q / a2] if a2 > 0 else [])

    arcs = [min(0.5, (A / t + k * t) / p) for k in range(3) for t in roots(k)]
    arcs += [r.s_lo for r in runs if r.s_lo == r.s_hi]
    bands = [nonconvex_band_partition(W, H, target, s) for s in arcs]
    hits = [e for e in bands if e.feasible and abs(e.rho - want) <= tol]
    best = min(hits, key=lambda e: e.s, default=None)
    return BandSolveResult(best is not None, best, want, tuple(runs), tuple(reasons))
