"""Straight-cut area partitions of convex regions and the perimeter ratios
they realize.

A cut with angle theta and signed offset o is the line {p : p . n = o} with
n = (-sin theta, cos theta); theta lives in [0, pi).  For a prescribed area
split a:b the offset is uniquely determined per angle, so the perimeter
ratio of the two pieces becomes a continuous function of theta.  A scaled
fair cut is an angle where that ratio hits sqrt(a/b), the value forced when
the two pieces are similar.

Costs for an m-vertex polygon: `split` is O(m) and the single-angle
`solve_offset_for_area` O(m log m).  `perimeter_ratio_profile`,
`find_scaled_fair_cut` and `equal_fair_cut` sample K angles with one chord
sweep, which carries the cut's two boundary edges from angle to angle:
O(m) set-up, then O(m + K) for the whole grid, in O(m) memory.  Each
bisection step of a refinement walks from its bracket's left end, O(1)
when the grid is fine against m.

The band family at the end partitions a rectangle without a straight
cut: piece one is the set of points within distance t of a boundary arc
of length s * perimeter from the bottom edge midpoint, counterclockwise,
with t meeting the area target.  Its feasible runs in s, their rho ranges
and the bands with rho = sqrt(a/b) are closed forms, not samples.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .kernel import ConvexPolygon, bisect_root, rising_quadratic_root
from .kernel.polygon import dedupe_ring, is_convex_ring, ring_area, ring_perimeter

EPS = 1e-9


@dataclass(frozen=True)
class RatioTarget:
    """Area ratio a:b, stored with a <= b so piece one is never the larger."""

    a: int
    b: int

    def __post_init__(self):
        if self.a < 1 or self.b < 1:
            raise ValueError("ratio parts must be positive integers")
        if self.a > self.b:
            a, b = self.a, self.b
            object.__setattr__(self, "a", b)
            object.__setattr__(self, "b", a)

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


@dataclass(frozen=True)
class LineCut:
    """theta normalized to [0, pi); the line is {p . n = offset} with
    n = (-sin theta, cos theta).  Piece a is the side p . n <= offset."""

    theta: float
    offset: float

    def __post_init__(self):
        t = self.theta % math.pi
        k = round((self.theta - t) / math.pi)
        if t != self.theta:
            object.__setattr__(self, "theta", t)
            # An odd multiple of pi flips the normal; negate the offset so
            # the normalized cut describes the same line.
            if k % 2 != 0:
                object.__setattr__(self, "offset", -self.offset)

    @property
    def normal(self) -> Tuple[float, float]:
        return (-math.sin(self.theta), math.cos(self.theta))


def _cut_area(V: Sequence[Tuple[float, float]], n: Tuple[float, float], offset: float) -> float:
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


@dataclass(frozen=True)
class SplitResult:
    piece_a: ConvexPolygon
    piece_b: ConvexPolygon
    cut_length: float

    @property
    def area_a(self):
        return self.piece_a.area

    @property
    def area_b(self):
        return self.piece_b.area

    @property
    def perimeter_a(self):
        return self.piece_a.perimeter

    @property
    def perimeter_b(self):
        return self.piece_b.perimeter


def split(c: ConvexPolygon, cut: LineCut) -> Optional[SplitResult]:
    """Cut the polygon along the line.  None when the line misses the
    interior (one piece would be empty or degenerate)."""
    n = cut.normal
    V = c.vertices
    d = [x * n[0] + y * n[1] for x, y in V]
    lo, hi = min(d), max(d)
    margin = EPS * max(1.0, hi - lo)
    if cut.offset <= lo + margin or cut.offset >= hi - margin:
        return None

    side_a: List[Tuple[float, float]] = []
    side_b: List[Tuple[float, float]] = []
    on_cut: List[Tuple[float, float]] = []  # the chord's two ends
    m = len(V)
    for i in range(m):
        p, dp = V[i], d[i]
        q, dq = V[(i + 1) % m], d[(i + 1) % m]
        if dp <= cut.offset:
            side_a.append((p[0], p[1]))
        if dp >= cut.offset:
            side_b.append((p[0], p[1]))
        if dp == cut.offset:
            on_cut.append((p[0], p[1]))
        if (dp - cut.offset) * (dq - cut.offset) < 0:
            t = (cut.offset - dp) / (dq - dp)
            x = (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))
            side_a.append(x)
            side_b.append(x)
            on_cut.append(x)
    try:
        pa = ConvexPolygon(side_a)
        pb = ConvexPolygon(side_b)
    except ValueError:
        return None
    return SplitResult(pa, pb, math.dist(on_cut[0], on_cut[-1]))


def solve_offset_for_area(c: ConvexPolygon, theta: float, fraction: float) -> LineCut:
    """The unique offset where piece a holds the given area fraction.
    Between consecutive vertex levels the clipped area is an exact quadratic
    in the offset, rising with it; a bisection over the sorted levels finds
    the pair that brackets the target, and the quadratic through the area at
    the pair's ends and midpoint is solved for it."""
    if not (0.0 < fraction < 1.0):
        raise ValueError("area fraction must be strictly between 0 and 1")
    theta = theta % math.pi
    n = (-math.sin(theta), math.cos(theta))
    V = c.vertices
    levels = sorted({x * n[0] + y * n[1] for x, y in V})
    want = fraction * c.area

    def area(o: float) -> float:
        return _cut_area(V, n, o)

    # area(levels[0]) = 0 < want, and the last level holds the whole area
    k = bisect.bisect_left(levels, want, lo=1, hi=len(levels) - 1, key=area)
    lo, hi = levels[k - 1], levels[k]
    x = rising_quadratic_root(area(lo), area(0.5 * (lo + hi)), area(hi), want)
    return LineCut(theta, lo + x * (hi - lo))


@dataclass(frozen=True)
class ProfilePoint:
    theta: float
    offset: float
    area_a: float
    area_b: float
    perimeter_a: float
    perimeter_b: float
    cut_length: float
    rho: float


class _ChordSweep:
    """The cut holding a fixed area fraction of one convex polygon, at
    increasing angles.

    The boundary below the cut is the arc v[i+1..j]: edge i enters it
    (falling) and edge j leaves it (rising).  For a fixed arc, the area
    below a level is a prefix difference of shoelace terms plus the two end
    triangles and the chord term, and the boundary length is a prefix
    difference plus the two partial edges: O(1) per level.  As theta grows
    both ends of the cut move counterclockwise around the boundary (two
    nearby chords of equal area cross), so i and j are carried from angle
    to angle, stepping along the two monotone chains from the lowest vertex
    b to the highest t.  The final bracket [max(u_i+1, u_j), min(u_i, u_j+1)]
    is the pair of consecutive vertex levels that `solve_offset_for_area`
    finds by bisection, and the same three-point quadratic gives the offset.

    K increasing angles cost O(m + K) after O(m) set-up, in O(m) memory.
    `state` is (b, t, i, j) at the last angle; assigning an earlier state
    walks the next angle from there.
    """

    def __init__(self, c: ConvexPolygon, fraction: float):
        V = list(c.vertices)
        m = len(V)
        ring = V + V + V[:1]
        self.m = m
        self.xs = [p[0] for p in V]
        self.ys = [p[1] for p in V]
        self.edges = [math.dist(p, q) for p, q in zip(V, ring[1:])]
        # prefix sums of the shoelace terms and the edge lengths, over the
        # ring doubled once so that every arc is one difference
        self.cross = [0.0]
        self.length = [0.0]
        for k, (p, q) in enumerate(zip(ring, ring[1:])):
            self.cross.append(self.cross[-1] + (p[0] * q[1] - p[1] * q[0]))
            self.length.append(self.length[-1] + self.edges[k % m])
        self.want = fraction * c.area
        self.area = c.area
        self.perimeter = c.perimeter
        self.state: Optional[Tuple[int, int, int, int]] = None

    def _cut(self, i: int, j: int, ui, ui1, uj, uj1, level: float):
        """Area, boundary length and chord of the part below `level`, when
        v[i+1..j] is the part of the boundary below it; ui .. uj1 are the
        levels of v_i, v_i+1, v_j, v_j+1."""
        m, xs, ys = self.m, self.xs, self.ys
        p, q, r, s = i % m, (i + 1) % m, j % m, (j + 1) % m
        # the shares of edges i and j below the level; a flat end edge lies
        # on the level, so either end of it closes the same area
        share_in = (level - ui1) / (ui - ui1) if ui > ui1 else 0.0
        share_out = (level - uj) / (uj1 - uj) if uj1 > uj else 0.0
        ex = xs[q] + share_in * (xs[p] - xs[q])
        ey = ys[q] + share_in * (ys[p] - ys[q])
        fx = xs[r] + share_out * (xs[s] - xs[r])
        fy = ys[r] + share_out * (ys[s] - ys[r])
        # the arc's edges i+1 .. j-1, read off the doubled ring
        start = q
        stop = start + (j - i - 1)
        area = 0.5 * (
            self.cross[stop] - self.cross[start]
            + (ex * ys[q] - ey * xs[q]) + (xs[r] * fy - ys[r] * fx) + (fx * ey - fy * ex)
        )
        chord = math.hypot(fx - ex, fy - ey)
        perim = (
            self.length[stop] - self.length[start]
            + share_in * self.edges[p] + share_out * self.edges[r] + chord
        )
        return area, perim, chord

    def point(self, theta: float) -> ProfilePoint:
        """The profile point at theta, walked from `state`, whose angle must
        lie less than a half turn below theta."""
        m, xs, ys, want = self.m, self.xs, self.ys, self.want
        n0, n1 = -math.sin(theta), math.cos(theta)

        def u(k: int) -> float:
            k %= m
            return xs[k] * n0 + ys[k] * n1

        if self.state is None:
            b = min(range(m), key=u)
            t = max(range(b, b + m), key=u)
            i, j = b - 1, b
        else:
            b, t, i, j = self.state
            while u(t + 1) > u(t):
                t += 1
            while u(b + 1) < u(b):
                b += 1
            # keep the arc's ends on the chains t-m..b and b..t
            j, i = max(j, b), max(i, t - m)
            # turning lifts the arc's left end against the right chain
            while u(j + 1) < u(i + 1):
                j += 1
            while j > b and u(j) > u(i):
                j -= 1

        def cut(level: float):
            return self._cut(i, j, u(i), u(i + 1), u(j), u(j + 1), level)

        # drop the higher arc end while the area below it reaches the
        # target, then take the lower outside vertex while it falls short
        while j > i + 1:
            if cut(max(u(i + 1), u(j)))[0] < want:
                break
            if u(j) >= u(i + 1):
                j -= 1
            else:
                i += 1
        while j - i < m - 1:
            if cut(min(u(i), u(j + 1)))[0] >= want:
                break
            if u(j + 1) <= u(i):
                j += 1
            else:
                i -= 1

        lo, hi = max(u(i + 1), u(j)), min(u(i), u(j + 1))
        area_lo = cut(lo)[0]
        offset = lo
        # when two vertex levels tie (a diagonal through two vertices), the
        # area at lo may round up to the target: the cut then runs at lo
        if area_lo < want:
            x = rising_quadratic_root(area_lo, cut(0.5 * (lo + hi))[0], cut(hi)[0], want)
            offset = lo + x * (hi - lo)
        area_a, perim_a, chord = cut(offset)
        if b >= m:
            b, t, i, j = b - m, t - m, i - m, j - m
        self.state = (b, t, i, j)
        perim_b = self.perimeter - perim_a + 2.0 * chord
        return ProfilePoint(
            theta, offset, area_a, self.area - area_a, perim_a, perim_b, chord,
            perim_a / perim_b,
        )

    def scan(self, thetas: List[float]) -> Tuple[List[ProfilePoint], list]:
        """The points at increasing angles, and the state after each."""
        points, states = [], []
        for theta in thetas:
            points.append(self.point(theta))
            states.append(self.state)
        return points, states


def _check_tol(tol: float) -> None:
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")


def _angle_grid(samples: int) -> List[float]:
    if samples < 4:
        raise ValueError(f"need at least 4 angle samples, got {samples}")
    return [j * math.pi / samples for j in range(samples)]


def perimeter_ratio_profile(
    c: ConvexPolygon, target: RatioTarget, samples: int = 720
) -> List[ProfilePoint]:
    """rho(theta) on the uniform angle grid j*pi/samples, j = 0..samples-1.
    Piece a always carries the smaller area share, so rho is continuous
    on [0, pi).  Towards pi, piece a becomes the share on the other side of
    the theta = 0 cut, so rho tends to rho(0) only for a centrally
    symmetric region (to 1/rho(0) when a = b).  One chord sweep: O(m + samples) for m vertices, in
    O(m) memory."""
    return _ChordSweep(c, target.fraction).scan(_angle_grid(samples))[0]


@dataclass(frozen=True)
class FairCutResult:
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


def _grid_root(sweep: _ChordSweep, samples: int, value, ftol: float):
    """Scan the closed grid j*pi/samples, j = 0..samples, with one sweep and
    return its points and a point where |value| <= ftol, or None: the grid
    point of least |value| below pi, or else the bisection of the first
    sign change.  A cut at theta = pi is the theta = 0 line with its pieces
    swapped, so the grid point pi is only ever a bracket end."""
    points, states = sweep.scan(_angle_grid(samples) + [math.pi])
    vals = [value(p) for p in points]
    best = min(range(samples), key=lambda j: abs(vals[j]))
    if abs(vals[best]) <= ftol:
        return points, points[best]
    for j in range(samples):
        if vals[j] == 0.0 or vals[j] * vals[j + 1] > 0:
            continue
        sign = 1.0 if vals[j] < 0 else -1.0

        def point(theta: float) -> ProfilePoint:
            sweep.state = states[j]  # each step walks from the bracket's left end
            return sweep.point(theta)

        theta = bisect_root(
            lambda t: sign * value(point(t)), points[j].theta, points[j + 1].theta, ftol=ftol
        )
        p = point(theta)
        return points, (p if abs(value(p)) <= ftol else None)
    return points, None


def find_scaled_fair_cut(
    c: ConvexPolygon, target: RatioTarget, tol: float = 1e-9, samples: int = 720
) -> FairCutResult:
    """Sample rho on the closed grid j*pi/samples, j = 0..samples, and
    bisect the first sign change of rho - sqrt(a/b).  rho need not return
    to rho(0) at pi (see `perimeter_ratio_profile`), so the sweep evaluates
    theta = pi itself to bracket the last interval.  O(m + samples)."""
    _check_tol(tol)
    prof, p = _grid_root(
        _ChordSweep(c, target.fraction), samples, lambda q: q.rho - target.rho, tol
    )
    rhos = [q.rho for q in prof]
    if p is None:
        return FairCutResult(False, None, None, min(rhos), max(rhos))
    return FairCutResult(True, LineCut(p.theta, p.offset), p.rho, min(rhos), max(rhos))


def disc_chord_analysis(target: RatioTarget) -> dict:
    """Exact straight-chord computation on the unit disc.  The chord cutting
    area fraction f spans half-angle u solving u - sin u cos u = pi f; the
    piece perimeters follow in closed form.  By rotation invariance rho is
    constant over theta, so either the single value matches sqrt(a/b) or no
    straight cut works on the disc at this ratio."""
    f = target.fraction
    u = bisect_root(
        lambda x: x - math.sin(x) * math.cos(x) - math.pi * f, 0.0, math.pi / 2, ftol=1e-15
    )
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


def equal_fair_cut(c: ConvexPolygon, samples: int = 720, tol: float = 1e-9) -> LineCut:
    """A straight cut that halves the area and the perimeter simultaneously.
    At the area-halving offset the perimeter difference g(theta) flips sign
    between theta and theta + pi (same line, swapped labels), so a zero of g
    exists in [0, pi]; scan then bisect, on one chord sweep at fraction
    1/2, O(m + samples)."""
    _check_tol(tol)
    _, p = _grid_root(
        _ChordSweep(c, 0.5), samples, lambda q: q.perimeter_a - q.perimeter_b, tol * c.perimeter
    )
    if p is None:
        raise ArithmeticError("no cut meets tol; perimeter difference not continuous?")
    return LineCut(p.theta, p.offset)


# ---------------------------------------------------------------------------
# Band family: one piece is a uniform-thickness neighborhood of a boundary
# arc that starts at the bottom edge midpoint and grows counterclockwise.


@dataclass(frozen=True)
class BandSample:
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
            return BandSample(s, False, "area equation has no real thickness", ell, k)
        t = (ell - math.sqrt(max(disc, 0.0))) / (2.0 * k)
    arm = ell - covered[-1][0] if covered else None
    if t > tmax * (1.0 + 1e-12):
        return BandSample(
            s, False, "thickness exceeds min(W,H)/2", ell, k, thickness=t, arm=arm
        )
    if covered and arm < t * (1.0 - 1e-12):
        return BandSample(
            s, False, "arm past the last corner is shorter than the thickness",
            ell, k, thickness=t, arm=arm,
        )

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


@dataclass(frozen=True)
class BandRun:
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


@dataclass(frozen=True)
class BandSolveResult:
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

    checks = ("area equation has no real thickness", "thickness exceeds min(W,H)/2",
              "arm past the last corner is shorter than the thickness")
    runs, reasons = [], []
    for k in range(3):
        t_real = math.sqrt(A / k) if k else math.inf
        floor, end = c[k], c[k + 1]
        for reason, cap in zip(checks, (t_real, 0.5 * min(W, H), arm_cap[k])):
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
    width: float, height: float, target: RatioTarget, tol: float = 1e-6
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
