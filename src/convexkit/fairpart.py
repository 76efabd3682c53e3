"""Straight-cut area partitions of convex regions and the perimeter ratios
they realize.

A cut with angle theta and signed offset o is the line {p : p . n = o} with
n = (-sin theta, cos theta); theta lives in [0, pi).  For a prescribed area
split a:b the offset is uniquely determined per angle, so the perimeter
ratio of the two pieces becomes a continuous function of theta.  A scaled
fair cut is an angle where that ratio hits sqrt(a/b), the value forced when
the two pieces are similar.

The band family at the end is an explicit one-parameter family of
non-straight partitions of a rectangle: piece one is the set of points
within distance t of a boundary arc of length s * perimeter that starts
at the bottom edge midpoint and grows counterclockwise, with t chosen to
meet the area target.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .kernel import ConvexPolygon, bisect_root
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


def _clip_metrics(V: np.ndarray, d: np.ndarray, offset: float):
    """Area, perimeter, and chord of {p . n <= offset} within the CCW convex
    polygon V, where d[i] = V[i] . n.  One numpy pass; no polygon is built."""
    inside = d <= offset
    Vn = np.roll(V, -1, axis=0)
    dn = np.roll(d, -1)
    nin = np.roll(inside, -1)

    if inside.all():
        area = 0.5 * float((V[:, 0] * Vn[:, 1] - V[:, 1] * Vn[:, 0]).sum())
        perim = float(np.linalg.norm(Vn - V, axis=1).sum())
        return area, perim, 0.0, None, None
    if not inside.any():
        return 0.0, 0.0, 0.0, None, None

    denom = np.where(dn != d, dn - d, 1.0)
    tt = (offset - d) / denom
    X = V + tt[:, None] * (Vn - V)

    cross = V[:, 0] * Vn[:, 1] - V[:, 1] * Vn[:, 0]
    seg = np.linalg.norm(Vn - V, axis=1)

    ii = inside & nin
    io = inside & ~nin
    oi = ~inside & nin

    area2 = cross[ii].sum()
    perim = seg[ii].sum()

    exit_pts = X[io]
    entry_pts = X[oi]
    # Convexity gives exactly one exit and one entry once both sides are hit.
    x1 = exit_pts[0]
    x2 = entry_pts[0]
    vi = V[io][0]
    vn = Vn[oi][0]
    area2 += vi[0] * x1[1] - vi[1] * x1[0]
    perim += float(np.linalg.norm(x1 - vi))
    area2 += x2[0] * vn[1] - x2[1] * vn[0]
    perim += float(np.linalg.norm(vn - x2))
    area2 += x1[0] * x2[1] - x1[1] * x2[0]
    chord = float(np.linalg.norm(x2 - x1))
    perim += chord
    return 0.5 * float(area2), perim, chord, (float(x1[0]), float(x1[1])), (float(x2[0]), float(x2[1]))


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
    n = np.array(cut.normal)
    V = np.asarray(c.vertices, dtype=float)
    d = V @ n
    lo, hi = float(d.min()), float(d.max())
    margin = EPS * max(1.0, hi - lo)
    if cut.offset <= lo + margin or cut.offset >= hi - margin:
        return None

    side_a: List[Tuple[float, float]] = []
    side_b: List[Tuple[float, float]] = []
    m = len(V)
    for i in range(m):
        p, dp = V[i], d[i]
        q, dq = V[(i + 1) % m], d[(i + 1) % m]
        if dp <= cut.offset:
            side_a.append((p[0], p[1]))
        if dp >= cut.offset:
            side_b.append((p[0], p[1]))
        if (dp - cut.offset) * (dq - cut.offset) < 0:
            t = (cut.offset - dp) / (dq - dp)
            x = (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))
            side_a.append(x)
            side_b.append(x)
    try:
        pa = ConvexPolygon(side_a)
        pb = ConvexPolygon(side_b)
    except ValueError:
        return None
    _, _, chord, _, _ = _clip_metrics(V, d, cut.offset)
    return SplitResult(pa, pb, chord)


def solve_offset_for_area(c: ConvexPolygon, theta: float, fraction: float) -> LineCut:
    """The unique offset where piece a holds the given area fraction.
    Bisection; the clipped area is strictly monotone in the offset."""
    if not (0.0 < fraction < 1.0):
        raise ValueError("area fraction must be strictly between 0 and 1")
    theta = theta % math.pi
    n = np.array((-math.sin(theta), math.cos(theta)))
    V = np.asarray(c.vertices, dtype=float)
    d = V @ n
    lo, hi = float(d.min()), float(d.max())
    total = c.area
    want = fraction * total
    offset = bisect_root(
        lambda o: _clip_metrics(V, d, o)[0] - want, lo, hi, ftol=1e-13 * total, max_iter=100
    )
    return LineCut(theta, offset)


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


def _profile_point(c: ConvexPolygon, target: RatioTarget, theta: float) -> ProfilePoint:
    cut = solve_offset_for_area(c, theta, target.fraction)
    n = np.array(cut.normal)
    V = np.asarray(c.vertices, dtype=float)
    d = V @ n
    area_a, perim_a, chord, _, _ = _clip_metrics(V, d, cut.offset)
    total_a, total_p = c.area, c.perimeter
    area_b = total_a - area_a
    perim_b = total_p - perim_a + 2.0 * chord
    return ProfilePoint(
        cut.theta, cut.offset, area_a, area_b, perim_a, perim_b, chord,
        perim_a / perim_b,
    )


def perimeter_ratio_profile(
    c: ConvexPolygon, target: RatioTarget, samples: int = 720
) -> List[ProfilePoint]:
    """rho(theta) on the uniform angle grid j*pi/samples, j = 0..samples-1.
    Piece a always carries the smaller area share, so rho is continuous
    and pi-periodic in theta."""
    if samples < 4:
        raise ValueError("need at least 4 angle samples")
    return [
        _profile_point(c, target, j * math.pi / samples) for j in range(samples)
    ]


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
    theta: Optional[float] = None


def find_scaled_fair_cut(
    c: ConvexPolygon,
    target: RatioTarget,
    tol: float = 1e-9,
    samples: int = 720,
) -> FairCutResult:
    prof = perimeter_ratio_profile(c, target, samples)
    rhos = [p.rho for p in prof]
    want = target.rho
    rho_min, rho_max = min(rhos), max(rhos)

    best_j = min(range(samples), key=lambda j: abs(rhos[j] - want))
    if abs(rhos[best_j] - want) <= tol:
        p = prof[best_j]
        return FairCutResult(True, LineCut(p.theta, p.offset), p.rho, rho_min, rho_max, p.theta)

    step = math.pi / samples
    for j in range(samples):
        g0 = rhos[j] - want
        g1 = rhos[(j + 1) % samples] - want
        if g0 == 0.0 or g0 * g1 >= 0:
            continue
        sign = 1.0 if g0 < 0 else -1.0
        point = functools.cache(lambda theta: _profile_point(c, target, theta))
        theta = bisect_root(
            lambda t: sign * (point(t).rho - want), j * step, (j + 1) * step, ftol=tol
        )
        pm = point(theta)  # a cache hit when a midpoint met tol
        if abs(pm.rho - want) <= tol:
            return FairCutResult(
                True, LineCut(pm.theta, pm.offset), pm.rho, rho_min, rho_max, pm.theta
            )
        break
    return FairCutResult(False, None, None, rho_min, rho_max)


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
    exists in [0, pi]; scan then bisect."""
    half = RatioTarget(1, 1)

    def g(theta: float) -> float:
        p = _profile_point(c, half, theta)
        return p.perimeter_a - p.perimeter_b

    scale = c.perimeter
    thetas = [j * math.pi / samples for j in range(samples + 1)]
    vals = [g(t) for t in thetas]
    for v, t in zip(vals, thetas):
        if abs(v) <= tol * scale:
            p = _profile_point(c, half, t)
            return LineCut(p.theta, p.offset)
    for j in range(samples):
        if vals[j] * vals[j + 1] < 0:
            sign = 1.0 if vals[j] < 0 else -1.0
            theta = bisect_root(
                lambda t: sign * g(t), thetas[j], thetas[j + 1], ftol=tol * scale
            )
            p = _profile_point(c, half, theta)
            return LineCut(p.theta, p.offset)
    raise ArithmeticError("no sign change found; perimeter difference not continuous?")


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
        disc = ell * ell - 4.0 * k * want
        if disc < 0.0:
            return BandSample(s, False, "area equation has no real thickness", ell, k)
        t = (ell - math.sqrt(disc)) / (2.0 * k)
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
    """A maximal run of consecutive feasible samples: the rho values the
    family realizes on [s_lo, s_hi]."""

    s_lo: float
    s_hi: float
    rho_lo: float
    rho_hi: float
    rho_min: float
    rho_max: float


@dataclass(frozen=True)
class BandSolveResult:
    found: bool
    sample: Optional[BandSample]
    target_rho: float
    runs: Tuple[BandRun, ...]
    infeasible_reasons: Tuple[str, ...]


def solve_band(
    width: float,
    height: float,
    target: RatioTarget,
    tol: float = 1e-6,
    samples: int = 2000,
) -> BandSolveResult:
    """Search the band family for rho = sqrt(a/b).  Scans s on a uniform
    grid over (0, 1/2], brackets a sign change inside a feasible run, and
    bisects.  When no bracket exists the result reports the rho ranges the
    family actually attains, as evidence the target falls in a gap."""
    want = target.rho
    grid = [j / (2.0 * samples) for j in range(1, samples + 1)]
    evals = [nonconvex_band_partition(width, height, target, s) for s in grid]

    runs: List[BandRun] = []
    reasons: List[str] = []
    i = 0
    while i < len(evals):
        if not evals[i].feasible:
            if evals[i].reason and evals[i].reason not in reasons:
                reasons.append(evals[i].reason)
            i += 1
            continue
        j = i
        while j + 1 < len(evals) and evals[j + 1].feasible:
            j += 1
        seg = [e.rho for e in evals[i : j + 1]]
        runs.append(
            BandRun(grid[i], grid[j], seg[0], seg[-1], min(seg), max(seg))
        )
        i = j + 1

    best = None
    for e in evals:
        if e.feasible and abs(e.rho - want) <= tol:
            best = e
            break
    if best is not None:
        return BandSolveResult(True, best, want, tuple(runs), tuple(reasons))

    for i in range(len(evals) - 1):
        e0, e1 = evals[i], evals[i + 1]
        if not (e0.feasible and e1.feasible):
            continue
        g0, g1 = e0.rho - want, e1.rho - want
        if g0 * g1 >= 0:
            continue
        lo, hi, glo = grid[i], grid[i + 1], g0
        hit = None
        # not bisect_root: an infeasible midpoint abandons this bracket for the next
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            em = nonconvex_band_partition(width, height, target, mid)
            if not em.feasible:
                break
            gm = em.rho - want
            if abs(gm) <= tol:
                hit = em
                break
            if glo * gm < 0:
                hi = mid
            else:
                lo, glo = mid, gm
        if hit is not None:
            return BandSolveResult(True, hit, want, tuple(runs), tuple(reasons))
    return BandSolveResult(False, None, want, tuple(runs), tuple(reasons))
