"""Straight-cut fair partitions and the boundary-band family."""

import math
import random
from decimal import Decimal, localcontext

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import case_named, case_table
from convexkit.kernel.arcs import ArcPolygon
from convexkit.kernel.polygon import ConvexPolygon, rectangle, regular_ngon
from convexkit.fairpart import (
    LineCut,
    ProfilePoint,
    RatioTarget,
    _ChordSweep,
    _angle_grid,
    disc_chord_analysis,
    find_scaled_fair_cut,
    nonconvex_band_partition,
    parse_ratio,
    perimeter_ratio_profile,
    solve_band,
    split,
)
from reference import convex_hull, cut_area, random_polygon, solve_offset_for_area

SQRT_THIRD = math.sqrt(1.0 / 3.0)


def is_convex_ring(pts):
    m = len(pts)
    sign = 0
    for i in range(m):
        ax, ay = pts[i]
        bx, by = pts[(i + 1) % m]
        cx, cy = pts[(i + 2) % m]
        cr = (bx - ax) * (cy - by) - (by - ay) * (cx - bx)
        if abs(cr) <= 1e-12:
            continue
        s = 1 if cr > 0 else -1
        if sign == 0:
            sign = s
        elif s != sign:
            return False
    return True


def test_ratio_target_orders_parts():
    t = RatioTarget(5, 2)
    assert (t.a, t.b) == (2, 5)
    assert t.fraction == 2 / 7
    assert abs(t.rho - math.sqrt(2 / 5)) < 1e-15
    assert str(t) == "2:5"
    assert t == RatioTarget(2, 5) != RatioTarget(2, 3)
    for a, b in ((0, 1), (1, 0), (-2, 3)):
        with pytest.raises(ValueError, match="ratio parts must be positive integers"):
            RatioTarget(a, b)


def test_parse_ratio():
    assert parse_ratio("1:3") == RatioTarget(1, 3)
    for bad in ("13", "1:3:5", "a:b", "1:0"):
        with pytest.raises(ValueError):
            parse_ratio(bad)


def test_linecut_normalizes_theta():
    c = LineCut(1.5 * math.pi, 0.3)
    assert abs(c.theta - 0.5 * math.pi) < 1e-15
    assert c.offset == -0.3  # same line, flipped normal
    # an odd number of half turns flips the normal and negates offset and
    # level; an even number keeps them; an angle in [0, pi) is kept as given
    for turns, sign in ((1.5, -1), (-0.5, -1), (2.5, 1), (0.5, 1)):
        c = LineCut(turns * math.pi, 0.3, (1.0, 2.0), 0.7)
        assert abs(c.theta - 0.5 * math.pi) < 1e-15
        assert (c.offset, c.level, c.origin) == (sign * 0.3, sign * 0.7, (1.0, 2.0))
    assert LineCut(0, 1).theta == 0 and type(LineCut(0, 1).theta) is int


def test_rectangle_profile_attains_both_axis_values():
    rect = rectangle(4, 1)
    prof = perimeter_ratio_profile(rect, RatioTarget(1, 3))
    rhos = [p.rho for p in prof]
    # the two axis-aligned cuts give 1/2 (short way) and 17/19 (long way)
    assert min(abs(r - 0.5) for r in rhos) <= 1e-9
    assert min(abs(r - 17 / 19) for r in rhos) <= 1e-9
    assert min(rhos) <= 0.5 + 1e-9
    assert max(rhos) >= 17 / 19 - 1e-9
    # piece a is the smaller-area piece, so rho stays in (0, 1]
    assert all(0 < r <= 1 + 1e-12 for r in rhos)


def test_scaled_fair_cut_on_long_rectangle():
    rect = rectangle(4, 1)
    res = find_scaled_fair_cut(rect, RatioTarget(1, 3))
    assert res.found
    assert abs(res.rho - SQRT_THIRD) <= 1e-9

    sr = split(rect, res.cut)
    assert sr is not None
    assert abs(sr.area_a / sr.area_b - 1 / 3) <= 1e-9
    assert abs(sr.perimeter_a / sr.perimeter_b - SQRT_THIRD) <= 1e-9
    assert is_convex_ring(sr.piece_a.vertices)
    assert is_convex_ring(sr.piece_b.vertices)


def test_scaled_fair_cut_in_the_last_grid_interval():
    """rho(pi) differs from rho(0) on a triangle, so the last interval
    [theta_719, pi] is bracketed by the sweep's own value at pi: here rho
    crosses sqrt(3/7) only in that interval."""
    tri = ConvexPolygon([
        (0.17051226352769544, 0.16654942515408322),
        (0.3436857195336044, 0.5938322423279928),
        (0.7342038623794209, 0.3484322175385567),
    ])
    target = RatioTarget(3, 7)
    res = find_scaled_fair_cut(tri, target)
    assert res.found
    assert 719 * math.pi / 720 < res.cut.theta < math.pi
    sr = split(tri, res.cut)
    assert abs(sr.area_a / sr.area_b - 3 / 7) <= 1e-9
    assert abs(sr.perimeter_a / sr.perimeter_b - target.rho) <= 1e-9
    assert res.rho_min < target.rho


def test_disc_one_to_three_is_out_of_reach():
    disc = regular_ngon(4096)
    res = find_scaled_fair_cut(disc, RatioTarget(1, 3))
    assert not res.found
    # rotation invariance: the profile is constant up to discretization
    assert res.rho_max - res.rho_min <= 1e-6
    d = disc_chord_analysis(RatioTarget(1, 3))
    assert not d["achievable"]
    assert d["gap"] > 0.1
    assert abs(d["rho"] - 0.713343690) <= 1e-8
    assert abs(res.rho_min - d["rho"]) <= 1e-3
    assert abs(res.rho_max - d["rho"]) <= 1e-3


def test_disc_extreme_ratios():
    assert disc_chord_analysis(RatioTarget(1, 1))["achievable"]
    assert abs(disc_chord_analysis(RatioTarget(1, 1))["rho"] - 1.0) <= 1e-12
    # rho does not collapse to sqrt(a/b) even for very lopsided ratios
    assert disc_chord_analysis(RatioTarget(1, 100))["rho"] > 0.1


def _segment_decimal(u):
    """u - sin u cos u = u - sin(2u)/2 at the float u, to 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        x = 2 * Decimal(u)
        term, sine, k = x, Decimal(0), 0
        while abs(term) > Decimal(10) ** -60:
            sine += term
            k += 1
            term = -term * x * x / ((2 * k) * (2 * k + 1))
        return Decimal(u) - sine / 2


def test_disc_chord_holds_its_area_at_lopsided_ratios():
    """The half-angle u solves u - sin u cos u = pi f to 1e-13 of pi f,
    checked in 50-digit decimals, down to f = 1e-15, where that difference
    cancels to nothing in floats."""
    pi = Decimal("3.14159265358979323846264338327950288419716939937510582097494459")
    for k in range(16):
        target = RatioTarget(1, 10 ** k)
        u = disc_chord_analysis(target)["half_angle"]
        with localcontext() as ctx:
            ctx.prec = 50
            want = pi / (1 + 10 ** k)
            assert abs(_segment_decimal(u) - want) <= Decimal("1e-13") * want, k


def test_split_conservation_on_random_cuts():
    rng = random.Random(0)
    done = 0
    while done < 1000:
        c = random_polygon(rng, rng.randint(4, 24), 3)
        theta = rng.uniform(0, math.pi)
        f = rng.uniform(0.05, 0.95)
        cut = solve_offset_for_area(c, theta, f)
        sr = split(c, cut)
        if sr is None:
            continue
        done += 1
        assert abs(sr.area_a + sr.area_b - c.area) <= 1e-9 * c.area
        assert (
            abs(sr.perimeter_a + sr.perimeter_b - (c.perimeter + 2 * sr.cut_length))
            <= 1e-9 * c.perimeter
        )


def test_split_pieces_are_convex():
    rng = random.Random(3)
    for _ in range(60):
        c = random_polygon(rng, rng.randint(4, 16), 3)
        cut = solve_offset_for_area(c, rng.uniform(0, math.pi), rng.uniform(0.1, 0.9))
        sr = split(c, cut)
        if sr is None:
            continue
        assert is_convex_ring(sr.piece_a.vertices)
        assert is_convex_ring(sr.piece_b.vertices)


def test_split_misses_exterior_line():
    rect = rectangle(2, 1)
    assert split(rect, LineCut(0.0, 5.0)) is None
    assert split(rect, LineCut(0.0, -5.0)) is None


def test_offset_monotone_in_fraction():
    rng = random.Random(5)
    for _ in range(10):
        c = random_polygon(rng, rng.randint(4, 12), 3)
        theta = rng.uniform(0, math.pi)
        fracs = [0.1 * k for k in range(1, 10)]
        cuts = [solve_offset_for_area(c, theta, f) for f in fracs]
        offsets = [cut.offset for cut in cuts]
        assert all(a < b for a, b in zip(offsets, offsets[1:]))
        for f, cut in zip(fracs, cuts):
            sr = split(c, cut)
            assert abs(sr.area_a - f * c.area) <= 1e-9 * c.area


def test_solve_offset_rejects_degenerate_fraction():
    rect = rectangle(2, 1)
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            solve_offset_for_area(rect, 0.0, bad)


def _diameter(c):
    return ArcPolygon.polygon(c.vertices).widths()[1]


def _check_sweep_point(c, fraction, p, diameter):
    """The sweep's point p matches the oracle: the offset that
    solve_offset_for_area solves, and the pieces that split builds from
    it.  `diameter` is c's, measured once per polygon."""
    cut = solve_offset_for_area(c, p.theta, fraction)
    sr = split(c, cut)
    assert abs(p.offset - cut.offset) <= 1e-12 * diameter
    assert abs(p.area_a - sr.area_a) <= 1e-12 * c.area
    assert abs(p.area_b - sr.area_b) <= 1e-12 * c.area
    assert abs(p.perimeter_a - sr.perimeter_a) <= 1e-12 * c.perimeter
    assert abs(p.perimeter_b - sr.perimeter_b) <= 1e-12 * c.perimeter
    assert abs(p.cut_length - sr.cut_length) <= 1e-12 * c.perimeter


def _assert_finite(offset, pieces):
    """An offset, and the areas, perimeters and chord of the pieces it cuts,
    are finite numbers."""
    values = (offset, pieces.area_a, pieces.area_b, pieces.perimeter_a, pieces.perimeter_b,
              pieces.cut_length)
    assert all(math.isfinite(v) for v in values), values


def _check_exact_cut(c, target, theta):
    """The solved cut holds the target area, and the sweep's point at theta
    matches it.  The point depends on theta alone: after a point at an
    earlier angle it is bit-identical to a fresh sweep's."""
    cut = solve_offset_for_area(c, theta, target.fraction)
    sr = split(c, cut)
    _assert_finite(cut.offset, sr)
    p = _ChordSweep(c, target.fraction).point(theta)
    for lead in (0.01, 0.5, 3.0):
        if theta - lead >= 0:
            sweep = _ChordSweep(c, target.fraction)
            sweep.point(theta - lead)
            assert repr(sweep.point(theta)) == repr(p)
    _assert_finite(p.offset, p)
    assert abs(sr.area_a - target.fraction * c.area) <= 1e-12 * c.area
    chord = 0.5 * (sr.perimeter_a + sr.perimeter_b - c.perimeter)
    assert abs(sr.cut_length - chord) <= 1e-12
    assert abs(p.offset - cut.offset) <= 1e-12 * _diameter(c)
    assert abs(p.perimeter_a - sr.perimeter_a) <= 1e-12
    assert abs(p.perimeter_b - sr.perimeter_b) <= 1e-12
    assert abs(p.cut_length - chord) <= 1e-12


@pytest.mark.parametrize("target", [RatioTarget(1, 3), RatioTarget(1, 1)])
@pytest.mark.parametrize(
    "shape, theta",
    [("rect", 0.0), ("rect", math.pi / 2)] + [("hexagon", k * math.pi / 6) for k in range(6)],
)
def test_exact_cut_at_edge_aligned_angles(shape, theta, target):
    # every cut here is parallel to some edges and meets others square on
    c = rectangle(4, 1) if shape == "rect" else regular_ngon(6)
    _check_exact_cut(c, target, theta)


def test_exact_cut_through_a_vertex():
    half = RatioTarget(1, 1)
    # the square's diagonal, and the triangle's axis through its apex
    _check_exact_cut(rectangle(1, 1), half, math.pi / 4)
    triangle = ConvexPolygon([(0.0, 0.0), (2.0, 0.0), (1.0, 1.0)])
    _check_exact_cut(triangle, half, math.pi / 2)
    assert solve_offset_for_area(triangle, math.pi / 2, 0.5).offset == pytest.approx(-1.0, abs=1e-15)


@pytest.mark.parametrize("n", [4, 26, 30])
def test_exact_cut_along_diagonals_of_even_ngons(n):
    # at 1:1 the cut at an even multiple of pi/n runs through two opposite
    # vertices, whose levels tie up to rounding
    c = regular_ngon(n)
    for k in range(n):
        _check_exact_cut(c, RatioTarget(1, 1), k * math.pi / n)


@settings(max_examples=200)
@given(
    polar=st.lists(
        st.tuples(st.floats(0.0, 2 * math.pi), st.floats(0.5, 3.0)), min_size=3, max_size=24
    ),
    theta=st.floats(0.0, math.pi),
    fraction=st.floats(0.01, 0.99),
)
def test_exact_cut_holds_the_area_on_random_polygons(polar, theta, fraction):
    hull = convex_hull([(r * math.cos(a), r * math.sin(a)) for a, r in polar])
    assume(len(hull) >= 3)
    try:
        c = ConvexPolygon(hull)
    except ValueError:
        assume(False)
    assume(c.area >= 0.05)
    cut = solve_offset_for_area(c, theta, fraction)
    sr = split(c, cut)
    _assert_finite(cut.offset, sr)
    assert abs(sr.area_a - fraction * c.area) <= 1e-12 * c.area


def _grid_shapes(large=(64, 255, 1024, 4096)):
    rect = st.builds(rectangle, st.floats(0.05, 20.0), st.floats(0.05, 20.0))
    ngon = st.builds(regular_ngon, st.one_of(st.integers(3, 40), st.sampled_from(large)))
    hull = st.lists(
        st.tuples(st.floats(0.0, 2 * math.pi), st.floats(0.5, 3.0)), min_size=3, max_size=40
    ).map(lambda polar: convex_hull([(r * math.cos(a), r * math.sin(a)) for a, r in polar]))
    return st.one_of(rect, ngon, hull)


def _draw_oracle_case(rng):
    """A polygon as `_grid_shapes` draws it, a hull drawn again until it is
    a polygon of area 0.05 or more; a ratio, 1:1 or 1:3 half of the time;
    and 4 to 40 grid angles."""
    kind = rng.randrange(3)
    if kind == 0:
        c = rectangle(rng.uniform(0.05, 20.0), rng.uniform(0.05, 20.0))
    elif kind == 1:
        n = rng.randint(3, 40) if rng.random() < 0.5 else rng.choice((64, 255, 1024, 4096))
        c = regular_ngon(n)
    else:
        c = None
        while c is None or c.area < 0.05:
            polar = [(rng.uniform(0.0, 2 * math.pi), rng.uniform(0.5, 3.0))
                     for _ in range(rng.randint(3, 40))]
            hull = convex_hull([(r * math.cos(a), r * math.sin(a)) for a, r in polar])
            try:
                c = ConvexPolygon(hull) if len(hull) >= 3 else None
            except ValueError:
                c = None
    if rng.random() < 0.5:
        target = rng.choice((RatioTarget(1, 1), RatioTarget(1, 3)))
    else:
        target = RatioTarget(rng.randint(1, 20), rng.randint(1, 20))
    return c, target, rng.randint(4, 40)


ORACLE_CASES = case_table(
    "test_sweep_matches_the_offset_oracle_at_every_grid_angle", 120, _draw_oracle_case,
    first=[
        (rectangle(1, 1), RatioTarget(1, 1), 4),
        (rectangle(0.05, 20.0), RatioTarget(1, 20), 40),
        (regular_ngon(3), RatioTarget(1, 3), 40),
    ],
)


def test_sweep_matches_the_offset_oracle_at_every_grid_angle():
    for i, (c, target, samples) in enumerate(ORACLE_CASES):
        with case_named(i, c, target, samples):
            sweep, diameter = _ChordSweep(c, target.fraction), _diameter(c)
            for theta in _angle_grid(samples):
                _check_sweep_point(c, target.fraction, sweep.point(theta), diameter)


def _grid_polygon(shape):
    """The polygon of a `_grid_shapes` draw, or a rejected draw."""
    if isinstance(shape, ConvexPolygon):
        return shape
    assume(len(shape) >= 3)
    try:
        c = ConvexPolygon(shape)
    except ValueError:
        assume(False)
    assume(c.area >= 0.05)
    return c


class _LoggedSweep(_ChordSweep):
    """A sweep that counts its closed-form evaluations and the events it
    walks.  The events are walked on construction, so the counters are set
    first."""

    def __init__(self, c, fraction):
        self.evaluations, self.events = 0, 0
        super().__init__(c, fraction)

    def _evaluate(self, i, j, theta):
        self.evaluations += 1
        return super()._evaluate(i, j, theta)

    def _next_event(self, i, j, theta):
        self.events += 1
        return super()._next_event(i, j, theta)


def test_sweep_makes_one_evaluation_per_angle_and_few_events():
    """Each grid angle is one closed-form evaluation, with no walk; the sweep
    takes only the events where an end of the cut passes a vertex, at most
    2m of them over [0, pi], and on a regular n-gon only those of one
    period, 2 pi / n; the same vertices with rotation order 1 walk all."""
    for shape, events in ((rectangle(4, 1), 4), (ConvexPolygon(regular_ngon(64).vertices), 64)):
        sweep = _LoggedSweep(shape, RatioTarget(1, 3).fraction)
        points = [sweep.point(theta) for theta in _angle_grid(720) + [math.pi]]
        assert sweep.evaluations == len(points) == 721
        # the stored intervals start at 0 and at each event up to pi; the
        # walk also found the first event past pi
        assert len(sweep.angles) - 1 == sweep.events - 1 == events <= 2 * len(shape)
    sweep = _LoggedSweep(regular_ngon(64), RatioTarget(1, 3).fraction)
    points = [sweep.point(theta) for theta in _angle_grid(720) + [math.pi]]
    assert sweep.evaluations == len(points) == 721
    assert len(sweep.angles) <= 4


def _draw_period_case(rng):
    """A regular n-gon with n <= 5000, and an area fraction."""
    return rng.randint(3, 5000), rng.uniform(0.01, 0.99)


PERIOD_CASES = case_table(
    "test_one_period_sweep_matches_the_full_sweep", 20, _draw_period_case,
    first=[(n, f) for n in (3, 4, 5, 6, 7, 8, 64, 1050, 4096) for f in (1 / 2, 1 / 4, 1 / 7)],
)


def test_one_period_sweep_matches_the_full_sweep():
    """On a regular n-gon the sweep walks the events of one period, 2 pi / n,
    and shifts their edge pairs by a vertex a period.  Its points equal those
    of the full sweep over the same vertices with rotation order 1 at every
    grid angle, at pi and at each period boundary k * 2 pi / n, or, at an
    event angle, where the pair on either side holds the cut, agree within
    1e-14 relative (offsets and levels within 1e-14 of the n-gon's
    diameter, 2)."""
    for index, (n, fraction) in enumerate(PERIOD_CASES):
        with case_named(index, n, fraction):
            c = regular_ngon(n)
            full, one = _ChordSweep(ConvexPolygon(c.vertices), fraction), _ChordSweep(c, fraction)
            bounds = [k * (2 * math.pi / n) for k in range(n // 2 + 1)]
            for theta in _angle_grid(720) + [math.pi] + [t for t in bounds if t <= math.pi]:
                p, q = full.point(theta), one.point(theta)
                for name, x, y in zip(ProfilePoint._fields, p, q):
                    scale = 2.0 if name in ("offset", "level") else abs(x)
                    assert x == y or abs(x - y) <= 1e-14 * scale, (theta, name, x, y)


@settings(max_examples=100)
@given(shape=_grid_shapes(large=(64, 255)), fraction=st.floats(0.02, 0.5))
def test_every_event_chord_holds_the_target_area(shape, fraction):
    """At each stored event, the cut through the vertex that an end passes
    there holds the target area: on the polygon drawn, and on its vertices
    with rotation order 1, whose walk over [0, pi] has events even where one
    period of an n-gon's has none.  Each check is O(m), so the n-gons stop
    at 255."""
    c = _grid_polygon(shape)
    for sweep in (_ChordSweep(c, fraction), _ChordSweep(ConvexPolygon(c.vertices), fraction)):
        # (angle, the vertex an end passes there): the end on edge i when i changes
        events = [(angle, (i if i != i0 else j) % sweep.m) for angle, i, j, i0
                  in zip(sweep.angles[1:], sweep.ii[1:], sweep.jj[1:], sweep.ii)]
        for angle, k in events:
            n = (-math.sin(angle), math.cos(angle))
            x, y = c.vertices[k]
            area = cut_area(c.vertices, n, x * n[0] + y * n[1])
            assert abs(area - fraction * c.area) <= 1e-12 * c.area
    assert events


@settings(max_examples=100)
@given(shape=_grid_shapes(), fraction=st.floats(0.01, 0.99))
# rounding puts one event below the one before
@example(shape=ConvexPolygon(regular_ngon(6).vertices), fraction=0.5)
def test_event_intervals_cover_the_half_turn(shape, fraction):
    """The stored event angles start at 0, never decrease, and the last
    interval reaches past the walk's end, pi or the end of the first period
    if that comes first: the next event from its edge pair lies beyond.
    At an event angle the point takes every event there: the pair of the
    last interval that starts at that angle."""
    sweep = _ChordSweep(_grid_polygon(shape), fraction)
    angles, ii, jj = sweep.angles, sweep.ii, sweep.jj
    assert angles[0] == 0.0
    assert all(a <= b for a, b in zip(angles, angles[1:]))
    end = min(math.pi, sweep.period)
    assert angles[-1] <= end < sweep._next_event(ii[-1], jj[-1], angles[-1])[0]
    assert len(angles) == len(ii) == len(jj)
    sweep._evaluate = lambda i, j, theta: (i, j)
    for k, angle in enumerate(angles):
        if k + 1 == len(angles) or angles[k + 1] > angle:
            assert sweep.point(angle) == (ii[k], jj[k])


@settings(max_examples=60)
@given(shape=_grid_shapes(), fraction=st.floats(0.01, 0.99), samples=st.integers(4, 40),
       order=st.integers(0, 2**32 - 1))
def test_sweep_points_do_not_depend_on_their_order(shape, fraction, samples, order):
    """A point depends on its angle alone: the grid evaluated in a shuffled
    order gives the sorted order's points bit for bit."""
    c = _grid_polygon(shape)
    grid = _angle_grid(samples) + [math.pi]
    sweep = _ChordSweep(c, fraction)
    in_order = [repr(sweep.point(theta)) for theta in grid]
    sweep = _ChordSweep(c, fraction)
    shuffled = {theta: repr(sweep.point(theta))
                for theta in random.Random(order).sample(grid, len(grid))}
    assert [shuffled[theta] for theta in grid] == in_order


def _scaled(c, k):
    f = 10.0 ** k
    return ConvexPolygon([(x * f, y * f) for x, y in c.vertices])


@settings(max_examples=60)
@given(
    shape=st.one_of(
        st.builds(rectangle, st.floats(0.2, 5.0), st.floats(0.2, 5.0)),
        st.builds(regular_ngon, st.integers(3, 12)),
        st.lists(
            st.tuples(st.floats(0.0, 2 * math.pi), st.floats(0.5, 3.0)), min_size=3, max_size=12
        ).map(lambda polar: convex_hull([(r * math.cos(a), r * math.sin(a)) for a, r in polar])),
    ),
    target=st.sampled_from([RatioTarget(1, 3), RatioTarget(1, 1), RatioTarget(2, 5)]),
    k=st.integers(-100, 100),
)
def test_fair_cut_answers_do_not_depend_on_scale(shape, target, k):
    """Scaling the polygon by 10^k keeps the found flag and the sampled rho
    range, and a found cut still splits the area a:b."""
    if not isinstance(shape, ConvexPolygon):
        assume(len(shape) >= 3)
        try:
            shape = ConvexPolygon(shape)
        except ValueError:
            assume(False)
        assume(shape.area >= 0.05)
    shape_k = _scaled(shape, k)
    res, res_k = (find_scaled_fair_cut(c, target, samples=90) for c in (shape, shape_k))
    assert res_k.found == res.found
    assert res_k.rho_min == pytest.approx(res.rho_min, rel=1e-12)
    assert res_k.rho_max == pytest.approx(res.rho_max, rel=1e-12)
    if res_k.found:
        pieces = (split(shape, res.cut), split(shape_k, res_k.cut))
        ratios = [sr.area_a / sr.area_b for sr in pieces]
        assert ratios[1] == pytest.approx(ratios[0], rel=1e-12)
        assert ratios[0] == pytest.approx(target.a / target.b, rel=1e-9)


def _moved(c, dx, dy):
    return ConvexPolygon([(x + dx, y + dy) for x, y in c.vertices])


@settings(max_examples=60)
@given(
    shape=st.one_of(
        st.builds(rectangle, st.integers(1, 64).map(lambda k: k / 8),
                  st.integers(1, 64).map(lambda k: k / 8)),
        st.lists(
            st.tuples(st.integers(-256, 256), st.integers(-256, 256)), min_size=3, max_size=12
        ).map(lambda pts: convex_hull([(x / 64, y / 64) for x, y in pts])),
    ),
    target=st.sampled_from([RatioTarget(1, 3), RatioTarget(1, 1), RatioTarget(2, 5)]),
    dx=st.integers(-2**27, 2**27),
    dy=st.integers(-2**27, 2**27),
)
@example(shape=rectangle(1, 1), target=RatioTarget(1, 1), dx=2**27, dy=2**27)
def test_fair_cut_answers_do_not_depend_on_position(shape, target, dx, dy):
    """Moving a polygon with dyadic coordinates by integers up to 2^27 is
    exact, and keeps the found flag and the sampled rho range; a found cut
    still splits the moved polygon a:b, and a cut just above the lowest
    vertex cuts off the same thin piece."""
    if not isinstance(shape, ConvexPolygon):
        assume(len(shape) >= 3)
        try:
            shape = ConvexPolygon(shape)
        except ValueError:
            assume(False)
        assume(shape.area >= 0.05)
    moved = _moved(shape, dx, dy)
    assert moved.area == pytest.approx(shape.area, rel=1e-12)
    res, res_moved = (find_scaled_fair_cut(c, target, samples=90) for c in (shape, moved))
    assert res_moved.found == res.found
    assert res_moved.rho_min == pytest.approx(res.rho_min, rel=1e-12)
    assert res_moved.rho_max == pytest.approx(res.rho_max, rel=1e-12)
    if res_moved.found:
        # split takes the cut's offset from the first vertex, as the sweep
        # solved it, so no level of the moved plane is rounded
        sr = split(moved, res_moved.cut)
        assert abs(sr.area_a - target.fraction * moved.area) <= 1e-12 * moved.area
    # 2^-17 of the height, so the moved level is exact too
    ys = [y for _, y in shape.vertices]
    low = min(ys) + (max(ys) - min(ys)) / 2**17
    thin, thin_moved = split(shape, LineCut(0.0, low)), split(moved, LineCut(0.0, low + dy))
    assert thin is not None and thin_moved is not None
    assert thin_moved.area_a == thin.area_a


def test_profile_is_sampled_lipschitz():
    """|rho(theta + delta) - rho(theta)| <= K * delta at delta = 1e-4.
    Measured K stays below 1 on unit-scale polygons; 5 is a safe ceiling."""
    rng = random.Random(11)
    delta = 1e-4
    shapes = [random_polygon(rng, rng.randint(5, 40), 3) for _ in range(4)]
    shapes.append(
        ConvexPolygon(
            [
                (math.cos(2 * math.pi * j / 64), math.sin(2 * math.pi * j / 64))
                for j in range(64)
            ]
        )
    )
    target = RatioTarget(1, 3)

    def rho_at(c, theta):
        sr = split(c, solve_offset_for_area(c, theta, target.fraction))
        return sr.perimeter_a / sr.perimeter_b

    for c in shapes:
        for _ in range(25):
            theta = rng.uniform(0, math.pi)
            jump = abs(rho_at(c, theta + delta) - rho_at(c, theta))
            assert jump <= 5.0 * delta


def _check_equal_fair_cut(c):
    """The 1:1 cut always exists: at the halving offset rho(pi) = 1/rho(0),
    so rho - 1 changes sign on [0, pi].  Its pieces have equal areas and
    equal perimeters."""
    res = find_scaled_fair_cut(c, RatioTarget(1, 1))
    assert res.found
    sr = split(c, res.cut)
    assert abs(sr.area_a - sr.area_b) <= 1e-9 * c.area
    assert abs(sr.perimeter_a - sr.perimeter_b) <= 1e-9 * c.perimeter


def test_equal_fair_cut_rectangle():
    _check_equal_fair_cut(rectangle(4, 1))


def test_equal_fair_cut_right_triangle():
    _check_equal_fair_cut(ConvexPolygon([(0, 0), (4, 0), (0, 3)]))


def test_equal_fair_cut_random_polygons():
    rng = random.Random(17)
    _check_equal_fair_cut(regular_ngon(7))
    for _ in range(100):
        _check_equal_fair_cut(random_polygon(rng, rng.randint(3, 30), 3))


@pytest.mark.parametrize("n", [9, 15, 24, 25, 27, 40, 45, 64, 465, 4096])
def test_equal_fair_cut_on_a_regular_polygon_is_the_first_grid_angle(n):
    """At 1:1 many grid angles of a regular n-gon give rho within rounding
    of 1; the answer is the first of them, theta = 0, whether the sweep
    walks one period or all of [0, pi]."""
    c = regular_ngon(n)
    for polygon in (c, ConvexPolygon(c.vertices)):
        res = find_scaled_fair_cut(polygon, RatioTarget(1, 1))
        assert res.found and res.cut.theta == 0.0


def test_the_rotation_order_is_read_from_the_polygon():
    for solve in (perimeter_ratio_profile, find_scaled_fair_cut):
        with pytest.raises(TypeError):
            solve(rectangle(4, 1), RatioTarget(1, 3), order=4)


# --- band family ---


def test_band_half_boundary_is_always_balanced():
    # at s = 1/2 each piece owns half the outer boundary plus the same cut
    for a, b in [(1, 1), (1, 3), (2, 5)]:
        e = nonconvex_band_partition(1.0, 1.0, RatioTarget(a, b), 0.5)
        assert e.feasible
        assert abs(e.rho - 1.0) <= 1e-12


def test_band_square_half_and_half():
    e = nonconvex_band_partition(1.0, 1.0, RatioTarget(1, 1), 0.5)
    assert e.feasible
    assert abs(e.thickness - 0.5) <= 1e-12
    assert e.small_convex  # the band degenerates to the right half
    assert abs(e.area_small - 0.5) <= 1e-12


def test_band_just_below_half_is_the_half_band():
    # at 1:1 the two-corner area equation has a double root at s = 1/2, so
    # just below it the discriminant is 0 up to rounding, not negative
    target = RatioTarget(1, 1)
    e = nonconvex_band_partition(1.4777, 1.4777, target, 0.49999999999999994)
    half = nonconvex_band_partition(1.4777, 1.4777, target, 0.5)
    assert e.feasible and half.feasible
    for field in ("thickness", "area_small", "area_big", "perimeter_small", "perimeter_big", "rho"):
        assert abs(getattr(e, field) - getattr(half, field)) <= 1e-12, field
    assert len(e.piece_small) == len(half.piece_small)
    for p, q in zip(e.piece_small, half.piece_small):
        assert math.dist(p, q) <= 1e-12


def test_band_one_corner_regime_has_rho_two_s():
    # with exactly one corner covered, each cut wall trades one for one
    # with boundary, so rho == 2 s identically
    for s in (0.26, 0.30, 0.34):
        e = nonconvex_band_partition(1.0, 1.0, RatioTarget(1, 3), s)
        assert e.feasible and e.corners_covered == 1
        assert abs(e.rho - 2 * s) <= 1e-12
        assert not e.small_convex


def test_band_area_identities_across_sweep():
    target = RatioTarget(2, 7)
    want = target.fraction * 2.0 * 3.0
    for j in range(1, 200):
        e = nonconvex_band_partition(2.0, 3.0, target, j / 400)
        if not e.feasible:
            assert e.reason
            continue
        assert abs(e.area_small - want) <= 1e-9
        assert abs(e.area_small + e.area_big - 6.0) <= 1e-9
        assert 0 < e.rho <= 1 + 1e-12


def test_band_solver_hits_one_to_three_on_square():
    res = solve_band(1.0, 1.0, RatioTarget(1, 3))
    assert res.found
    assert abs(res.sample.rho - SQRT_THIRD) < 1e-6
    assert abs(res.sample.s - SQRT_THIRD / 2) < 1e-3
    # the half-boundary configuration is the non-convex endpoint
    end = nonconvex_band_partition(1.0, 1.0, RatioTarget(1, 3), 0.5)
    assert end.feasible and not end.small_convex


def test_band_solver_tall_rectangle_non_convex():
    res = solve_band(1.0, 4.0, RatioTarget(1, 8))
    assert res.found
    assert abs(res.sample.rho - math.sqrt(1 / 8)) < 1e-6
    assert not res.sample.small_convex


def test_band_solver_wide_rectangle_stays_convex():
    # the same ratio on the wide orientation crosses in the strip regime
    res = solve_band(4.0, 1.0, RatioTarget(1, 8))
    assert res.found
    assert res.sample.corners_covered == 0
    assert res.sample.small_convex


def test_band_solver_reports_gap():
    # rho* = 0.8 falls between the one-corner supremum 0.75 and the
    # two-corner onset ~0.90 on the unit square
    res = solve_band(1.0, 1.0, RatioTarget(16, 25))
    assert not res.found
    assert res.sample is None
    assert res.runs
    assert res.infeasible_reasons


def test_band_rejects_bad_arguments():
    with pytest.raises(ValueError):
        nonconvex_band_partition(1.0, 1.0, RatioTarget(1, 3), 0.0)
    with pytest.raises(ValueError):
        nonconvex_band_partition(1.0, 1.0, RatioTarget(1, 3), 0.6)
    with pytest.raises(ValueError):
        nonconvex_band_partition(0.0, 1.0, RatioTarget(1, 3), 0.3)


@pytest.mark.parametrize("tol", [0.0, -1e-9, float("nan")])
def test_solvers_reject_a_tolerance_that_is_not_positive(tol):
    # no solver may answer "not found" because nothing can meet tol
    square = rectangle(1, 1)
    with pytest.raises(ValueError, match="tol must be positive"):
        find_scaled_fair_cut(square, RatioTarget(1, 3), tol=tol)
    with pytest.raises(ValueError, match="tol must be positive"):
        solve_band(1.0, 1.0, RatioTarget(1, 3), tol=tol)


def test_band_solver_rejects_sides_out_of_range():
    # sides outside (1e-75, 1e75) would over- or underflow the closed forms
    for w, h in [(0.0, 1.0), (1.0, -2.0), (math.inf, 1.0), (1.0, math.nan), (1e-200, 1e-200),
                 (1e200, 1e200)]:
        with pytest.raises(ValueError, match="rectangle dimensions must be positive"):
            solve_band(w, h, RatioTarget(1, 3))


# --- band family in closed form ---

SIDES = st.floats(0.2, 5.0)
RATIOS = st.integers(1, 12).flatmap(lambda a: st.tuples(st.just(a), st.integers(a, 12)))


def ends_on_corner(W, H, e):
    return any(abs(e.arc_length - c) <= 1e-12 * 2 * (W + H) for c in (W / 2, W / 2 + H))


def band_rho(W, H, e):
    """rho of a feasible band from its arc length, thickness and corner
    count alone: the small piece has perimeter 2 ell + 2(1-k) t and the big
    one p + 2(1-k) t, less the end cap 2t when the arc ends on a corner."""
    p, ell, k, t = 2 * (W + H), e.arc_length, e.corners_covered, e.thickness
    return (2 * ell + 2 * (1 - k) * t) / (p + 2 * (1 - k) * t - 2 * t * ends_on_corner(W, H, e))


@settings(max_examples=100)
@given(SIDES, SIDES, RATIOS, st.lists(st.floats(0.0, 0.5, exclude_min=True), max_size=20))
def test_band_rho_has_a_closed_form(W, H, ratio, arcs):
    corners = [W / 2 / (2 * (W + H)), (W / 2 + H) / (2 * (W + H))]
    for s in arcs + corners:
        e = nonconvex_band_partition(W, H, RatioTarget(*ratio), s)
        if e.feasible:
            assert abs(band_rho(W, H, e) - e.rho) <= 1e-12


@settings(max_examples=200)
@given(SIDES, SIDES, RATIOS)
def test_every_found_band_verifies(W, H, ratio):
    target = RatioTarget(*ratio)
    res = solve_band(W, H, target)
    assert res.runs  # s = 1/2 always halves the boundary
    if res.found:
        e = res.sample
        assert e.feasible
        assert abs(e.area_small / e.area_big - target.a / target.b) <= 1e-9 * target.a / target.b
        assert abs(e.rho - target.rho) <= 1e-6
        assert any(r.s_lo - 1e-12 <= e.s <= r.s_hi + 1e-12 for r in res.runs)


@settings(max_examples=100)
@given(SIDES, SIDES, RATIOS, st.floats(0.01, 100.0))
def test_band_solve_is_scale_invariant(W, H, ratio, c):
    target = RatioTarget(*ratio)
    res, scaled = solve_band(W, H, target), solve_band(c * W, c * H, target)
    assert scaled.found == res.found
    if res.found:
        assert abs(scaled.sample.s - res.sample.s) <= 1e-9
        assert abs(scaled.sample.rho - res.sample.rho) <= 1e-12
    assert len(scaled.runs) == len(res.runs)
    for r, q in zip(res.runs, scaled.runs):
        assert abs(r.s_lo - q.s_lo) <= 1e-9 and abs(r.s_hi - q.s_hi) <= 1e-9
        assert abs(r.rho_min - q.rho_min) <= 1e-9 and abs(r.rho_max - q.rho_max) <= 1e-9


@settings(max_examples=100)
@given(SIDES, SIDES, RATIOS)
def test_band_runs_agree_with_a_grid_of_partition_samples(W, H, ratio):
    # the oracle: nonconvex_band_partition at s = j/400, j = 1..200
    target = RatioTarget(*ratio)
    res = solve_band(W, H, target)
    grid = [nonconvex_band_partition(W, H, target, j / 400) for j in range(1, 201)]
    for e in grid:
        if e.feasible:
            assert any(
                r.s_lo - 1e-12 <= e.s <= r.s_hi + 1e-12
                and r.rho_min - 1e-12 <= e.rho <= r.rho_max + 1e-12
                for r in res.runs
            )
        else:
            assert e.reason in res.infeasible_reasons
    # a feasible bracket of the target within one corner count holds a
    # root; rho jumps where the arc ends on a corner
    if any(
        e0.feasible and e1.feasible and e0.corners_covered == e1.corners_covered
        and not ends_on_corner(W, H, e1)
        and (e0.rho - target.rho) * (e1.rho - target.rho) <= 0
        for e0, e1 in zip(grid, grid[1:])
    ):
        assert res.found
    # and every run is feasible from end to end, up to rounding at s_lo
    for r in res.runs:
        start = r.s_lo * (1 + 1e-12) if r.s_lo < r.s_hi else r.s_lo
        for s in (start, (r.s_lo + r.s_hi) / 2, r.s_hi):
            assert nonconvex_band_partition(W, H, target, s).feasible


def test_band_runs_on_the_square_at_sixteen_to_twenty_five():
    res = solve_band(1.0, 1.0, RatioTarget(16, 25))
    one_corner = [r for r in res.runs if r.s_lo < r.s_hi == 0.375]
    assert len(one_corner) == 1
    assert abs(one_corner[0].rho_max - 0.75) <= 1e-12
    # at s = 3/8 itself the arc ends on a corner: a band of its own
    assert any(r.s_lo == r.s_hi == 0.375 and r.rho_min > 0.9 for r in res.runs)


def test_band_run_reaches_its_interior_minimum():
    # on the unit square at 1:29 the strip's rho = 2(A/t + t) / (4 + 2t)
    # dips to 1/6 at t = 1/5, s = 1/24, below both ends of its run
    target = RatioTarget(1, 29)
    res = solve_band(1.0, 1.0, target)
    strip = res.runs[0]
    assert strip.s_lo < 1 / 24 < strip.s_hi
    assert abs(strip.rho_min - 1 / 6) <= 1e-12
    assert min(strip.rho_lo, strip.rho_hi) > 0.2
    assert abs(nonconvex_band_partition(1.0, 1.0, target, 1 / 24).rho - 1 / 6) <= 1e-12
    # sqrt(1/29) is crossed twice in the dip; the answer is the first crossing
    assert res.found and res.sample.s < 1 / 24


def test_band_solver_finds_a_band_just_inside_its_run():
    # the two-corner run starts at s = 0.43651, rho = 0.86555, and reaches
    # sqrt(3/4) only 2.2e-4 later in s
    res = solve_band(2.0, 0.25, RatioTarget(3, 4))
    assert res.found
    assert abs(res.sample.rho - math.sqrt(3 / 4)) <= 1e-12
    assert res.sample.corners_covered == 2


@pytest.mark.parametrize("W, H", [(0.346, 2.323), (1.0, 1.0), (3.0, 0.5)])
def test_band_at_one_to_one_sits_on_the_thickness_cap(W, H):
    # at s = 1/2 the band is the half rectangle, t = min(W,H)/2 exactly:
    # rounding may put t a hair above the cap, within the partition's slack
    res = solve_band(W, H, RatioTarget(6, 6))
    assert res.found and abs(res.sample.rho - 1.0) <= 1e-12
    assert any(r.s_hi == 0.5 for r in res.runs)
