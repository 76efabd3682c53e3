"""Straight-cut fair partitions and the boundary-band family."""

import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import convexkit.fairpart as fairpart
from convexkit.kernel import ConvexPolygon, convex_hull, diameter, rectangle, regular_ngon
from convexkit.fairpart import (
    LineCut,
    RatioTarget,
    _ChordSweep,
    _angle_grid,
    disc_chord_analysis,
    equal_fair_cut,
    find_scaled_fair_cut,
    nonconvex_band_partition,
    parse_ratio,
    perimeter_ratio_profile,
    solve_band,
    solve_offset_for_area,
    split,
)

SQRT_THIRD = math.sqrt(1.0 / 3.0)


def random_polygon(rng, npts):
    while True:
        pts = [(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(npts)]
        hull = convex_hull(pts)
        if len(hull) >= 3:
            try:
                return ConvexPolygon(hull)
            except ValueError:
                continue


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


def test_parse_ratio():
    assert parse_ratio("1:3") == RatioTarget(1, 3)
    for bad in ("13", "1:3:5", "a:b", "1:0"):
        with pytest.raises(ValueError):
            parse_ratio(bad)


def test_linecut_normalizes_theta():
    c = LineCut(1.5 * math.pi, 0.3)
    assert abs(c.theta - 0.5 * math.pi) < 1e-15
    assert c.offset == -0.3  # same line, flipped normal


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


def test_split_conservation_on_random_cuts():
    rng = random.Random(0)
    done = 0
    while done < 1000:
        c = random_polygon(rng, rng.randint(4, 24))
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
        c = random_polygon(rng, rng.randint(4, 16))
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
        c = random_polygon(rng, rng.randint(4, 12))
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


def _check_sweep_point(c, fraction, p):
    """The sweep's point p matches the oracle: the offset that
    solve_offset_for_area solves, and the pieces that split builds from
    it."""
    cut = solve_offset_for_area(c, p.theta, fraction)
    sr = split(c, cut)
    assert abs(p.offset - cut.offset) <= 1e-12 * diameter(c)
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
    matches it, both when the sweep starts at theta and when it walks there
    from earlier angles."""
    cut = solve_offset_for_area(c, theta, target.fraction)
    sr = split(c, cut)
    _assert_finite(cut.offset, sr)
    points = []
    for lead in (0.0, 0.01, 0.5, 3.0):
        sweep = _ChordSweep(c, target.fraction)
        if lead:
            sweep.point(theta - lead)
        points.append(sweep.point(theta))
    for p in points:
        _assert_finite(p.offset, p)
    assert abs(sr.area_a - target.fraction * c.area) <= 1e-12 * c.area
    chord = 0.5 * (sr.perimeter_a + sr.perimeter_b - c.perimeter)
    assert abs(sr.cut_length - chord) <= 1e-12
    for p in points:
        assert abs(p.offset - cut.offset) <= 1e-12 * diameter(c)
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


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
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


def _grid_shapes():
    rect = st.builds(rectangle, st.floats(0.05, 20.0), st.floats(0.05, 20.0))
    ngon = st.builds(
        regular_ngon, st.one_of(st.integers(3, 40), st.sampled_from([64, 255, 1024, 4096]))
    )
    hull = st.lists(
        st.tuples(st.floats(0.0, 2 * math.pi), st.floats(0.5, 3.0)), min_size=3, max_size=40
    ).map(lambda polar: convex_hull([(r * math.cos(a), r * math.sin(a)) for a, r in polar]))
    return st.one_of(rect, ngon, hull)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    shape=_grid_shapes(),
    target=st.one_of(
        st.sampled_from([RatioTarget(1, 1), RatioTarget(1, 3)]),
        st.builds(RatioTarget, st.integers(1, 20), st.integers(1, 20)),
    ),
    samples=st.integers(4, 40),
)
def test_sweep_matches_the_offset_oracle_at_every_grid_angle(shape, target, samples):
    if isinstance(shape, ConvexPolygon):
        c = shape
    else:
        assume(len(shape) >= 3)
        try:
            c = ConvexPolygon(shape)
        except ValueError:
            assume(False)
        assume(c.area >= 0.05)
    points, _ = _ChordSweep(c, target.fraction).scan(_angle_grid(samples))
    for p in points:
        _check_sweep_point(c, target.fraction, p)


def test_profile_and_fair_cuts_make_at_most_one_offset_solve(monkeypatch):
    calls = []
    oracle = fairpart.solve_offset_for_area

    def counted(*args, **kwargs):
        calls.append(args)
        return oracle(*args, **kwargs)

    monkeypatch.setattr(fairpart, "solve_offset_for_area", counted)
    rect, target = rectangle(4, 1), RatioTarget(1, 3)
    for run in (
        lambda: perimeter_ratio_profile(rect, target),
        lambda: find_scaled_fair_cut(rect, target),  # found by bisection
        lambda: find_scaled_fair_cut(regular_ngon(256), target),
        lambda: equal_fair_cut(ConvexPolygon([(0, 0), (4, 0), (0, 3)])),
    ):
        calls.clear()
        run()
        assert len(calls) <= 1


def test_profile_is_sampled_lipschitz():
    """|rho(theta + delta) - rho(theta)| <= K * delta at delta = 1e-4.
    Measured K stays below 1 on unit-scale polygons; 5 is a safe ceiling."""
    rng = random.Random(11)
    delta = 1e-4
    shapes = [random_polygon(rng, rng.randint(5, 40)) for _ in range(4)]
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


def test_equal_fair_cut_rectangle():
    rect = rectangle(4, 1)
    cut = equal_fair_cut(rect)
    sr = split(rect, cut)
    assert abs(sr.area_a - sr.area_b) <= 1e-9 * rect.area
    assert abs(sr.perimeter_a - sr.perimeter_b) <= 1e-9 * rect.perimeter


def test_equal_fair_cut_right_triangle():
    tri = ConvexPolygon([(0, 0), (4, 0), (0, 3)])
    cut = equal_fair_cut(tri)
    sr = split(tri, cut)
    assert abs(sr.area_a - sr.area_b) <= 1e-9 * tri.area
    assert abs(sr.perimeter_a - sr.perimeter_b) <= 1e-9 * tri.perimeter


def test_equal_fair_cut_random_polygons():
    rng = random.Random(17)
    for _ in range(3):
        c = random_polygon(rng, 20)
        cut = equal_fair_cut(c)
        sr = split(c, cut)
        assert abs(sr.area_a - sr.area_b) <= 1e-9 * c.area
        assert abs(sr.perimeter_a - sr.perimeter_b) <= 1e-9 * c.perimeter


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
        equal_fair_cut(square, tol=tol)
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


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(SIDES, SIDES, RATIOS, st.lists(st.floats(0.0, 0.5, exclude_min=True), max_size=20))
def test_band_rho_has_a_closed_form(W, H, ratio, arcs):
    corners = [W / 2 / (2 * (W + H)), (W / 2 + H) / (2 * (W + H))]
    for s in arcs + corners:
        e = nonconvex_band_partition(W, H, RatioTarget(*ratio), s)
        if e.feasible:
            assert abs(band_rho(W, H, e) - e.rho) <= 1e-12


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
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


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
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


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
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
