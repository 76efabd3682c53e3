"""Straight-cut fair partitions and the boundary-band family."""

import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from convexkit.kernel import ConvexPolygon, convex_hull, rectangle, regular_ngon
from convexkit.fairpart import (
    LineCut,
    RatioTarget,
    _profile_point,
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


def _check_exact_cut(c, target, theta):
    """The solved cut holds the target area, and the profile point's
    perimeters and chord match the pieces that split builds."""
    with np.errstate(all="raise"):
        cut = solve_offset_for_area(c, theta, target.fraction)
        sr = split(c, cut)
        p = _profile_point(c, target, theta)
    assert abs(sr.area_a - target.fraction * c.area) <= 1e-12 * c.area
    assert abs(p.perimeter_a - sr.perimeter_a) <= 1e-12
    assert abs(p.perimeter_b - sr.perimeter_b) <= 1e-12
    chord = 0.5 * (sr.perimeter_a + sr.perimeter_b - c.perimeter)
    assert abs(p.cut_length - chord) <= 1e-12
    assert abs(sr.cut_length - chord) <= 1e-12


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
    # underflow is harmless here: a subnormal angle makes subnormal coordinates
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        sr = split(c, solve_offset_for_area(c, theta, fraction))
    assert abs(sr.area_a - fraction * c.area) <= 1e-12 * c.area


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
