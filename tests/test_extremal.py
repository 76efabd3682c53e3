"""Diameter extremizers: lens upper bound, constant-width and sector lower end."""

import math
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from convexkit.kernel import (
    ArcPolygon,
    ConvexPolygon,
    SupportBody,
    convex_hull,
    diameter,
    support_body_metrics,
)
from convexkit.extremal import (
    CONJECTURED_CROSSOVER,
    REULEAUX_AREA_COEFF,
    Lens,
    _lens_ratio,
    crossover_scan,
    interpolant_with_area,
    interpolate_constant_width,
    lens_metrics,
    max_diameter_shape,
    min_diameter_survey,
    reuleaux_metrics,
    sector_metrics,
    solve_sector,
)


def random_polygon(rng, npts):
    while True:
        pts = [(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(npts)]
        hull = convex_hull(pts)
        if len(hull) >= 3:
            try:
                return ConvexPolygon(hull)
            except ValueError:
                continue


# --- lens family ---


def test_lens_validation():
    with pytest.raises(ValueError):
        Lens(0.0, 1.0)
    with pytest.raises(ValueError):
        Lens(1.0, 2.0)  # half-angle beyond pi/2


def test_lens_ratio_rises_with_the_half_angle():
    # max_diameter_shape inverts area/perimeter^2 of the lens by bisection in
    # the half-angle, which needs the ratio to rise on (0, pi/2]
    n = 10_000
    step = (math.pi / 2 - 1e-4) / (n - 1)
    alphas = [1e-4 + k * step for k in range(n - 1)] + [math.pi / 2]
    ratios = [_lens_ratio(a) for a in alphas]
    assert all(u0 < u1 for u0, u1 in zip(ratios, ratios[1:]))


def test_lens_disc_limit():
    # alpha = pi/2 is the disc of diameter d
    m = lens_metrics(Lens(2.0, math.pi / 2))
    assert abs(m["area"] - math.pi) <= 1e-12
    assert abs(m["perimeter"] - 2 * math.pi) <= 1e-12


def test_max_diameter_shape_round_trips():
    rng = random.Random(2)
    for _ in range(200):
        p = rng.uniform(1.0, 20.0)
        # stay below the disc bound so a lens exists
        a = rng.uniform(0.05, 0.999) * p * p / (4 * math.pi)
        lens = max_diameter_shape(a, p)
        assert lens is not None
        m = lens_metrics(lens)
        assert abs(m["area"] - a) <= 1e-9 * a
        assert abs(m["perimeter"] - p) <= 1e-9 * p


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    p=st.floats(min_value=0.01, max_value=1000.0),
    share=st.floats(min_value=0.01, max_value=1.0),
)
def test_every_lens_verifies(p, share):
    # share of the disc bound p^2 / 4 pi, up to the disc itself
    a = share * p * p / (4 * math.pi)
    m = lens_metrics(max_diameter_shape(a, p))
    assert abs(m["area"] - a) <= 1e-9 * a
    assert abs(m["perimeter"] - p) <= 1e-9 * p


def test_max_diameter_shape_disc_bound():
    p = 2 * math.pi
    a_disc = math.pi
    lens = max_diameter_shape(a_disc, p)
    assert lens is not None
    assert abs(lens.alpha - math.pi / 2) <= 1e-9
    assert abs(lens.diameter - 2.0) <= 1e-9
    assert max_diameter_shape(a_disc * 1.001, p) is None
    with pytest.raises(ValueError):
        max_diameter_shape(-1.0, p)


def test_lens_dominates_random_polygons():
    # the lens with a polygon's area and perimeter is never slimmer than
    # the polygon itself
    rng = random.Random(9)
    for _ in range(150):
        c = random_polygon(rng, rng.randint(3, 30))
        lens = max_diameter_shape(c.area, c.perimeter)
        assert lens is not None  # polygons sit strictly below the disc bound
        assert lens.diameter >= diameter(c) - 1e-9


# --- constant-width family ---


def test_reuleaux_closed_form():
    m = reuleaux_metrics(2.0)
    assert abs(m["area"] - REULEAUX_AREA_COEFF * 4.0) <= 1e-12
    assert abs(m["perimeter"] - 2 * math.pi) <= 1e-12
    assert m["diameter"] == 2.0
    with pytest.raises(ValueError):
        reuleaux_metrics(0.0)


def test_reuleaux_support_body_matches_closed_form():
    # the exact body, and a 14,400-sample body of its support function
    exact = ArcPolygon.reuleaux(1.0)
    assert abs(exact.area - REULEAUX_AREA_COEFF) <= 1e-15
    assert abs(exact.perimeter - math.pi) <= 1e-14
    body = SupportBody.from_function(exact.support, 14400)
    m = support_body_metrics(body)
    assert abs(m["area"] - REULEAUX_AREA_COEFF) <= 1e-6
    assert abs(m["perimeter"] - math.pi) <= 1e-6
    w = body.widths()
    assert max(w) - min(w) <= 1e-9


def test_interpolants_keep_width_and_perimeter():
    for t in (0.0, 0.3, 0.7, 1.0):
        body = interpolate_constant_width(t)
        w_min, w_max = body.widths()
        assert w_max - w_min <= 1e-9
        assert abs(body.perimeter - math.pi) <= 1e-6
        assert abs(w_max - 1.0) <= 1e-9
    with pytest.raises(ValueError):
        interpolate_constant_width(1.5)


def test_interpolant_area_sweep_is_continuous():
    lo = REULEAUX_AREA_COEFF
    hi = 0.25 * math.pi
    areas = [interpolate_constant_width(k / 1000).area for k in range(0, 1001)]
    assert abs(areas[0] - lo) <= 1e-3
    assert abs(areas[-1] - hi) <= 1e-3
    assert all(b > a for a, b in zip(areas, areas[1:]))
    assert max(b - a for a, b in zip(areas, areas[1:])) < 1e-3


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(share=st.floats(min_value=0.0, max_value=1.0))
@example(share=0.0)
@example(share=1.0)
def test_interpolant_hits_every_sampled_area(share):
    # every area of the exact constant-width range, ends included
    lo, hi = REULEAUX_AREA_COEFF, 0.25 * math.pi
    target = lo + share * (hi - lo)
    t, body = interpolant_with_area(target)
    assert 0.0 <= t <= 1.0
    assert abs(body.area - target) <= 1e-9


def test_interpolant_clamps_to_the_reuleaux_end():
    # at the closed-form Reuleaux area the body is the Reuleaux triangle itself
    t, body = interpolant_with_area(REULEAUX_AREA_COEFF)
    assert t == 0.0
    assert body.pieces == ArcPolygon.reuleaux(1.0).pieces
    assert abs(body.area - REULEAUX_AREA_COEFF) <= 1e-15


def test_interpolant_with_area_solves():
    target = 0.72
    t, body = interpolant_with_area(target)
    assert 0.0 < t < 1.0
    assert abs(body.area - target) <= 1e-9
    with pytest.raises(ValueError):
        interpolant_with_area(0.5)  # below the Reuleaux floor
    with pytest.raises(ValueError):
        interpolant_with_area(0.80)  # above the disc ceiling


# --- sector family ---


def test_sector_metrics_diameter_switch():
    # up to phi = pi/3 the radius is the diameter; past it the far chord wins
    m = sector_metrics(1.0, math.pi / 6)
    assert m["diameter"] == 1.0
    m = sector_metrics(1.0, math.pi / 2)
    assert abs(m["diameter"] - math.sqrt(2.0)) <= 1e-12
    with pytest.raises(ValueError):
        sector_metrics(1.0, 4.0)


def test_solve_sector_branches():
    p = math.pi

    def u_to_area(u):
        return u * p * p

    # peak of phi / (2 (2+phi)^2) at phi = 2: a single root
    roots = solve_sector(u_to_area(1.0 / 16.0), p)
    assert len(roots) == 1
    assert roots[0][1] == 2.0
    # between f(pi) ~ 0.05942 and the peak both branches answer
    roots = solve_sector(u_to_area(0.061), p)
    assert len(roots) == 2
    assert roots[0][1] < 2.0 < roots[1][1]
    # below f(pi) only the rising branch remains
    roots = solve_sector(u_to_area(0.05), p)
    assert len(roots) == 1
    assert roots[0][1] < 2.0
    for r, phi in solve_sector(0.5565410, p):
        m = sector_metrics(r, phi)
        assert abs(m["area"] - 0.5565410) <= 1e-9
        assert abs(m["perimeter"] - p) <= 1e-9


# u = A / p^2 of the sector with phi = pi, where the falling branch ends
U_AT_PI = math.pi / (2.0 * (2.0 + math.pi) ** 2)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    u=st.floats(min_value=1e-200, max_value=1.0 / 16.0),
    p=st.floats(min_value=0.1, max_value=100.0),
)
def test_every_sector_root_verifies(u, p):
    area = u * p * p
    assume(area > 0.0)
    roots = solve_sector(area, p)
    for r, phi in roots:
        assert 0.0 < phi <= math.pi
        m = sector_metrics(r, phi)
        assert abs(m["area"] - area) <= 1e-9 * area
        assert abs(m["perimeter"] - p) <= 1e-9 * p
    # counts away from rounding distance of the branch ends f(pi) and 1/16
    if u < U_AT_PI * (1 - 1e-12):
        assert len(roots) == 1
    elif U_AT_PI * (1 + 1e-12) < u < (1 - 1e-12) / 16.0:
        assert len(roots) == 2
    else:
        assert len(roots) in (1, 2)


def test_sector_peak_is_phi_two():
    for p in (1.0, 2.0, math.pi, 10.0):
        assert solve_sector(p * p / 16.0, p) == [(p / 4.0, 2.0)]
    # one ulp either side of the peak is still the peak, not two roots
    for u in (math.nextafter(1.0 / 16.0, 0.0), math.nextafter(1.0 / 16.0, 1.0)):
        assert solve_sector(u, 1.0) == [(0.25, 2.0)]


# --- survey and reconciliation ---


def test_min_diameter_survey_regimes():
    # constant-width window: both families could answer, CW diameter 1 wins
    rep = min_diameter_survey(0.71)[0]
    fams = {c["family"] for c in rep["candidates"]}
    assert "constant-width" in fams
    assert rep["best"]["family"] == "constant-width"
    assert abs(rep["best"]["diameter"] - 1.0) <= 1e-12

    # below the Reuleaux floor only sectors reach
    rep = min_diameter_survey(0.40)[0]
    assert all(c["family"] == "sector" for c in rep["candidates"])
    assert abs(rep["best"]["diameter"] - 1.25107) <= 1e-4

    # above the disc bound nothing fits
    rep = min_diameter_survey(0.82)[0]
    assert not rep["feasible"]
    assert "disc bound" in rep["reason"]

    # gap between the sector peak u = 1/16 and the Reuleaux floor:
    # feasible, but neither surveyed family reaches
    rep = min_diameter_survey(0.65)[0]
    assert rep["feasible"]
    assert rep["candidates"] == []
    assert "no surveyed family" in rep["reason"]


@pytest.mark.parametrize("area", [0.71, 0.40, 0.82])
def test_min_diameter_survey_hands_over_the_measured_body(area):
    rep, body = min_diameter_survey(area)
    assert rep == min_diameter_survey(area)[0]
    cw = [c for c in rep["candidates"] if c["family"] == "constant-width"]
    if not cw:
        assert body is None
        return
    # the very body the candidate was measured on: the interpolant at its t
    assert body.area == cw[0]["area"]
    rebuilt = interpolate_constant_width(cw[0]["t"], rep["width"])
    assert body.pieces == rebuilt.pieces


def test_crossover_scan_reports_knee_and_conjecture():
    rep = crossover_scan()
    knee = rep["crossover"]
    assert abs(knee["phi"] - math.pi / 3) <= 1e-12
    assert abs(knee["radius"] - 1.0309777) <= 1e-6
    assert abs(knee["area"] - 0.5565410) <= 1e-6
    # at the knee the radius equals the far chord
    assert abs(knee["diameter"] - knee["radius"]) <= 1e-12
    assert rep["conjectured"]["diameter"] == CONJECTURED_CROSSOVER["diameter"]
    assert rep["conjectured"]["area"] == CONJECTURED_CROSSOVER["area"]

    hits = rep["sectors_at_conjectured_area"]
    assert len(hits) == 1
    assert abs(hits[0]["radius"] - 1.00185) <= 1e-4
    assert abs(hits[0]["phi"] - 1.1358) <= 1e-3
    assert abs(hits[0]["diameter"] - 1.07771) <= 1e-4
    assert abs(hits[0]["area"] - rep["conjectured"]["area"]) <= 1e-9


def test_crossover_scan_scales_with_perimeter():
    rep = crossover_scan(2 * math.pi)
    assert abs(rep["constant_width_diameter"] - 2.0) <= 1e-12
    assert abs(rep["crossover"]["area"] - 4 * 0.5565410) <= 1e-5
    with pytest.raises(ValueError):
        crossover_scan(0.0)
