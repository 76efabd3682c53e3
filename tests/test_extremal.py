"""Diameter extremizers: lens upper bound, constant-width and sector lower end."""

import math
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from convexkit.kernel.arcs import ArcPolygon
from convexkit.kernel.support import SupportBody, support_body_metrics
from convexkit.extremal import (
    CONJECTURED_CROSSOVER,
    REULEAUX_AREA_COEFF,
    Lens,
    _lens_ratio,
    constant_width_range,
    crossover_scan,
    interpolant_with_area,
    interpolate_constant_width,
    lens_metrics,
    max_diameter_shape,
    min_diameter_survey,
    sector_metrics,
    solve_sector,
)
from reference import random_polygon


# --- lens family ---


def test_lens_validation():
    for diameter in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="lens diameter must be positive and finite"):
            Lens(diameter, 1.0)
    with pytest.raises(ValueError, match=r"lens half-angle must lie in \(0, pi/2\]"):
        Lens(1.0, 2.0)  # half-angle beyond pi/2
    with pytest.raises(ValueError, match="half-angle"):
        Lens(1.0, 0.0)


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


@settings(max_examples=300)
@given(
    p=st.floats(min_value=0.01, max_value=1000.0),
    exponent=st.floats(min_value=-30.0, max_value=0.0),
)
def test_every_lens_verifies(p, exponent):
    # area / p^2 from 1e-30 up to the disc bound 1 / 4 pi, the disc itself;
    # a small lens's area must not cancel away in alpha - sin(alpha) cos(alpha)
    a = min(10.0**exponent, 1 / (4 * math.pi)) * p * p
    m = lens_metrics(max_diameter_shape(a, p))
    assert abs(m["area"] - a) <= 1e-12 * a
    assert abs(m["perimeter"] - p) <= 1e-12 * p


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
    # a lens so thin that its arc radius overflows a float
    with pytest.raises(ValueError, match="arc radius overflows"):
        max_diameter_shape(1e-310, 1.0)


def _around_the_disc_bound():
    """The pair that maxdiam and mindiam once split on, then the 21 floats
    nearest the 1e-12 slack of the disc bound at 200 perimeters in 1e-5..1e5."""
    yield 415.1904505058837, 72.23182869479676
    for j in range(200):
        p = 10.0 ** (j / 20 - 5)
        area = p * p * (1 + 1e-12) / (4 * math.pi)
        for _ in range(10):
            area = math.nextafter(area, 0.0)
        for _ in range(21):
            yield area, p
            area = math.nextafter(area, math.inf)


def test_maxdiam_finds_a_lens_exactly_when_mindiam_is_feasible():
    # one disc-bound rule decides both: a lens (the disc, at the bound)
    # exists iff the survey is feasible, and then the disc is a candidate
    for area, p in _around_the_disc_bound():
        report = min_diameter_survey(area, p)[0]
        assert (max_diameter_shape(area, p) is not None) == report["feasible"], (area, p)
        assert not report["feasible"] or report["best"]["family"] == "constant-width"


def test_lens_dominates_random_polygons():
    # the lens with a polygon's area and perimeter is never slimmer than
    # the polygon itself
    rng = random.Random(9)
    for _ in range(150):
        c = random_polygon(rng, rng.randint(3, 30), 2)
        lens = max_diameter_shape(c.area, c.perimeter)
        assert lens is not None  # polygons sit strictly below the disc bound
        assert lens.diameter >= ArcPolygon.polygon(c.vertices).widths()[1] - 1e-9


# --- constant-width family ---


def test_constant_width_range_runs_from_the_reuleaux_triangle_to_the_disc():
    # the ends are the areas of the exact bodies, and scale as the width squared
    for w in (0.5, 1.0, 2.0):
        lo, hi = constant_width_range(w)
        assert lo == pytest.approx(ArcPolygon.reuleaux(w).area, rel=1e-14)
        assert hi == pytest.approx(ArcPolygon.disc(w).area, rel=1e-14)
    assert constant_width_range(2.0) == (REULEAUX_AREA_COEFF * 4.0, math.pi)


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


@settings(max_examples=25)
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


@settings(max_examples=300)
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
    rep, bodies = min_diameter_survey(area)
    assert rep == min_diameter_survey(area)[0]
    # one exact body per candidate, in candidate order
    assert len(bodies) == len(rep["candidates"])
    for c, body in zip(rep["candidates"], bodies):
        if c["family"] == "constant-width":
            # the very body the candidate was measured on: the interpolant at its t
            assert body.area == c["area"]
            assert body == interpolate_constant_width(c["t"], rep["width"])
        else:
            assert body == ArcPolygon.sector(c["radius"], c["phi"])
            assert body.area == pytest.approx(c["area"], rel=1e-12)
            assert body.perimeter == pytest.approx(c["perimeter"], rel=1e-12)
            assert body.widths()[1] == pytest.approx(c["diameter"], rel=1e-9)


@settings(max_examples=200)
@given(share=st.floats(0.001, 1.0), perimeter=st.floats(0.1, 10.0),
       exponent=st.floats(-6.0, 6.0))
@example(share=1.2 / math.pi, perimeter=math.pi, exponent=-6.0)  # area 0.3 at p = pi
def test_min_diameter_survey_does_not_depend_on_scale(share, perimeter, exponent):
    """Scaling by c = 10^exponent, the area by c^2 and the perimeter by c,
    keeps the candidate families and the best family, and scales every
    diameter by c.  The area is `share` of the disc bound p^2 / 4 pi."""
    c = 10.0 ** exponent
    area = share * perimeter * perimeter / (4 * math.pi)
    rep = min_diameter_survey(area, perimeter)[0]
    rep_c = min_diameter_survey(c * c * area, c * perimeter)[0]
    assert [d["family"] for d in rep_c["candidates"]] == [d["family"] for d in rep["candidates"]]
    # between the sectors' peak and the Reuleaux floor no family reaches
    assert rep_c.get("best", {}).get("family") == rep.get("best", {}).get("family")
    for d, d_c in zip(rep["candidates"], rep_c["candidates"]):
        assert d_c["diameter"] == pytest.approx(c * d["diameter"], rel=1e-12)


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
