"""The exact arc-polygon kernel against sampled support bodies, polygons and
the closed forms of the shapes it builds."""

import math
import random
import re
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexkit.cli import main
from convexkit.extremal import (
    REULEAUX_AREA_COEFF,
    Lens,
    interpolant_with_area,
    interpolate_constant_width,
    lens_metrics,
    sector_metrics,
)
from convexkit.kernel.arcs import ArcPolygon
from convexkit.kernel.support import SupportBody, support_body_metrics
from reference import random_convex_polygon

SAMPLES = 28800

lengths = st.floats(min_value=0.1, max_value=10.0)
lenses = st.builds(ArcPolygon.lens, lengths, st.floats(min_value=0.05, max_value=math.pi / 2))
sectors = st.builds(ArcPolygon.sector, lengths, st.floats(min_value=0.05, max_value=math.pi))
interpolants = st.builds(
    lambda t, w: interpolate_constant_width(t, w), st.floats(min_value=0.0, max_value=1.0), lengths
)
offsets = st.floats(min_value=-5.0, max_value=5.0)


def translated(shape, dx, dy):
    return ArcPolygon((p.lo, p.hi, p.x + dx, p.y + dy, p.r) for p in shape.pieces)


def segment_lengths(shape):
    ps = shape.pieces
    return [math.dist(p.point(p.hi), q.point(q.lo)) for p, q in zip(ps, ps[1:] + ps[:1])]


def sampled_error_bounds(shape, n):
    """Bounds on the sampled area and perimeter errors of an n-sample body.

    With step d, R >= |every boundary point| >= |h| and |h'|, and T >= the
    total variation of h' (h'' = curvature radius measure - h, so T <= p +
    2 pi R): the trapezoid rule errs by at most d^2/8 times the total
    variation of the derivative of what it sums, which bounds the perimeter
    and the h^2 half of the area.  A centred difference is the mean of h'
    over two steps, so the h'^2 half falls short by the summed variance of h'
    over those windows, at most d/4 * T * (variation within one window),
    which a segment of length l raises by l."""
    d = 2 * math.pi / n
    R = max(math.hypot(p.x, p.y) + p.r for p in shape.pieces)
    T = shape.perimeter + 2 * math.pi * R
    window = sum(segment_lengths(shape)) + 2 * d * (max(p.r for p in shape.pieces) + R)
    perimeter = d * d / 8 * T
    area = d * d / 8 * (2 * math.pi * R * R + R * T) + d / 4 * T * window
    return area, perimeter, R * d


@settings(max_examples=30)
@given(shape=st.one_of(lenses, sectors, interpolants), dx=offsets, dy=offsets)
def test_exact_metrics_match_a_dense_support_body(shape, dx, dy):
    shape = translated(shape, dx, dy)
    body = SupportBody.from_function(shape.support, SAMPLES)
    m = support_body_metrics(body)
    area_err, perimeter_err, width_err = sampled_error_bounds(shape, SAMPLES)
    assert abs(m["area"] - shape.area) <= area_err
    assert abs(m["perimeter"] - shape.perimeter) <= perimeter_err
    # sampled widths are exact values of the width function, which moves by
    # at most 2R per radian, so its extremes lie within R d of a sample
    w = body.widths()
    w_min, w_max = shape.widths()
    slack = 1e-12 * w_max
    assert w_min - slack <= min(w) <= w_min + width_err
    assert w_max - width_err <= max(w) <= w_max + slack


@pytest.mark.parametrize("alpha", [0.1, 0.7, 1.2, math.pi / 2])
def test_lens_matches_its_closed_form(alpha):
    lens = Lens(2.0, alpha)
    shape = ArcPolygon.lens(lens.diameter, lens.alpha)
    m = lens_metrics(lens)
    assert shape.area == pytest.approx(m["area"], rel=1e-14)
    assert shape.perimeter == pytest.approx(m["perimeter"], rel=1e-14)
    assert shape.widths()[1] == pytest.approx(m["diameter"], rel=1e-14)


@pytest.mark.parametrize("phi", [0.2, math.pi / 3, 2.0, math.pi])
def test_sector_matches_its_closed_form(phi):
    shape = ArcPolygon.sector(1.5, phi)
    m = sector_metrics(1.5, phi)
    assert shape.area == pytest.approx(m["area"], rel=1e-14)
    assert shape.perimeter == pytest.approx(m["perimeter"], rel=1e-14)
    assert shape.widths()[1] == pytest.approx(m["diameter"], rel=1e-14)


def test_polygons_agree_with_the_polygon_kernel():
    # (their widths are checked against brute force in test_polygon)
    rng = random.Random(11)
    for _ in range(200):
        poly = random_convex_polygon(rng, 20)
        shape = ArcPolygon.polygon(poly.vertices)
        assert all(p.r == 0.0 for p in shape.pieces)
        assert shape.area == pytest.approx(poly.area, rel=1e-12)
        assert shape.perimeter == pytest.approx(poly.perimeter, rel=1e-12)


def random_shape(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return ArcPolygon.lens(rng.uniform(0.1, 5), rng.uniform(0.05, math.pi / 2))
    if kind == 1:
        return ArcPolygon.sector(rng.uniform(0.1, 5), rng.uniform(0.05, math.pi))
    if kind == 2:
        return interpolate_constant_width(rng.random(), rng.uniform(0.1, 5))
    return ArcPolygon.polygon(random_convex_polygon(rng).vertices)


def test_support_and_perimeter_are_additive_under_minkowski_sums():
    rng = random.Random(5)
    for _ in range(200):
        k, l, s = random_shape(rng), random_shape(rng), rng.random()
        mix = k.combine(l, s)
        scale = k.perimeter + l.perimeter
        assert mix.perimeter == pytest.approx((1 - s) * k.perimeter + s * l.perimeter, abs=1e-12 * scale)
        for _ in range(10):
            t = rng.uniform(-10, 10)
            want = (1 - s) * k.support(t) + s * l.support(t)
            assert abs(mix.support(t) - want) <= 1e-12 * scale


def test_reuleaux_to_disc_is_six_arcs_of_constant_width():
    body = interpolate_constant_width(0.4, 2.0)
    assert len(body.pieces) == 6 and all(p.r > 0 for p in body.pieces)
    w_min, w_max = body.widths()
    assert w_max - w_min <= 1e-14
    assert body.perimeter == pytest.approx(2 * math.pi, rel=1e-15)
    disc = ArcPolygon.disc(2.0)
    assert disc.widths() == (2.0, 2.0)
    assert len(disc.outline()[1]) == 2  # a full circle is two arcs


@pytest.mark.parametrize("width", [0.5, 1.0, 3.0])
def test_interpolant_area_is_the_exact_quadratic(width):
    a_r = REULEAUX_AREA_COEFF * width * width
    a_d = 0.25 * math.pi * width * width
    for k in range(101):
        t = k / 100
        want = a_d - (1 - t) ** 2 * (a_d - a_r)
        assert abs(interpolate_constant_width(t, width).area - want) <= 1e-14 * a_d
        t_back, body = interpolant_with_area(want, width)
        assert abs(t_back - t) <= 1e-7
        assert abs(body.area - want) <= 1e-14 * a_d


@pytest.mark.parametrize(
    "pieces, message",
    [
        ([(0.0, math.pi, 0.0, 0.0, 1.0)], "cover the normal circle"),
        ([(0.0, 2 * math.pi, 0.0, 0.0, -1.0)], "radii >= 0"),
        ([(0.0, 2 * math.pi, math.nan, 0.0, 1.0)], "finite"),
        # a unit square with two corners swapped crosses itself
        ([(k * math.pi / 2, (k + 1) * math.pi / 2, x, y, 0.0)
          for k, (x, y) in enumerate([(1, 1), (1, -1), (-1, -1), (-1, 1)])], "convex"),
    ],
)
def test_malformed_pieces_are_rejected(pieces, message):
    with pytest.raises(ValueError, match=message):
        ArcPolygon(pieces)


PATH_STEP = re.compile(r"([MALZ])([^MALZ]*)")


def arc_bulges_outward(start, end, radius, large, sweep, inside):
    """The centre that SVG gives a minor arc (SVG 1.1, appendix F.6.5)
    lies on the same side of its chord as the shape: the arc bulges out."""
    hx, hy = (start[0] - end[0]) / 2, (start[1] - end[1]) / 2
    k = math.sqrt(max(0.0, (radius * radius - hx * hx - hy * hy) / (hx * hx + hy * hy)))
    k = -k if large == sweep else k
    centre = (k * hy + (start[0] + end[0]) / 2, -k * hx + (start[1] + end[1]) / 2)

    def side(p):
        return (end[0] - start[0]) * (p[1] - start[1]) - (end[1] - start[1]) * (p[0] - start[0])

    return side(centre) * side(inside) >= -1e-6 * radius ** 3


# ids written beside their cases, as in test_cli.py
@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["maxdiam", "--area", "0.5", "--perimeter", "4"], id="argv0"),
        pytest.param(["maxdiam", "--area", "0.999", "--perimeter", "3.545"], id="argv1"),
        pytest.param(["mindiam", "--area", "0.30"], id="argv2"),
        pytest.param(["mindiam", "--area", "0.61"], id="argv3"),
        pytest.param(["mindiam", "--area", "0.75"], id="argv4"),
        pytest.param(["interp", "--t", "0.0"], id="argv5"),
        pytest.param(["interp", "--t", "0.37"], id="argv6"),
        pytest.param(["interp", "--t", "1.0"], id="argv7"),
    ],
)
def test_every_outline_parses_and_bulges_outward(tmp_path, argv):
    assert main(["shapes"] + argv + ["--svg", "--out", str(tmp_path)]) == 0
    root = ET.parse(tmp_path / "outline.svg").getroot()
    paths = root.findall("{http://www.w3.org/2000/svg}path")
    assert paths
    for path in paths:
        steps = PATH_STEP.findall(path.get("d"))
        assert steps[0][0] == "M" and steps[-1][0] == "Z"
        points = [tuple(map(float, re.findall(r"[-\d.e]+", args)[-2:])) for cmd, args in steps[:-1]]
        inside = (sum(p[0] for p in points) / len(points), sum(p[1] for p in points) / len(points))
        for (cmd, args), start, end in zip(steps[1:], points, points[1:]):
            if cmd == "A":
                r, r2, rotation, large, sweep = map(float, args.replace(",", " ").split()[:5])
                assert r == r2 and (rotation, large) == (0, 0)
                assert arc_bulges_outward(start, end, r, large, sweep, inside)
