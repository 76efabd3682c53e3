import hashlib
import itertools
import math
import random

import pytest

from convexkit.kernel.arcs import ArcPolygon
from convexkit.kernel.polygon import (
    ConvexPolygon,
    rectangle,
    regular_ngon,
)
from reference import convex_hull, random_convex_polygon


def widths(poly: ConvexPolygon):
    """(minimum width, diameter) from the exact arc kernel."""
    return ArcPolygon.polygon(poly.vertices).widths()


def brute_diameter(poly: ConvexPolygon) -> float:
    return max(
        math.dist(p, q) for p, q in itertools.combinations(poly.vertices, 2)
    )


def brute_min_width(poly: ConvexPolygon) -> float:
    # width against every edge direction; the minimum is attained at an edge
    verts = poly.vertices
    n = len(verts)
    best = float("inf")
    for i in range(n):
        ax, ay = verts[i]
        bx, by = verts[(i + 1) % n]
        ex, ey = bx - ax, by - ay
        norm = math.hypot(ex, ey)
        nx, ny = -ey / norm, ex / norm
        ds = [vx * nx + vy * ny for vx, vy in verts]
        best = min(best, max(ds) - min(ds))
    return best


def test_rectangle_metrics_exact():
    r = rectangle(3, 5)
    assert r.area == pytest.approx(15, abs=0)
    assert r.perimeter == pytest.approx(16, abs=0)
    assert widths(r)[1] == pytest.approx(math.hypot(3, 5), abs=1e-12)
    assert widths(r)[0] == pytest.approx(3, abs=1e-12)


def test_regular_ngon_approaches_disc():
    g = regular_ngon(4096)
    assert g.area == pytest.approx(math.pi, rel=2e-6)
    assert g.perimeter == pytest.approx(2 * math.pi, rel=2e-6)
    assert widths(g)[1] == pytest.approx(2.0, rel=1e-6)


def test_vertex_order_is_canonical():
    a = ConvexPolygon([(0, 0), (2, 0), (2, 1), (0, 1)])
    b = ConvexPolygon([(2, 1), (0, 1), (0, 0), (2, 0)])
    assert a.vertices == b.vertices
    assert a.vertices[0] == min(a.vertices)


def test_near_duplicate_points_collapse():
    p = ConvexPolygon([(0, 0), (1, 0), (1 + 1e-15, 1e-15), (1, 1), (0, 1)])
    assert len(p) == 4


def test_nonconvex_input_rejected():
    with pytest.raises(ValueError):
        ConvexPolygon([(0, 0), (2, 0), (1, 0.2), (2, 2), (0, 2)])
    with pytest.raises(ValueError):
        ConvexPolygon([(0, 0), (1, 0)])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_coordinates_rejected(bad):
    with pytest.raises(ValueError, match="non-finite coordinate"):
        ConvexPolygon([(0, 0), (1, 0), (1, 1), (0, 1), (0.5, bad)])


@pytest.mark.parametrize("side", [1e160, 1e200, 1e300])
def test_overflowing_area_rejected(side):
    with pytest.raises(ValueError, match="an area of inf"):
        rectangle(side, side)


def test_area_lost_to_rounding_rejected():
    # the shoelace terms of a tiny polygon underflow to an area of exactly 0
    with pytest.raises(ValueError, match="an area of 0.0"):
        rectangle(1e-200, 1e-200)
    # far from the origin they are measured from the first vertex, and keep it
    far = ConvexPolygon([(1e10, 1e10), (1e10 + 4, 1e10), (1e10 + 4, 1e10 + 1), (1e10, 1e10 + 1)])
    assert far.area == 4.0


def test_collinear_vertices_rejected_or_dropped():
    # midpoint on an edge is not a corner, at any scale
    for s in (1e-6, 1.0, 1e6):
        p = ConvexPolygon([(0, 0), (s, 0), (2 * s, 0), (2 * s, 2 * s), (0, 2 * s)])
        assert len(p) == 4
        assert (s, 0.0) not in p.vertices


def test_fine_regular_polygon_keeps_every_vertex():
    # each vertex turns by a sine near 6.3e-5, far above the 1e-12 cut,
    # though its cross product (about 2.5e-13) is below 1e-12 * scale^2
    assert len(regular_ngon(100_000)) == 100_000


def test_regular_polygons_build_as_from_their_own_vertices():
    """`regular_ngon` builds its ring as it stands, with no cleanup: the
    constructor, given its vertices, keeps them, and the area and
    perimeter agree bit for bit."""
    rng = random.Random("test_regular_polygons_build_as_from_their_own_vertices")
    for n in [*range(3, 65), *rng.sample(range(1000, 5001), 40), 99_999, 100_000]:
        c = regular_ngon(n)
        again = ConvexPolygon(c.vertices)
        assert repr((c.vertices, c.area, c.perimeter)) == repr(
            (again.vertices, again.area, again.perimeter)), n


# sha256 of the reprs of (vertices, area, perimeter) of the polygons below,
# as built when the cleanup measured both edges of every turn afresh
_BUILT_DIGEST = "76498a1ceed3316f55aab27889cb9a232f23eb050f8d922b51147a1a2b9059af"


def test_polygons_build_bit_identically():
    polys = [regular_ngon(4096), regular_ngon(3), regular_ngon(1000)]
    rng = random.Random(27)
    for _ in range(300):
        hull = list(random_convex_polygon(rng, max_vertices=40).vertices)
        polys.append(ConvexPolygon(hull))
        # midpoints are straight middles and repeats are duplicates, for
        # the cleanup to drop; reversed, the ring runs clockwise
        ring = []
        for p, q in zip(hull, hull[1:] + hull[:1]):
            ring += [p, p, ((p[0] + q[0]) / 2, (p[1] + q[1]) / 2)]
        polys.append(ConvexPolygon(ring[::-1] if rng.random() < 0.5 else ring))
    text = "".join(repr((p.vertices, p.area, p.perimeter)) for p in polys)
    assert hashlib.sha256(text.encode()).hexdigest() == _BUILT_DIGEST


def test_calipers_match_brute_force():
    rng = random.Random(42)
    for _ in range(120):
        poly = random_convex_polygon(rng)
        min_width, diameter = widths(poly)
        assert diameter == pytest.approx(brute_diameter(poly), rel=1e-12)
        assert min_width == pytest.approx(brute_min_width(poly), rel=1e-9)


def test_diameter_at_least_min_width():
    rng = random.Random(3)
    for _ in range(60):
        poly = random_convex_polygon(rng)
        min_width, diameter = widths(poly)
        assert diameter >= min_width - 1e-12


def test_polygon_area_and_perimeter():
    r = rectangle(1, 4)
    assert r.area == pytest.approx(4)
    assert r.perimeter == pytest.approx(10)


def test_convex_hull_of_noisy_cloud():
    rng = random.Random(9)
    pts = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(200)]
    pts += [(-2, -2), (2, -2), (2, 2), (-2, 2)]
    hull = convex_hull(pts)
    assert sorted(hull) == [(-2.0, -2.0), (-2.0, 2.0), (2.0, -2.0), (2.0, 2.0)]
