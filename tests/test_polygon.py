import itertools
import math
import random

import pytest

from convexkit.kernel.polygon import (
    ConvexPolygon,
    convex_hull,
    diameter,
    min_width,
    random_convex_polygon,
    rectangle,
    regular_ngon,
)


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
    assert diameter(r) == pytest.approx(math.hypot(3, 5), abs=1e-12)
    assert min_width(r) == pytest.approx(3, abs=1e-12)


def test_regular_ngon_approaches_disc():
    g = regular_ngon(4096)
    assert g.area == pytest.approx(math.pi, rel=2e-6)
    assert g.perimeter == pytest.approx(2 * math.pi, rel=2e-6)
    assert diameter(g) == pytest.approx(2.0, rel=1e-6)


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


def test_contains():
    r = rectangle(2, 2)
    assert r.contains((1, 1))
    assert r.contains((0, 0))
    assert not r.contains((3, 1))


def test_calipers_match_brute_force():
    rng = random.Random(42)
    for _ in range(120):
        poly = random_convex_polygon(rng)
        assert diameter(poly) == pytest.approx(brute_diameter(poly), rel=1e-12)
        assert min_width(poly) == pytest.approx(brute_min_width(poly), rel=1e-9)


def test_diameter_at_least_min_width():
    rng = random.Random(3)
    for _ in range(60):
        poly = random_convex_polygon(rng)
        assert diameter(poly) >= min_width(poly) - 1e-12


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
