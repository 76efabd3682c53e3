"""Mesh invariants and the equal-face-multiset solid pairs."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexkit import UnsupportedInstance
from convexkit.polyhedra import (
    Mesh,
    NoSuchSolid,
    build_cube_with_pyramids,
    build_decagonal_dipyramidal_antiprism,
    build_icosagonal_dipyramid,
    build_pseudorhombicuboctahedron,
    build_rhombicuboctahedron,
    compare_report,
    distance_multiset,
    face_multiset,
    is_convex,
    mesh_to_obj,
    surface_area,
    volume,
)
from reference import exact_volume

RCO_VOLUME = (12 + 10 * math.sqrt(2)) / 3 * 8  # edge length 2
RCO_SURFACE = (18 + 2 * math.sqrt(3)) * 4
# the six solids of `poly build`, at their default sizes
DEFAULT_SOLIDS = {
    "cube-pyr-opposite": lambda: build_cube_with_pyramids(mode="opposite"),
    "cube-pyr-adjacent": lambda: build_cube_with_pyramids(mode="adjacent"),
    "rco": build_rhombicuboctahedron,
    "pseudo-rco": build_pseudorhombicuboctahedron,
    "icosa-dipyramid": build_icosagonal_dipyramid,
    "deca-antiprism": build_decagonal_dipyramidal_antiprism,
}
IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def box_mesh(a=1.0, b=1.0, c=1.0):
    verts = [
        (0, 0, 0), (a, 0, 0), (a, b, 0), (0, b, 0),
        (0, 0, c), (a, 0, c), (a, b, c), (0, b, c),
    ]
    faces = [
        (0, 3, 2, 1), (4, 5, 6, 7),
        (0, 1, 5, 4), (1, 2, 6, 5), (2, 3, 7, 6), (3, 0, 4, 7),
    ]
    return Mesh(tuple(verts), tuple(faces))


def apply_rigid_motion(m, rotation, translation):
    """The mesh moved by p -> rotation p + translation, for any 3x3
    sequence of rows."""
    verts = tuple(
        tuple(row[0] * p[0] + row[1] * p[1] + row[2] * p[2] + shift
              for row, shift in zip(rotation, translation))
        for p in m.vertices
    )
    return Mesh(verts, m.faces)


def random_rotation(rng):
    m = np.array([[rng.gauss(0, 1) for _ in range(3)] for _ in range(3)])
    q, r = np.linalg.qr(m)
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def test_cube_volume_and_surface():
    cube = box_mesh()
    assert abs(volume(cube) - 1.0) <= 1e-12
    assert abs(surface_area(cube) - 6.0) <= 1e-12
    assert is_convex(cube)
    assert cube.num_vertices == 8
    assert cube.num_edges == 12
    assert cube.num_faces == 6


def test_mesh_validation():
    verts = tuple(box_mesh().vertices)
    faces = list(box_mesh().faces)
    with pytest.raises(ValueError, match="edge"):
        Mesh(verts, tuple(faces[:-1]))  # open surface
    with pytest.raises(ValueError, match="repeats"):
        Mesh(verts, tuple(faces[:-1] + [(3, 0, 0, 4, 7)]))
    with pytest.raises(ValueError, match="missing"):
        Mesh(verts, tuple(faces[:-1] + [(3, 0, 9, 7)]))
    bent = list(box_mesh().vertices)
    bent[6] = (1.0, 1.0, 1.1)
    with pytest.raises(ValueError, match="non-planar"):
        Mesh(tuple(bent), tuple(faces))
    # NaN fails every comparison, so no planarity or edge test catches it
    for bad in (math.nan, math.inf):
        bent[6] = (1.0, 1.0, bad)
        with pytest.raises(ValueError, match="non-finite"):
            Mesh(tuple(bent), tuple(faces))


def test_a_mesh_of_one_point_is_degenerate():
    # size 0 is a malformed mesh, not a solid too small for floats
    cube = box_mesh()
    with pytest.raises(ValueError, match="degenerate face") as caught:
        Mesh(((0.5, 0.5, 0.5),) * cube.num_vertices, cube.faces)
    assert not isinstance(caught.value, UnsupportedInstance)


def test_inverted_orientation_is_rejected():
    cube = box_mesh()
    inside_out = Mesh(cube.vertices, tuple(tuple(reversed(f)) for f in cube.faces))
    with pytest.raises(ValueError, match="orient"):
        volume(inside_out)


def test_invariants_under_rigid_motion_and_relabeling():
    rng = random.Random(4)
    mesh = build_cube_with_pyramids(mode="adjacent")
    base_vol = volume(mesh)
    base_surf = surface_area(mesh)
    base_faces = face_multiset(mesh)
    base_dist = distance_multiset(mesh)
    for _ in range(5):
        rot = random_rotation(rng)
        shift = [rng.uniform(-10, 10) for _ in range(3)]
        moved = apply_rigid_motion(mesh, rot, shift)
        assert abs(volume(moved) - base_vol) <= 1e-9 * base_vol
        assert abs(surface_area(moved) - base_surf) <= 1e-9 * base_surf
        assert face_multiset(moved) == base_faces
        assert distance_multiset(moved) == base_dist

    # relabeling the vertices leaves every invariant alone
    perm = list(range(mesh.num_vertices))
    rng.shuffle(perm)
    inv = [0] * len(perm)
    for new, old in enumerate(perm):
        inv[old] = new
    relabeled = Mesh(
        tuple(mesh.vertices[old] for old in perm),
        tuple(tuple(inv[v] for v in face) for face in mesh.faces),
    )
    assert abs(volume(relabeled) - base_vol) <= 1e-12
    assert face_multiset(relabeled) == base_faces
    assert distance_multiset(relabeled) == base_dist


@pytest.mark.parametrize("name", DEFAULT_SOLIDS)
def test_a_solid_measures_the_same_wherever_it_sits(name):
    # each face is measured from the solid's first vertex, so a solid moved
    # far from the origin keeps its volume to rounding and stays planar and
    # convex; only the rounding of its moved vertices moves its area
    base = DEFAULT_SOLIDS[name]()
    for shift, area_tol in ((0.0, 0.0), (1e6, 1e-9), (1e8, 1e-8)):
        moved = apply_rigid_motion(base, IDENTITY, (shift,) * 3)
        assert is_convex(moved)
        exact = exact_volume(moved)
        assert abs(Fraction(volume(moved)) - exact) <= Fraction(1e-14) * exact
        assert abs(surface_area(moved) - surface_area(base)) <= area_tol * surface_area(base)
        if shift <= 1e6:
            assert face_multiset(moved) == face_multiset(base)


def test_cube_pyramids_pair():
    opp = build_cube_with_pyramids()
    adj = build_cube_with_pyramids(mode="adjacent")
    assert face_multiset(opp) == face_multiset(adj)
    assert abs(volume(opp) - 1.2) <= 1e-9
    assert abs(volume(adj) - 1.2) <= 1e-9
    assert is_convex(opp) and is_convex(adj)
    # same faces, same volume, yet not congruent
    assert distance_multiset(opp) != distance_multiset(adj)


def test_cube_pyramids_convexity_guard():
    assert is_convex(build_cube_with_pyramids(h=0.49, mode="adjacent"))
    for h in (0.5, 0.6):
        with pytest.raises(NoSuchSolid, match="convexity"):
            build_cube_with_pyramids(h=h, mode="adjacent")
        # opposite pyramids never meet, so every height stays convex
        assert is_convex(build_cube_with_pyramids(h=h, mode="opposite"))
    # the same solid with both apexes raised to h = 0.6 is no longer convex
    low = build_cube_with_pyramids(h=0.49, mode="adjacent")
    tall = Mesh(low.vertices[:8] + ((0.5, 0.5, 1.6), (1.6, 0.5, 0.5)), low.faces)
    assert not is_convex(tall)
    assert abs(volume(tall) - 1.4) <= 1e-9
    with pytest.raises(ValueError, match="mode"):
        build_cube_with_pyramids(mode="sideways")


def test_rhombicuboctahedron_pair():
    rco = build_rhombicuboctahedron()
    pseudo = build_pseudorhombicuboctahedron()
    ms = face_multiset(rco)
    sides = {len(sig): n for sig, n in ms.items()}
    assert sides == {4: 18, 3: 8}
    assert ms == face_multiset(pseudo)
    assert abs(volume(rco) - RCO_VOLUME) <= 1e-9 * RCO_VOLUME
    assert abs(volume(pseudo) - RCO_VOLUME) <= 1e-9 * RCO_VOLUME
    assert abs(surface_area(rco) - RCO_SURFACE) <= 1e-9 * RCO_SURFACE
    assert is_convex(rco) and is_convex(pseudo)
    assert distance_multiset(rco) != distance_multiset(pseudo)


def test_forty_triangle_pair():
    dipyr = build_icosagonal_dipyramid()
    anti = build_decagonal_dipyramidal_antiprism()
    ms = face_multiset(dipyr)
    assert sum(ms.values()) == 40
    assert all(len(sig) == 3 for sig in ms)
    assert len(ms) == 1  # forty copies of one isosceles triangle
    assert ms == face_multiset(anti)
    v1, v2 = volume(dipyr), volume(anti)
    assert abs(v1 - 30.016231) <= 1e-5
    assert abs(v2 - 43.023180) <= 1e-5
    assert abs(v1 - v2) > 0.01 * max(v1, v2)


@pytest.mark.parametrize("s, l", [(1.0, 3.5), (0.37, 2.9), (2.5, 7.25), (1e-5, 3e-5), (1e30, 4e30)])
def test_capped_antiprism_volume_has_a_closed_form(s, l):
    """The antiprism is a prismatoid of height g between two decagons of
    circumradius r, with its mid-height section, a 20-gon, between them;
    each cap is a pyramid of height z_c on a decagon."""
    n = 10
    r = s / (2 * math.sin(math.pi / n))
    g = math.sqrt(l * l - (2 * r * math.sin(math.pi / (2 * n))) ** 2)
    z_c = math.sqrt(l * l - r * r)
    a_end = n / 2 * r * r * math.sin(2 * math.pi / n)
    a_mid = n * r * r * math.cos(math.pi / (2 * n)) ** 2 * math.sin(math.pi / n)
    want = g / 6 * (2 * a_end + 4 * a_mid) + 2 / 3 * a_end * z_c
    assert volume(build_decagonal_dipyramidal_antiprism(s, l)) == pytest.approx(want, rel=1e-12)


@settings(max_examples=40)
@given(
    s=st.floats(min_value=0.1, max_value=10.0),
    stretch=st.floats(min_value=1.01, max_value=10.0),
)
def test_forty_triangles_have_lateral_edge_l(s, stretch):
    # l above the 20-gon circumradius suits both builders
    l = stretch * s / (2.0 * math.sin(math.pi / 20))
    for mesh in (build_icosagonal_dipyramid(s, l), build_decagonal_dipyramidal_antiprism(s, l)):
        pts = mesh.vertices
        for face in mesh.faces:
            sides = sorted(math.dist(pts[face[i]], pts[face[i - 1]]) for i in range(3))
            assert sides == pytest.approx([s, l, l], rel=1e-9)


def test_dipyramid_lateral_edge_floor():
    with pytest.raises(NoSuchSolid, match="too short"):
        build_icosagonal_dipyramid(s=1.0, l=3.0)
    with pytest.raises(ValueError, match="positive"):
        build_decagonal_dipyramidal_antiprism(s=-1.0)


def test_solid_sizes_must_be_finite():
    """A NaN size passed `s <= 0` and built a solid of volume nan."""
    for bad in (math.nan, math.inf):
        for build, size in ((build_icosagonal_dipyramid, 1.0), (build_decagonal_dipyramidal_antiprism, 1.0),
                            (build_cube_with_pyramids, 0.3)):
            for dims in ((bad, size), (1.0, bad)):
                with pytest.raises(ValueError, match="positive and finite"):
                    build(*dims)


def scaled(mesh, k):
    """The mesh with every vertex coordinate multiplied by 2**k, exactly."""
    return Mesh(tuple(tuple(math.ldexp(c, k) for c in v) for v in mesh.vertices), mesh.faces)


# each pair of solids with one face multiset, built at 2**k times its sizes
SCALED_PAIRS = [
    lambda k: [build_cube_with_pyramids(math.ldexp(1.0, k), math.ldexp(0.3, k), mode)
               for mode in ("opposite", "adjacent")],
    lambda k: [scaled(build_rhombicuboctahedron(), k), scaled(build_pseudorhombicuboctahedron(), k)],
    lambda k: [build(math.ldexp(1.0, k), math.ldexp(3.5, k))
               for build in (build_icosagonal_dipyramid, build_decagonal_dipyramidal_antiprism)],
]


@pytest.mark.parametrize("k", [-300, -151, -64, -1, 0, 1, 64, 151, 300])
def test_scaling_a_solid_by_a_power_of_two_scales_only_its_measures(k):
    # every mesh decision is a ratio to the solid's size, and scaling by
    # 2**k is exact in floats, so volumes and areas scale exactly and the
    # decisions do not move
    for pair in SCALED_PAIRS:
        base, big = pair(0), pair(k)
        for m0, m in zip(base, big):
            assert volume(m) == math.ldexp(volume(m0), 3 * k)
            assert surface_area(m) == math.ldexp(surface_area(m0), 2 * k)
            assert is_convex(m) == is_convex(m0)
            assert face_multiset(m) == face_multiset(m0)
        report0, report = compare_report(base, ["a", "b"]), compare_report(big, ["a", "b"])
        for key in ("multiset_classes", "congruence_classes"):
            assert report[key] == report0[key]


def test_compare_report_structure():
    opp = build_cube_with_pyramids()
    adj = build_cube_with_pyramids(mode="adjacent")
    rep = compare_report([opp, adj], names=["opposite", "adjacent"])
    assert [e["name"] for e in rep["meshes"]] == ["opposite", "adjacent"]
    assert rep["multiset_classes"] == [["opposite", "adjacent"]]
    assert rep["congruence_classes"] == [["opposite"], ["adjacent"]]
    assert all(e["faces_by_side_count"] == {3: 8, 4: 4} for e in rep["meshes"])

    cube = box_mesh()
    slab = box_mesh(2.0, 1.0, 1.0)
    rep = compare_report([cube, slab], ["cube", "slab"])
    assert rep["multiset_classes"] == [["cube"], ["slab"]]

    with pytest.raises(ValueError):
        compare_report([cube], ["cube"])
    with pytest.raises(ValueError):
        compare_report([cube, slab], names=["only-one"])


def test_mesh_to_obj():
    # each coordinate is written as its repr, which reads back to the same
    # float at every size; obj face indices are 1-based
    meshes = [box_mesh(), build_cube_with_pyramids(1e-100, 1e-101)]
    for m in meshes + [build() for build in DEFAULT_SOLIDS.values()]:
        lines = [ln.split() for ln in mesh_to_obj(m).splitlines()]
        assert tuple(tuple(map(float, ln[1:])) for ln in lines if ln[0] == "v") == m.vertices
        assert tuple(tuple(int(i) - 1 for i in ln[1:]) for ln in lines if ln[0] == "f") == m.faces
