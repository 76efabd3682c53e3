"""Polyhedra with matching face sets.

A convex polyhedron broken at its edges leaves a multiset of polygonal
faces.  Distinct convex solids can share that multiset: a cube with
pyramids on opposite vs adjacent faces, the rhombicuboctahedron vs its
pseudo twin, an icosagonal dipyramid vs a capped decagonal antiprism.
This module builds those solids as explicit meshes, extracts canonical
face signatures, and compares volume, surface area, and congruence.

Faces are authored by the builders; there is no hull or face-detection
step.  Meshes validate planarity, edge pairing, and the Euler relation
on construction.  Each face is measured once, from the solid's first
vertex, so volume, area and convexity do not depend on where it sits.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from itertools import combinations
from typing import Dict, Iterable, List, Sequence, Tuple

from . import Frozen, UnsupportedInstance

Point3 = Tuple[float, float, float]

# the bound on each dimensionless ratio a mesh is judged by (see Mesh, is_convex)
MESH_TOL = 1e-9
# edge lengths quantize to 1e-6 of the mesh mean edge, angles to 1e-6 rad;
# float builders carry ~1e-12 noise, genuinely different faces sit orders
# of magnitude apart
SIGNATURE_QUANTUM = 1e-6
# the default sizes: cube side a, pyramid height h, and the triangle base
# edge s and lateral edge l of the 40-triangle solids
SOLID_DIMS = {"a": 1.0, "h": 0.3, "s": 1.0, "l": 3.5}


class NoSuchSolid(ValueError):
    """The requested solid provably does not exist at these parameters: a
    negative answer about the solid, not a malformed request."""


def _sub(a: Point3, b: Point3) -> Point3:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _dot(a: Point3, b: Point3) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a: Point3, b: Point3) -> Point3:
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _centroid(pts: Sequence[Point3]) -> Point3:
    return tuple(sum(c) / len(pts) for c in zip(*pts))


def _diagonal(pts: Sequence[Point3]) -> float:
    """Length of the bounding box diagonal."""
    return math.dist([max(c) for c in zip(*pts)], [min(c) for c in zip(*pts)])


def _from_first(verts: Sequence[Point3]) -> List[Point3]:
    """The vertices as offsets from the first one: the frame a mesh is
    measured in, so no measure depends on where the solid sits."""
    x0, y0, z0 = verts[0]
    return [(x - x0, y - y0, z - z0) for x, y, z in verts]


def _newell_normal(pts: List[Point3]) -> Point3:
    nx = ny = nz = 0.0
    for (x0, y0, z0), (x1, y1, z1) in zip(pts, pts[1:] + pts[:1]):
        nx += (y0 - y1) * (z0 + z1)
        ny += (z0 - z1) * (x0 + x1)
        nz += (x0 - x1) * (y0 + y1)
    return (nx, ny, nz)


class Mesh(Frozen):
    """Closed oriented polyhedral surface.  Faces are outward vertex-index
    cycles; validation enforces finite coordinates, planar faces, each
    undirected edge shared by exactly two faces in opposite directions, and
    V - E + F = 2.  `planes` keeps each face's (unit normal, plane offset,
    area), in face order, measured once from the coordinates relative to
    vertices[0], so no measure loses digits to the solid's distance from
    the origin.  A face is degenerate when its Newell norm over the square
    of its own bounding-box diagonal is at most MESH_TOL, non-planar when a
    vertex lies off its plane by more than MESH_TOL * size (size: the
    solid's bounding-box diagonal).  A face normal that overflows or a
    nonzero size³ that underflows the floats is an UnsupportedInstance."""

    __slots__ = ("vertices", "faces", "planes")

    def __init__(self, vertices: Sequence[Sequence[float]], faces: Tuple[Tuple[int, ...], ...]):
        super().__init__(vertices, faces, ())

    def __post_init__(self):
        verts = tuple(tuple(map(float, v)) for v in self.vertices)
        if len(verts) < 4 or any(len(v) != 3 for v in verts):
            raise ValueError("mesh needs at least four 3D vertices")
        if not all(math.isfinite(c) for v in verts for c in v):
            raise ValueError("mesh has a non-finite vertex coordinate")
        object.__setattr__(self, "vertices", verts)
        if len(self.faces) < 4:
            raise ValueError("mesh needs at least four faces")
        size = _diagonal(verts)
        if 0 < size and size * size * size < sys.float_info.min:
            raise UnsupportedInstance("the volume underflows the float range: the solid is too small")

        rel = _from_first(verts)
        directed: Dict[Tuple[int, int], int] = {}
        planes = []
        for face in self.faces:
            if len(face) < 3:
                raise ValueError("face with fewer than three vertices")
            if len(set(face)) != len(face):
                raise ValueError("face repeats a vertex")
            if any(not (0 <= i < len(verts)) for i in face):
                raise ValueError("face references a missing vertex")
            pts = [rel[i] for i in face]
            n = _newell_normal(pts)
            norm = math.hypot(*n)
            if not math.isfinite(norm):
                raise UnsupportedInstance("a face normal overflows the float range: the solid is too big")
            face_size = _diagonal(pts)
            if not norm or norm / face_size / face_size <= MESH_TOL:
                raise ValueError("degenerate face (zero normal)")
            centroid = _centroid(pts)
            unit = (n[0] / norm, n[1] / norm, n[2] / norm)
            dev = max(abs(_dot(_sub(p, centroid), unit)) for p in pts) / size
            if dev > MESH_TOL:
                raise ValueError(f"non-planar face: deviation {dev:.3g} of the size exceeds {MESH_TOL:g}")
            planes.append((unit, _dot(unit, centroid), 0.5 * norm))
            for a, b in zip(face, face[1:] + face[:1]):
                if (a, b) in directed:
                    raise ValueError(f"directed edge {(a, b)} used twice")
                directed[(a, b)] = 1
        for a, b in directed:
            if (b, a) not in directed:
                raise ValueError(
                    f"edge {(a, b)} lacks an oppositely oriented partner; "
                    "surface not closed or orientation inconsistent"
                )
        object.__setattr__(self, "planes", tuple(planes))
        n_edges = len(directed) // 2
        euler = len(verts) - n_edges + len(self.faces)
        if euler != 2:
            raise ValueError(f"Euler relation violated: V-E+F = {euler}")

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return sum(len(f) for f in self.faces) // 2

    @property
    def num_faces(self) -> int:
        return len(self.faces)

    def mean_edge_length(self) -> float:
        verts = self.vertices
        total = sum(
            math.dist(verts[a], verts[b])
            for face in self.faces for a, b in zip(face, face[1:] + face[:1])
        )
        return total / sum(len(f) for f in self.faces)  # every edge counted twice in both terms


def volume(m: Mesh) -> float:
    """The divergence theorem on the face planes: the sum of each face's
    area times its offset from the first vertex, over 3.  Positive for an
    outward orientation, otherwise the mesh is rejected; past the float
    range, an UnsupportedInstance."""
    total = sum(area * offset for _, offset, area in m.planes) / 3.0
    if not math.isfinite(total):
        raise UnsupportedInstance("the volume overflows the float range: the solid is too big")
    if total <= 0.0:
        raise ValueError("nonpositive volume: faces are not outward-oriented")
    return total


def surface_area(m: Mesh) -> float:
    """The sum of the face areas that validation measured."""
    return sum(area for _, _, area in m.planes)


def is_convex(m: Mesh) -> bool:
    """True iff no vertex lies above a face plane by more than MESH_TOL of
    the bounding-box diagonal, vertices and planes both measured from the
    first vertex."""
    size = _diagonal(m.vertices)
    rel = _from_first(m.vertices)
    for (ux, uy, uz), offset, _ in m.planes:
        if (max(ux * x + uy * y + uz * z for x, y, z in rel) - offset) / size > MESH_TOL:
            return False
    return True


FaceSignature = Tuple[Tuple[int, int], ...]


def face_signature(m: Mesh, face: Sequence[int], edge_quantum: float) -> FaceSignature:
    """Canonical cyclic (edge, angle) sequence of one face, quantized and
    minimized over rotations and both traversal directions, so congruent
    faces (allowing reflection) hash identically."""
    pts = [m.vertices[i] for i in face]
    k = len(pts)
    edges = [math.dist(pts[(i + 1) % k], pts[i]) for i in range(k)]
    angles = []
    for i in range(k):
        a = _sub(pts[i - 1], pts[i])
        b = _sub(pts[(i + 1) % k], pts[i])
        angles.append(math.atan2(math.hypot(*_cross(a, b)), _dot(a, b)))
    qe = [round(e / edge_quantum) for e in edges]
    qa = [round(a / SIGNATURE_QUANTUM) for a in angles]
    forward = [(qe[i], qa[i]) for i in range(k)]
    backward = [(qe[(k - 1 - j) % k], qa[(k - j) % k]) for j in range(k)]
    best = None
    for seq in (forward, backward):
        for r in range(k):
            cand = tuple(seq[r:] + seq[:r])
            if best is None or cand < best:
                best = cand
    return best


def face_multiset(m: Mesh) -> Counter:
    quantum = SIGNATURE_QUANTUM * m.mean_edge_length()
    return Counter(face_signature(m, face, quantum) for face in m.faces)


def distance_multiset(m: Mesh) -> Tuple[int, ...]:
    """Sorted quantized pairwise vertex distances.  Equal multisets are
    necessary for congruence, so a difference certifies non-congruence;
    a match is only 'possibly congruent'."""
    quantum = SIGNATURE_QUANTUM * m.mean_edge_length()
    return tuple(sorted(round(math.dist(p, q) / quantum) for p, q in combinations(m.vertices, 2)))


def _oriented(verts: List[Point3], faces: Iterable[Sequence[int]]) -> Mesh:
    """Flip each face cycle whose first corner turns clockwise seen from the
    vertex centroid, so its normal points away from it.  Valid for the
    convex faces of the star-shaped solids built here."""
    center = _centroid(verts)
    fixed = []
    for face in faces:
        p0, p1, p2 = (_sub(verts[i], center) for i in face[:3])
        if _dot(p0, _cross(p1, p2)) < 0:
            face = list(reversed(face))
        fixed.append(tuple(face))
    return Mesh(tuple(map(tuple, verts)), tuple(fixed))


def build_cube_with_pyramids(
    a: float = SOLID_DIMS["a"],
    h: float = SOLID_DIMS["h"],
    mode: str = "opposite",
) -> Mesh:
    """Cube of side a with square pyramids of height h erected on two
    faces: opposite (top and bottom) or adjacent (top and one side).  Both
    modes leave the same face multiset, 4 squares and 8 isosceles
    triangles.  h >= a/2 loses convexity in the adjacent mode, which then
    raises NoSuchSolid; the opposite mode is convex at every height."""
    if mode not in ("opposite", "adjacent"):
        raise ValueError("mode must be 'opposite' or 'adjacent'")
    if not (0 < a < math.inf and 0 < h < math.inf):
        raise ValueError("side and height must be positive and finite")
    if mode == "adjacent" and h >= a / 2:
        raise NoSuchSolid("pyramid height must satisfy h < a/2 to keep convexity")
    verts: List[Point3] = [
        (0, 0, 0), (a, 0, 0), (a, a, 0), (0, a, 0),
        (0, 0, a), (a, 0, a), (a, a, a), (0, a, a),
    ]
    cube_faces = {
        "bottom": [0, 3, 2, 1],
        "top": [4, 5, 6, 7],
        "front": [0, 1, 5, 4],
        "right": [1, 2, 6, 5],
        "back": [2, 3, 7, 6],
        "left": [3, 0, 4, 7],
    }
    apexes = {
        "top": (a / 2, a / 2, a + h),
        "bottom": (a / 2, a / 2, -h),
        "right": (a + h, a / 2, a / 2),
    }
    capped = ("top", "bottom") if mode == "opposite" else ("top", "right")
    faces: List[List[int]] = [f for name, f in cube_faces.items() if name not in capped]
    for name in capped:
        apex = len(verts)
        verts.append(apexes[name])
        base = cube_faces[name]
        for i in range(4):
            faces.append([base[i], base[(i + 1) % 4], apex])
    return _oriented(verts, faces)


_SQRT2 = math.sqrt(2.0)
_RCO_T = 1.0 + _SQRT2

# octagon ring (x, y) positions, counterclockwise, shared by both z = +-1
_RING = [
    (_RCO_T, 1), (1, _RCO_T), (-1, _RCO_T), (-_RCO_T, 1),
    (-_RCO_T, -1), (-1, -_RCO_T), (1, -_RCO_T), (_RCO_T, -1),
]


def _square_cupola_solid(rotate_top: bool) -> Mesh:
    """Two square cupolas on an octagonal prism.  Aligned top cap gives the
    rhombicuboctahedron, a 45-degree twist gives the pseudo variant; the
    bottom cap is always aligned."""
    verts: List[Point3] = []
    bottom_sq = [(1, 1), (-1, 1), (-1, -1), (1, -1)]
    top_sq = (
        [(_SQRT2, 0), (0, _SQRT2), (-_SQRT2, 0), (0, -_SQRT2)]
        if rotate_top
        else bottom_sq
    )
    b_sq = [len(verts) + i for i in range(4)]
    verts += [(x, y, -_RCO_T) for x, y in bottom_sq]
    b_ring = [len(verts) + i for i in range(8)]
    verts += [(x, y, -1.0) for x, y in _RING]
    t_ring = [len(verts) + i for i in range(8)]
    verts += [(x, y, 1.0) for x, y in _RING]
    t_sq = [len(verts) + i for i in range(4)]
    verts += [(x, y, _RCO_T) for x, y in top_sq]

    faces: List[List[int]] = [b_sq, t_sq]
    for k in range(8):
        faces.append([b_ring[k], b_ring[(k + 1) % 8], t_ring[(k + 1) % 8], t_ring[k]])

    def cap(ring: List[int], square: List[int], squares_on_diagonals: bool) -> None:
        # ring edge 2k -> 2k+1 is diagonal (between axes), 2k+1 -> 2k+2 axial
        for k in range(4):
            dia = [ring[2 * k], ring[(2 * k + 1) % 8]]
            axi = [ring[(2 * k + 1) % 8], ring[(2 * k + 2) % 8]]
            if squares_on_diagonals:
                faces.append(dia + [square[(k + 1) % 4], square[k]])
                faces.append(axi + [square[(k + 1) % 4]])
            else:
                faces.append(axi + [square[(k + 1) % 4], square[k]])
                faces.append(dia + [square[k]])

    cap(t_ring, t_sq, squares_on_diagonals=rotate_top)
    cap(b_ring, b_sq, squares_on_diagonals=False)
    return _oriented(verts, faces)


def build_rhombicuboctahedron() -> Mesh:
    """Archimedean solid, vertices at the permutations of (+-1, +-1, +-(1+sqrt 2)),
    18 squares and 8 triangles of edge 2."""
    return _square_cupola_solid(rotate_top=False)


def build_pseudorhombicuboctahedron() -> Mesh:
    """Same face multiset as the rhombicuboctahedron; the top square cupola
    sits twisted 45 degrees."""
    return _square_cupola_solid(rotate_top=True)


def _height_for_edge(edge: float, radial: float, what: str) -> float:
    """Height z with z^2 + radial^2 = edge^2, in the closed form
    sqrt((edge - radial)(edge + radial)); edge <= radial has no height."""
    if edge <= radial:
        raise NoSuchSolid(
            f"lateral edge {edge:g} too short: {what} needs edge > {radial:.9g}"
        )
    return math.sqrt((edge - radial) * (edge + radial))


def _circumradius(s: float, l: float, n: int) -> float:
    """Circumradius of the regular n-gon of side s, once the side s and the
    lateral edge l are checked."""
    if not (0 < s < math.inf and 0 < l < math.inf):
        raise ValueError("side and lateral edge must be positive and finite")
    return s / (2.0 * math.sin(math.pi / n))


def _capped_rings(n: int, r: float, rings: List[Tuple[float, float]], zc: float) -> Mesh:
    """Regular n-gons of circumradius r, one per (height, twist) in rings,
    capped by apexes zc above the top one and zc below the bottom one; two
    rings are joined by an antiprism band of triangles."""
    verts = [
        (r * math.cos(2 * math.pi * k / n + twist), r * math.sin(2 * math.pi * k / n + twist), z)
        for z, twist in rings for k in range(n)
    ]
    b, t = range(n), range(len(verts) - n, len(verts))
    top, bot = len(verts), len(verts) + 1
    verts += [(0.0, 0.0, rings[-1][0] + zc), (0.0, 0.0, rings[0][0] - zc)]
    faces = []
    for k in range(n):
        k1 = (k + 1) % n
        if len(rings) == 2:
            faces += [[b[k], b[k1], t[k]], [b[k1], t[k1], t[k]]]
        faces += [[t[k], t[k1], top], [b[k1], b[k], bot]]
    return _oriented(verts, faces)


def build_icosagonal_dipyramid(s: float = SOLID_DIMS["s"], l: float = SOLID_DIMS["l"]) -> Mesh:
    """Dipyramid over a regular 20-gon of side s with lateral edge l:
    40 isosceles (s, l, l) triangles."""
    r = _circumradius(s, l, 20)
    return _capped_rings(20, r, [(0.0, 0.0)], _height_for_edge(l, r, "dipyramid apex height"))


def build_decagonal_dipyramidal_antiprism(s: float = SOLID_DIMS["s"], l: float = SOLID_DIMS["l"]) -> Mesh:
    """Decagonal antiprism (side s, twist pi/10, lateral edge l) capped by
    two decagonal pyramids with the same lateral edge: 40 isosceles
    (s, l, l) triangles, same multiset as the icosagonal dipyramid."""
    n = 10
    r = _circumradius(s, l, n)
    # antiprism lateral edge spans half a step of twist
    g = _height_for_edge(l, 2.0 * r * math.sin(math.pi / (2 * n)), "antiprism ring gap")
    zc = _height_for_edge(l, r, "cap apex height")
    return _capped_rings(n, r, [(-g / 2, 0.0), (g / 2, math.pi / n)], zc)


def mesh_summary(m: Mesh) -> dict:
    """Counts, convexity, volume, surface area, and faces by side count of
    one mesh."""
    counts = Counter(len(f) for f in m.faces)
    return {
        "vertices": m.num_vertices,
        "edges": m.num_edges,
        "faces": m.num_faces,
        "convex": is_convex(m),
        "volume": volume(m),
        "surface_area": surface_area(m),
        "faces_by_side_count": dict(sorted(counts.items())),
    }


def compare_report(meshes: Sequence[Mesh], names: Sequence[str]) -> dict:
    """Side-by-side invariants for two or more named meshes: convexity,
    face multiset with equivalence classes, volume, surface area, and
    congruence classes by the vertex-distance probe."""
    if len(meshes) < 2:
        raise ValueError("compare_report needs at least two meshes")
    if len(names) != len(meshes):
        raise ValueError("one name per mesh")

    multisets = [face_multiset(m) for m in meshes]
    probes = [distance_multiset(m) for m in meshes]

    def classes(keys: Iterable) -> List[List[str]]:
        """The names grouped by equal keys, in first-seen order."""
        groups: dict = {}
        for name, key in zip(names, keys):
            groups.setdefault(key, []).append(name)
        return list(groups.values())

    entries = [
        {"name": name, **mesh_summary(m), "distinct_face_shapes": len(ms)}
        for name, m, ms in zip(names, meshes, multisets)
    ]
    return {
        "meshes": entries,
        # the counts are >= 1, so two Counters are equal when their item sets are
        "multiset_classes": classes(frozenset(ms.items()) for ms in multisets),
        "congruence_classes": classes(probes),
        "congruence_note": "classes by sorted vertex-distance multiset; "
        "a shared class means possibly congruent, not proven",
    }


def mesh_to_obj(m: Mesh) -> str:
    lines = [f"v {x!r} {y!r} {z!r}" for x, y, z in m.vertices]
    lines += ["f " + " ".join(str(i + 1) for i in face) for face in m.faces]
    return "\n".join(lines) + "\n"
