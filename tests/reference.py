"""Reference implementations and generators shared by the tests.

`solve_offset_for_area` is the oracle of `fairpart._ChordSweep`: it solves
one angle's offset by bisection over the vertex levels, with no state
carried between angles.  `convex_hull` is the monotone chain that the
tests, `random_polygon` and `random_convex_polygon` build their polygons
with; the last two draw seeded hulls for the fair-cut, extremal, polygon
and arc-kernel sweeps.  `count_diagonal_rectangulations` is the
floorplan counter that shares no code with `tiling.floorplans`.
`search_isoperimetric_full_walk` is the oracle of `search_isoperimetric`:
it walks the whole insertion tree and decides every floorplan, with no
mirror half.  `search_fill_unpruned` is the oracle of
`tiling.search._search_fill`: the same depth-first skyline search with no
side-sum rules, so it rejects a tile only when the tile does not fit.
`positive_forms` is the oracle of `kernel.linsolve.positive_point`: the
positivity interval of any affine forms, each tested on its own.
`exact_volume` is the oracle of `polyhedra.volume`: the fan-triangulated
volume of a mesh's float vertices in Fractions.
`enumerate_floorplans`, `baxter_count`, `layout_to_json` and `contains`
(exact membership in a `ParamSolution`) serve only the tests.
"""

import bisect
import json
import math
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from convexkit.fairpart import LineCut
from convexkit.kernel.linsolve import ParamSolution, PositivePoint, positive_point, solve_linear_exact
from convexkit.kernel.polygon import ConvexPolygon
from convexkit.kernel.roots import rising_quadratic_root
from convexkit.tiling.floorplans import Floorplan, iter_floorplans
from convexkit.tiling.isoperimetric import (
    _ROOT_LINE,
    ForcedPair,
    IsoSearchResult,
    IsoWitness,
    _canonical,
    _grow_lines,
    _segment_names,
    _witness,
    distinct_area_param,
    forced_equal_pair,
)
from convexkit.tiling.search import _raise_run
from convexkit.tiling.tiles import Layout, layout_to_dict


def _frame_edges(V: Sequence[Tuple[float, float]], n: Tuple[float, float]) -> list:
    """Each edge i -> i+1 of V as (u_i, u_i+1, s_i, s_i+1), in the frame
    s = p . t, u = p . n, with t the cut direction (n turned clockwise)."""
    u = [x * n[0] + y * n[1] for x, y in V]
    s = [x * n[1] - y * n[0] for x, y in V]
    return list(zip(u, u[1:] + u[:1], s, s[1:] + s[:1]))


def _clipped_area(edges: list, offset: float) -> float:
    """Area below the offset, from `_frame_edges`: each edge keeps the part
    of its level range [u_i, u_i+1] below the offset, and adds that
    trapezoid of the area integral of s du.  An edge parallel to the cut
    adds no area.  Each clip is min(u, offset) written as a comparison: the
    same float, without a call per edge and bisection step."""
    total = 0.0
    for ui, un, si, sn in edges:
        u0 = offset if offset < ui else ui
        u1 = offset if offset < un else un
        share = (u1 - u0) / (un - ui) if un != ui else float(ui <= offset)
        total += (u1 - u0) * si + (sn - si) * share * (0.5 * (u0 + u1) - ui)
    return total


def cut_area(V: Sequence[Tuple[float, float]], n: Tuple[float, float], offset: float) -> float:
    """Area of {p . n <= offset} within the CCW convex polygon V, in one
    pass over its edges."""
    return _clipped_area(_frame_edges(V, n), offset)


def solve_offset_for_area(c: ConvexPolygon, theta: float, fraction: float) -> LineCut:
    """The unique offset where piece a holds the given area fraction.
    Between consecutive vertex levels the clipped area is an exact quadratic
    in the offset, rising with it; a bisection over the sorted levels finds
    the pair that brackets the target, and the quadratic through the area at
    the pair's ends and midpoint is solved for it.  The frame coordinates
    are computed once per solve.  O(m log m)."""
    if not (0.0 < fraction < 1.0):
        raise ValueError("area fraction must be strictly between 0 and 1")
    theta = theta % math.pi
    edges = _frame_edges(c.vertices, (-math.sin(theta), math.cos(theta)))
    levels = sorted({e[0] for e in edges})
    want = fraction * c.area

    def area(o: float) -> float:
        return _clipped_area(edges, o)

    # area(levels[0]) = 0 < want, and the last level holds the whole area
    k = bisect.bisect_left(levels, want, lo=1, hi=len(levels) - 1, key=area)
    lo, hi = levels[k - 1], levels[k]
    x = rising_quadratic_root(area(lo), area(0.5 * (lo + hi)), area(hi), want)
    return LineCut(theta, lo + x * (hi - lo))


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points: Sequence) -> list:
    """Monotone chain; returns counterclockwise hull without repetition."""
    pts = sorted(set((float(x), float(y)) for x, y in points))
    if len(pts) <= 2:
        return pts
    lower = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def random_polygon(rng, npts: int, span: float) -> ConvexPolygon:
    """Hull of `npts` points drawn uniformly from [-span, span]^2, drawn
    again until the hull is a polygon."""
    while True:
        pts = [(rng.uniform(-span, span), rng.uniform(-span, span)) for _ in range(npts)]
        hull = convex_hull(pts)
        if len(hull) >= 3:
            try:
                return ConvexPolygon(hull)
            except ValueError:
                continue


def random_convex_polygon(rng, max_vertices: int = 12) -> ConvexPolygon:
    """Hull of random points; useful for seeded property sweeps."""
    while True:
        k = rng.randint(4, max(4, max_vertices + 2))
        pts = [(rng.uniform(-1, 1) * rng.uniform(0.5, 3.0),
                rng.uniform(-1, 1) * rng.uniform(0.5, 3.0)) for _ in range(k)]
        hull = convex_hull(pts)
        if len(hull) >= 3:
            try:
                return ConvexPolygon(hull)
            except ValueError:
                continue


def search_isoperimetric_full_walk(n: int, limit: Optional[int] = None) -> IsoSearchResult:
    """`search_isoperimetric` over the whole insertion tree: every floorplan
    is decided on its walked line in the canonical parametrization, and
    `forced` lists the pairs in walk order."""
    witnesses: List[IsoWitness] = []
    forced: List[ForcedPair] = []
    examined = certified_empty = 0
    for fp, _, _, line in iter_floorplans(n, _grow_lines, _ROOT_LINE):
        examined += 1
        p, d, e = _canonical(fp, *line[:3])
        # room i's width x_r - x_l as the form (c, a): w_i = (c + a*t) / e
        widths = [(p[r] - p[l], d[r] - d[l]) for l, r, _, _ in fp.rooms]
        pp = positive_point(widths, e)
        if pp.certified_empty:
            certified_empty += 1
            continue
        equal = forced_equal_pair(widths, e)
        if isinstance(equal, ForcedPair):
            forced.append(equal)
            continue
        sol = ParamSolution(_segment_names(fp), [p, d], e)
        witnesses.append(_witness(fp, sol, distinct_area_param(pp, equal)))
        if limit is not None and len(witnesses) >= limit:
            break
    status = "witnesses" if witnesses else "exhausted-no-solution"
    return IsoSearchResult(n, status, tuple(witnesses), tuple(forced), (), examined, 0, certified_empty)


def search_fill_unpruned(dims, counts, W, H, allow_rotation, reach):
    """`_search_fill` without the height and well rules: placements
    (dims index, x, y, rotated) of a tiling of the W x H rectangle, or
    None.  Takes and ignores `reach`, so it can stand in for `_search_fill`
    inside `enumerate_layouts`."""
    placed = []

    def rec(runs, remaining):
        if remaining == 0:
            return True
        k = min(range(len(runs)), key=lambda j: runs[j][2])
        x, run, y = runs[k]
        free_h = H - y
        for i, (w, h) in enumerate(dims):
            if counts[i] == 0:
                continue
            for rot in (False, True):
                if rot and (not allow_rotation or w == h):
                    continue
                pw, ph = (h, w) if rot else (w, h)
                if pw > run or ph > free_h:
                    continue
                counts[i] -= 1
                placed.append((i, x, y, rot))
                if rec(_raise_run(runs, k, pw, ph), remaining - 1):
                    return True
                placed.pop()
                counts[i] += 1
        return False

    return placed if rec([(0, W, 0)], sum(counts)) else None


def enumerate_floorplans(n: int) -> List[Floorplan]:
    """All mosaic floorplans with n rooms, in `iter_floorplans` order."""
    return [fp for fp, *_ in iter_floorplans(n)]


def count_diagonal_rectangulations(n: int) -> int:
    """Tilings of the n x n grid by n rectangles that each hold exactly one
    diagonal cell (i, i), in bijection with the mosaic floorplans of n
    rooms; counted by backtracking over the first uncovered cell,
    row-major order."""
    covered = [[False] * n for _ in range(n)]

    def diagonal_cells(r0, c0, r1, c1):
        # diagonal cells (i, i) inside rows [r0, r1) x cols [c0, c1)
        return sum(1 for i in range(max(r0, c0), min(r1, c1)))

    def first_free():
        for r in range(n):
            for c in range(n):
                if not covered[r][c]:
                    return r, c
        return None

    def rec() -> int:
        cell = first_free()
        if cell is None:
            return 1
        r0, c0 = cell
        total = 0
        for r1 in range(r0 + 1, n + 1):
            if any(covered[r][c0] for r in range(r0, r1)):
                break
            for c1 in range(c0 + 1, n + 1):
                if any(covered[r][c1 - 1] for r in range(r0, r1)):
                    break
                if diagonal_cells(r0, c0, r1, c1) != 1:
                    continue
                for r in range(r0, r1):
                    for c in range(c0, c1):
                        covered[r][c] = True
                total += rec()
                for r in range(r0, r1):
                    for c in range(c0, c1):
                        covered[r][c] = False
        return total

    return rec()


def baxter_count(n: int) -> int:
    """The number of Baxter permutations of length n, which equals the
    number of n-room mosaic floorplans, in closed form (Chung, Graham,
    Hoggatt and Kleiman 1978):
    B(n) = sum_k C(n+1, k-1) C(n+1, k) C(n+1, k+1) / (C(n+1, 1) C(n+1, 2))."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    terms = sum(math.comb(n + 1, k - 1) * math.comb(n + 1, k) * math.comb(n + 1, k + 1)
                for k in range(1, n + 1))
    return terms // (math.comb(n + 1, 1) * math.comb(n + 1, 2))


def layout_to_json(layout: Layout) -> str:
    """Serialize a layout; all numbers as exact p/q strings."""
    return json.dumps(layout_to_dict(layout), indent=2, sort_keys=True) + "\n"


def contains(sol: ParamSolution, point: Sequence[Fraction]) -> bool:
    """Exact membership test: does some parameter choice hit `point`?"""
    if len(point) != len(sol.nums[0]):
        raise ValueError("point length mismatch")
    # Some t solves basis^T t = point - particular iff it is consistent.
    rhs = [Fraction(p) * sol.den - q for p, q in zip(point, sol.nums[0])]
    basis_t = [[row[j] for row in sol.nums[1:]] for j in range(len(rhs))]
    return solve_linear_exact(basis_t, rhs) is not None


def positive_forms(forms) -> PositivePoint:
    """The parameters t at which every affine form c + a*t is > 0: form
    (c, a) is positive exactly on t > -c/a (a > 0), on t < -c/a (a < 0),
    or everywhere when a = 0 and c > 0, and the open interval (max lower,
    min upper) is the answer.  `positive_point(widths, den)` answers as
    this on the widths and their heights, 2n forms."""
    lo = hi = None  # the tightest ends so far, each as (num, den) with den > 0
    for c, a in forms:
        if a > 0:
            if lo is None or -c * lo[1] > lo[0] * a:
                lo = (-c, a)
        elif a < 0:
            if hi is None or c * hi[1] < hi[0] * -a:
                hi = (c, -a)
        elif c <= 0:
            return PositivePoint(certified_empty=True)
    if lo is not None and hi is not None and lo[0] * hi[1] >= hi[0] * lo[1]:
        return PositivePoint(certified_empty=True)
    return PositivePoint(lo, hi)


def exact_volume(mesh) -> Fraction:
    """The volume of the mesh's float vertices in exact arithmetic: the
    divergence theorem over fan-triangulated faces, in Fractions.  The
    oracle of `polyhedra.volume`, which reads the face planes in floats."""
    verts = [tuple(map(Fraction, v)) for v in mesh.vertices]
    total = Fraction(0)
    for face in mesh.faces:
        x0, y0, z0 = verts[face[0]]
        for i in range(1, len(face) - 1):
            (x1, y1, z1), (x2, y2, z2) = verts[face[i]], verts[face[i + 1]]
            total += x0 * (y1 * z2 - z1 * y2) + y0 * (z1 * x2 - x1 * z2) + z0 * (x1 * y2 - y1 * x2)
    return total / 6
