"""Tilings by rectangles of equal semiperimeter and distinct areas.

For a fixed floorplan, requiring every room to have semiperimeter 1
(any other value is a rescaling) gives a linear system.  Its only free
unknowns are the n+3 segment coordinates: a room's width and height are
differences of two of them.  We solve that small system exactly, lift its
solution space to the room dimensions, and write the space in the unique
RREF form over (x..., y..., w0, h0, ...).  Then we look for a point with
all dimensions positive, and decide whether some pair of rooms is forced
to share its area on the whole solution space.  Room areas are w*(1-w),
so rooms i and j share area iff w_i = w_j or w_i + w_j = 1; on an affine
solution space that happens identically iff one of the two linear forms
vanishes identically on the space.  On a line, a pair that is not forced
shares its area at two values of the parameter at most, so a point with
pairwise distinct areas is chosen exactly, away from those values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import FrozenSet, List, Optional, Tuple, Union

from ..kernel import (
    MAX_FREE_DIMS,
    ParamSolution,
    PositivePoint,
    positive_point,
    solve_linear_exact,
)
from .floorplans import MAX_ROOMS, Floorplan, enumerate_floorplans
from .search import UnsupportedInstance
from .tiles import Layout, Placement, Tile, TileSet, verify_layout


def _coordinate_names(fp: Floorplan) -> List[str]:
    return (
        [f"x{i}" for i in range(fp.num_vsegs)]
        + [f"y{i}" for i in range(fp.num_hsegs)]
        + [v for i in range(fp.n) for v in (f"w{i}", f"h{i}")]
    )


def build_isoperimetric_system(fp: Floorplan):
    """Unit-semiperimeter equations over the segment coordinates
    (x_0..x_{nv-1}, y_0..y_{nh-1}): the left and bottom walls pinned at 0,
    and x_r - x_l + y_t - y_b = 1 for every room (l, r, b, t).  That is n+2
    equations in nv+nh = n+3 unknowns.  A room's width and height are the
    differences w = x_r - x_l and h = y_t - y_b, so they take no unknowns
    of their own.  Returns (rows, rhs, names)."""
    nv, nh = fp.num_vsegs, fp.num_hsegs
    nvars = nv + nh
    rows: List[List[Fraction]] = []

    def add(*coeffs):
        row = [Fraction(0)] * nvars
        for idx, c in coeffs:
            row[idx] += c
        rows.append(row)

    add((0, 1))
    add((nv, 1))
    for l, r, b, t in fp.rooms:
        add((r, 1), (l, -1), (nv + t, 1), (nv + b, -1))
    rhs = [Fraction(0), Fraction(0)] + [Fraction(1)] * fp.n
    return rows, rhs, _coordinate_names(fp)[:nvars]


def _lift(fp: Floorplan, v: List[Fraction]) -> List[Fraction]:
    """Append every room's (w, h) = (x_r - x_l, y_t - y_b) to a vector over
    the segment coordinates."""
    nv = fp.num_vsegs
    out = list(v)
    for l, r, b, t in fp.rooms:
        out += (v[r] - v[l], v[nv + t] - v[nv + b])
    return out


def solve_isoperimetric(fp: Floorplan) -> Optional[ParamSolution]:
    """Exact solution space over (x..., y..., w0, h0, ...), or None when
    the floorplan admits no unit-semiperimeter assignment at all (signs
    ignored).

    The segment-coordinate system is solved, and its particular point and
    basis are lifted by w = x_r - x_l, h = y_t - y_b.  The lift maps that
    space one to one onto the space of the full system that keeps every
    w_i and h_i as unknowns.  The lifted space is then put in canonical
    form, the one an RREF solve of the full system returns, so the result
    does not depend on which system was solved."""
    rows, rhs, names = build_isoperimetric_system(fp)
    seg = solve_linear_exact(rows, rhs, names)
    if seg is None:
        return None
    return ParamSolution(
        _coordinate_names(fp),
        _lift(fp, seg.particular),
        [_lift(fp, v) for v in seg.basis],
    ).canonical()


@dataclass(frozen=True)
class ForcedPair:
    room_i: int
    room_j: int
    relation: str  # "w_i = w_j" or "w_i + w_j = 1"


@dataclass(frozen=True)
class IsoWitness:
    floorplan: Floorplan
    solution: ParamSolution
    values: dict
    layout: Layout
    tileset: TileSet
    areas: Tuple[Fraction, ...]


@dataclass(frozen=True)
class IsoSearchResult:
    """status: "witnesses", "exhausted-no-solution", or "inconclusive".

    exhausted-no-solution means every floorplan was certified impossible:
    either its linear system is infeasible, no all-positive point exists
    (an exact interval certificate on the solution line), or two rooms are
    forced to equal areas identically on the solution space.  Every other
    floorplan with a solution space of dimension at most one yields a
    witness, chosen exactly.  inconclusive lists the floorplans that
    resisted certification: those whose solution space has dimension above
    MAX_FREE_DIMS; no floorplan with n <= MAX_ROOMS has one.

    Every examined floorplan has exactly one of five outcomes: `infeasible`
    (no unit-semiperimeter assignment), `certified_empty` (no all-positive
    point), `forced` (a forced equal-area pair), `residual` or `witnesses`.
    """

    n: int
    status: str
    witnesses: Tuple[IsoWitness, ...]
    forced: Tuple[Tuple[Floorplan, ForcedPair], ...]
    residual: Tuple[Floorplan, ...]
    examined: int
    infeasible: int
    certified_empty: int


def forced_equal_pair(
    sol: ParamSolution, fp: Floorplan
) -> Union[ForcedPair, FrozenSet[Fraction]]:
    """A pair of rooms whose areas agree identically on the solution space,
    or else the finite set of line parameters t at which some two areas
    agree (empty on a point).  Area equality factors as
    (w_i - w_j)(1 - w_i - w_j) = 0, and on a point or a line each factor is
    affine in t: it vanishes identically, forcing the pair, or at one t at
    most.  Raises on a space of dimension above MAX_FREE_DIMS."""
    if sol.dim > MAX_FREE_DIMS:
        raise ValueError(f"solution space dimension {sol.dim} exceeds {MAX_FREE_DIMS}")
    base = fp.num_vsegs + fp.num_hsegs
    forms = [sol.coordinate_form(base + 2 * i) for i in range(fp.n)]
    forms = [(c, a[0] if a else 0) for c, a in forms]  # w_i = c + a*t
    pairs = list(combinations(range(fp.n), 2))
    for i, j in pairs:
        (ci, ai), (cj, aj) = forms[i], forms[j]
        if (ci, ai) == (cj, aj):
            return ForcedPair(i, j, f"w{i} = w{j}")
        if ai == -aj and ci + cj == 1:
            return ForcedPair(i, j, f"w{i} + w{j} = 1")
    # no factor vanishes identically, so each vanishes at one t at most
    excluded = set()
    for i, j in pairs:
        (ci, ai), (cj, aj) = forms[i], forms[j]
        if ai != aj:
            excluded.add((cj - ci) / (ai - aj))
        if ai != -aj:
            excluded.add((1 - ci - cj) / (ai + aj))
    return frozenset(excluded)


def distinct_area_params(pp: PositivePoint, excluded: FrozenSet[Fraction]) -> List[Fraction]:
    """The parameters of a positive point at which no two areas agree.

    `pp` is the positive point of a line or a point, and `excluded` the
    parameters at which two areas agree.  `positive_point`'s own t is kept
    when it is not excluded.  Otherwise the midpoint of t and the nearest
    larger value among the excluded ones and the interval's upper end
    (t + 2 when that end is unbounded) lies inside the positivity interval
    and excludes nothing."""
    if not pp.params or pp.params[0] not in excluded:
        return pp.params
    t = pp.params[0]
    hi = pp.interval[1]
    bound = t + 2 if hi is None else hi
    nearest = min([e for e in excluded if e > t] + [bound])
    return [(t + nearest) / 2]


def _witness(fp: Floorplan, sol: ParamSolution, params) -> IsoWitness:
    point = sol.point(params)
    nv, nh, n = fp.num_vsegs, fp.num_hsegs, fp.n
    xs = point[:nv]
    ys = point[nv : nv + nh]
    dims = [(point[nv + nh + 2 * i], point[nv + nh + 2 * i + 1]) for i in range(n)]
    areas = tuple(w * h for w, h in dims)
    tiles = TileSet([Tile(i + 1, w, h) for i, (w, h) in enumerate(dims)])
    placements = tuple(
        Placement(i + 1, xs[l], ys[b], False)
        for i, (l, r, b, t) in enumerate(fp.rooms)
    )
    layout = Layout(xs[1], ys[1], placements)
    defect = verify_layout(tiles, layout)
    if defect is not None or len(set(areas)) != n:
        raise RuntimeError(f"witness for floorplan {fp.code} does not verify: {defect}")
    values = dict(zip(sol.names, point))
    return IsoWitness(fp, sol, values, layout, tiles, areas)


def search_isoperimetric(n: int, limit: Optional[int] = None) -> IsoSearchResult:
    """Search every n-room floorplan for a tiling by rectangles of equal
    semiperimeter and pairwise distinct areas.  Stops after `limit`
    witnesses when given.  n starts at 2: pairwise distinct areas need a
    pair of rooms.  n above MAX_ROOMS is an unsupported instance."""
    if n > MAX_ROOMS:
        raise UnsupportedInstance(f"n = {n} exceeds the floorplan cap of {MAX_ROOMS} rooms")
    if n < 2:
        raise ValueError(f"n must be in 2..{MAX_ROOMS}, got {n}")
    witnesses: List[IsoWitness] = []
    forced: List[Tuple[Floorplan, ForcedPair]] = []
    residual: List[Floorplan] = []
    examined = infeasible = certified_empty = 0
    for fp in enumerate_floorplans(n):
        examined += 1
        sol = solve_isoperimetric(fp)
        if sol is None:
            infeasible += 1
            continue
        if sol.dim > MAX_FREE_DIMS:
            residual.append(fp)
            continue
        base = fp.num_vsegs + fp.num_hsegs
        pp = positive_point(sol, range(base, base + 2 * n))
        if pp.certified_empty:
            certified_empty += 1
            continue
        equal = forced_equal_pair(sol, fp)
        if isinstance(equal, ForcedPair):
            forced.append((fp, equal))
            continue
        witnesses.append(_witness(fp, sol, distinct_area_params(pp, equal)))
        if limit is not None and len(witnesses) >= limit:
            break
    if witnesses:
        status = "witnesses"
    elif residual:
        status = "inconclusive"
    else:
        status = "exhausted-no-solution"
    return IsoSearchResult(
        n, status, tuple(witnesses), tuple(forced), tuple(residual), examined,
        infeasible, certified_empty,
    )
