"""Tilings by rectangles of equal semiperimeter and distinct areas.

For a fixed floorplan, requiring every room to have semiperimeter 1
(any other value is a rescaling) gives a linear system.  Its only free
unknowns are the n+3 segment coordinates: a room's width and height are
differences of two of them.  That is n+2 equations in n+3 unknowns, so a
consistent system has a solution space of dimension at least 1; every
floorplan with n <= MAX_ROOMS gives a line.  We solve the system exactly
in integers and parametrize the line by t, the height of the last room
whose height varies on it.  Each room's width is then an integer form
w_i = (C_i + A_i*t) / E over one E > 0, and its height 1 - w_i.  A t with
every w_i and 1 - w_i positive is one exact interval intersection.  Room
areas are w*(1-w), so rooms i and j share area iff w_i = w_j or
w_i + w_j = 1; either factor is affine in t, so it vanishes identically,
forcing the pair, or at one t at most.  A t with pairwise distinct areas
is then chosen exactly, away from those values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import FrozenSet, List, Optional, Tuple, Union

from ..kernel import ParamSolution, PositivePoint, positive_point, solve_linear_exact
from .floorplans import MAX_ROOMS, Floorplan, enumerate_floorplans
from .search import UnsupportedInstance
from .tiles import Layout, Placement, Tile, TileSet, verify_layout


def build_isoperimetric_system(fp: Floorplan):
    """Unit-semiperimeter equations over the segment coordinates
    (x_0..x_{nv-1}, y_0..y_{nh-1}): the left and bottom walls pinned at 0,
    and x_r - x_l + y_t - y_b = 1 for every room (l, r, b, t).  That is n+2
    equations in nv+nh = n+3 unknowns.  A room's width and height are the
    differences w = x_r - x_l and h = y_t - y_b, so they take no unknowns
    of their own.  Returns (rows, rhs, names), all coefficients ints."""
    nv, nh = fp.num_vsegs, fp.num_hsegs
    nvars = nv + nh
    rows: List[List[int]] = []

    def add(*coeffs):
        row = [0] * nvars
        for idx, c in coeffs:
            row[idx] += c
        rows.append(row)

    add((0, 1))
    add((nv, 1))
    for l, r, b, t in fp.rooms:
        add((r, 1), (l, -1), (nv + t, 1), (nv + b, -1))
    rhs = [0, 0] + [1] * fp.n
    names = [f"x{i}" for i in range(nv)] + [f"y{i}" for i in range(nh)]
    return rows, rhs, names


def solve_isoperimetric(fp: Floorplan) -> Optional[ParamSolution]:
    """Exact solution space over the segment coordinates (x..., y...), or
    None when the floorplan admits no unit-semiperimeter assignment at all
    (signs ignored).

    A line comes back parametrized by t, the height of the last room
    whose height varies on it: the direction is scaled so that this
    height moves by 1, and the particular point is the one where it is 0.
    So any two parametrizations of one line come back alike.  A space of
    dimension 2 or more comes back as solved.  In ints: the solved line is
    (P + s*Dv) / d, so with S = Dv[t] - Dv[b] and H = P[t] - P[b] the point
    is (P*S - H*Dv) / (d*S) and the direction d*Dv / (d*S)."""
    rows, rhs, names = build_isoperimetric_system(fp)
    sol = solve_linear_exact(rows, rhs, names)
    if sol is None or sol.dim > 1:
        return sol
    (p, dv), d, nv = sol.nums, sol.den, fp.num_vsegs
    heights = [(nv + b, nv + t) for _, _, b, t in fp.rooms]
    # some height varies: with every height fixed, so is every width, and
    # the walls pinned at 0 fix each segment through the rooms on it
    b, t = next((b, t) for b, t in reversed(heights) if dv[t] != dv[b])
    s, h = dv[t] - dv[b], p[t] - p[b]
    point = [v * s - h * w for v, w in zip(p, dv)]
    return ParamSolution(names, [point, [d * w for w in dv]], d * s)


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
    forced to equal areas identically on the solution line.  Every other
    floorplan whose solution space is a line yields a witness, chosen
    exactly.  inconclusive lists the floorplans that resisted
    certification: those whose solution space has dimension 2 or more; no
    floorplan with n <= MAX_ROOMS has one.

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
    widths: List[Tuple[int, int]], den: int
) -> Union[ForcedPair, FrozenSet[Fraction]]:
    """A pair of rooms whose areas agree at every t, or else the finite set
    of parameters t at which some two areas agree.  `widths` holds each
    room's width w_i = (c + a*t) / den as the pair (c, a), den > 0.  Area
    equality factors as (w_i - w_j)(1 - w_i - w_j) = 0, and each factor is
    affine in t: it vanishes identically, forcing the pair, or at one t at
    most, which does not depend on den."""
    pairs = list(combinations(range(len(widths)), 2))
    for i, j in pairs:
        (ci, ai), (cj, aj) = widths[i], widths[j]
        if (ci, ai) == (cj, aj):
            return ForcedPair(i, j, f"w{i} = w{j}")
        if ai == -aj and ci + cj == den:
            return ForcedPair(i, j, f"w{i} + w{j} = 1")
    # no factor vanishes identically, so each vanishes at one t at most
    excluded = set()
    for i, j in pairs:
        (ci, ai), (cj, aj) = widths[i], widths[j]
        if ai != aj:
            excluded.add(Fraction(cj - ci, ai - aj))
        if ai != -aj:
            excluded.add(Fraction(den - ci - cj, ai + aj))
    return frozenset(excluded)


def distinct_area_param(pp: PositivePoint, excluded: FrozenSet[Fraction]) -> Fraction:
    """A parameter of the positivity interval at which no two areas agree.

    `pp` is the positive point of the line, and `excluded` the parameters
    at which two areas agree.  `positive_point`'s own t is kept when it is
    not excluded.  Otherwise the midpoint of t and the nearest larger value
    among the excluded ones and the interval's upper end (t + 2 when that
    end is unbounded) lies inside the interval and excludes nothing."""
    t = pp.t
    if t not in excluded:
        return t
    hi = pp.interval[1]
    bound = t + 2 if hi is None else hi
    return (t + min([e for e in excluded if e > t] + [bound])) / 2


def _witness(fp: Floorplan, line: ParamSolution, t: Fraction) -> IsoWitness:
    point = line.point([t])
    xs, ys = point[: fp.num_vsegs], point[fp.num_vsegs :]
    dims = [(xs[r] - xs[l], ys[top] - ys[b]) for l, r, b, top in fp.rooms]
    areas = tuple(w * h for w, h in dims)
    tiles = TileSet([Tile(i + 1, w, h) for i, (w, h) in enumerate(dims)])
    placements = tuple(
        Placement(i + 1, xs[l], ys[b], False)
        for i, (l, r, b, top) in enumerate(fp.rooms)
    )
    layout = Layout(xs[1], ys[1], placements)
    defect = verify_layout(tiles, layout)
    if defect is not None or len(set(areas)) != fp.n:
        raise RuntimeError(f"witness for floorplan {fp.code} does not verify: {defect}")
    values = dict(zip(line.names, point))
    return IsoWitness(fp, line, values, layout, tiles, areas)


def search_isoperimetric(n: int, limit: Optional[int] = None) -> IsoSearchResult:
    """Search every n-room floorplan for a tiling by rectangles of equal
    semiperimeter and pairwise distinct areas.  Stops after `limit`
    witnesses when given.  n starts at 2: pairwise distinct areas need a
    pair of rooms.  n above MAX_ROOMS is an unsupported instance."""
    if n > MAX_ROOMS:
        raise UnsupportedInstance(f"n = {n} exceeds the floorplan cap of {MAX_ROOMS} rooms")
    if n < 2:
        raise ValueError(f"n must be in 2..{MAX_ROOMS}, got {n}")
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
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
        if sol.dim > 1:
            residual.append(fp)
            continue
        # room i's width x_r - x_l as the form (c, a): w_i = (c + a*t) / e
        (p, d), e = sol.nums, sol.den
        widths = [(p[r] - p[l], d[r] - d[l]) for l, r, _, _ in fp.rooms]
        pp = positive_point(widths + [(e - c, -a) for c, a in widths])
        if pp.certified_empty:
            certified_empty += 1
            continue
        equal = forced_equal_pair(widths, e)
        if isinstance(equal, ForcedPair):
            forced.append((fp, equal))
            continue
        witnesses.append(_witness(fp, sol, distinct_area_param(pp, equal)))
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
