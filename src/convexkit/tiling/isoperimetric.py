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
vanishes identically on the space.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from ..kernel import (
    MAX_FREE_DIMS,
    ParamSolution,
    positive_point,
    solve_linear_exact,
)
from .floorplans import MAX_ROOMS, Floorplan, enumerate_floorplans
from .tiles import Layout, Placement, Tile, TileSet, verify_layout

PERTURB_ATTEMPTS = 10_000


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
    forced to equal areas identically on the solution space.  inconclusive
    lists the floorplans that resisted certification: a solution space of
    dimension above one, or no distinct-area point found near a positive
    one.

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


def forced_equal_pair(sol: ParamSolution, fp: Floorplan) -> Optional[ForcedPair]:
    """A pair of rooms whose areas agree identically on the solution space,
    if any.  Area equality a_i = a_j factors as (w_i - w_j)(1 - w_i - w_j) = 0;
    the space is irreducible (affine), so identical equality forces one factor
    to vanish identically.  With each w as an affine form (const, coeffs)
    over the parameters, w_i - w_j vanishes identically iff the two forms
    are equal, and w_i + w_j - 1 iff the constants sum to 1 and the
    coefficients to 0."""
    base = fp.num_vsegs + fp.num_hsegs
    forms = [sol.coordinate_form(base + 2 * i) for i in range(fp.n)]
    for i, (ci, ai) in enumerate(forms):
        for j in range(i + 1, fp.n):
            cj, aj = forms[j]
            if (ci, ai) == (cj, aj):
                return ForcedPair(i, j, f"w{i} = w{j}")
            if ci + cj == 1 and all(x + y == 0 for x, y in zip(ai, aj)):
                return ForcedPair(i, j, f"w{i} + w{j} = 1")
    return None


def _witness_from_point(fp: Floorplan, sol: ParamSolution, point) -> Optional[IsoWitness]:
    nv, nh, n = fp.num_vsegs, fp.num_hsegs, fp.n
    xs = point[:nv]
    ys = point[nv : nv + nh]
    dims = [(point[nv + nh + 2 * i], point[nv + nh + 2 * i + 1]) for i in range(n)]
    if any(w <= 0 or h <= 0 for w, h in dims):
        return None
    areas = tuple(w * h for w, h in dims)
    if len(set(areas)) != n:
        return None
    tiles = TileSet([Tile(i + 1, w, h) for i, (w, h) in enumerate(dims)])
    placements = tuple(
        Placement(i + 1, xs[l], ys[b], False)
        for i, (l, r, b, t) in enumerate(fp.rooms)
    )
    layout = Layout(xs[1], ys[1], placements)
    if verify_layout(tiles, layout) is not None:
        return None
    values = dict(zip(sol.names, point))
    return IsoWitness(fp, sol, values, layout, tiles, areas)


def _distinct_area_point(fp: Floorplan, sol: ParamSolution, start_params, seed: int):
    """Perturb the parameters of a known positive point, looking for all
    dimensions positive and all areas pairwise distinct.  Distinctness is
    a finite union of hyperplane complements, so a generic nearby rational
    point works; shrink the step when positivity keeps failing."""
    rng = random.Random(seed)
    base = list(start_params)
    w = _witness_from_point(fp, sol, sol.point(base))
    if w is not None:
        return w
    for attempt in range(PERTURB_ATTEMPTS):
        scale = Fraction(1, 2 ** (2 + attempt * 12 // PERTURB_ATTEMPTS))
        params = [
            b + Fraction(rng.randint(-999, 999), 999) * scale for b in base
        ]
        w = _witness_from_point(fp, sol, sol.point(params))
        if w is not None:
            return w
    return None


def search_isoperimetric(
    n: int,
    limit: Optional[int] = None,
    seed: int = 0,
) -> IsoSearchResult:
    """Search every n-room floorplan for a tiling by rectangles of equal
    semiperimeter and pairwise distinct areas.  Stops after `limit`
    witnesses when given.  n starts at 2: pairwise distinct areas need a
    pair of rooms."""
    if not (2 <= n <= MAX_ROOMS):
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
        nv, nh = fp.num_vsegs, fp.num_hsegs
        pos_idx = list(range(nv + nh, nv + nh + 2 * n))
        if sol.dim > MAX_FREE_DIMS:
            residual.append(fp)
            continue
        pp = positive_point(sol, pos_idx)
        if pp.certified_empty:
            certified_empty += 1
            continue
        pair = forced_equal_pair(sol, fp)
        if pair is not None:
            forced.append((fp, pair))
            continue
        witness = _distinct_area_point(fp, sol, pp.params, seed)
        if witness is None:
            residual.append(fp)
            continue
        witnesses.append(witness)
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
