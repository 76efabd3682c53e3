"""Tilings by rectangles of equal semiperimeter and distinct areas.

For a fixed floorplan, requiring every room to have semiperimeter 1
(any other value is a rescaling) gives a linear system.  Its only free
unknowns are the n+3 segment coordinates: a room's width and height are
differences of two of them.  That is n+2 equations in n+3 unknowns.

Theorem: the system of every mosaic floorplan has rank n+2, so its
solutions form a line.  Proof, in the network view of Brooks, Smith, Stone
and Tutte (Duke Math. J. 1940): (1) with the walls pinned at 0, the
homogeneous system says h = -w for each room.  (2) The rooms just above an
interior horizontal segment s lie side by side from its left end to its
right end, and so do the rooms just below: for any x both width sums
telescope to its length.  With h = -w the heights above and below then sum
alike, so y is harmonic, with unit weights, at s: the sum of y_t - y_s
over the rooms above equals that of y_s - y_b below.  So is x at each
interior vertical segment.  (3) So y = Y*phi and x = X*psi, for the
harmonic phi and psi that are 0 on the bottom and left walls and 1 on the
top and right ones.  From any interior segment rooms lead strictly down to
the bottom wall and strictly up to the top (left and right for x), and a
harmonic function is constant along such a path from an inner extremum: by
this strong maximum principle 0 < phi, psi < 1 inside.  (4) A top-wall
room with bottom b has h = Y*(1 - phi_b) = -w, and 1 - phi_b > 0, so X
fixes Y, and Y = 0 would zero every w and so X: the null space is one
line, with X, Y != 0 on it.  With T-junctions only, each insertion adds
one room and one segment (a cross would merge two: the 2 x 2 grid's rows
are dependent), so the n+3 unknowns have rank n+2, the full row rank, and
every system is consistent.

The search solves no system per floorplan.  It walks the insertion tree
once (`iter_floorplans`), down to n - 1 rooms, and derives each child's
line from its parent's: a node keeps its particular point, its direction
and a unit solution for each room on its left and top walls, all as ints
over one denominator.  An insertion pushes some wall rooms off their wall
by the new room's extent, which moves their right-hand sides by that
extent, and adds the new room's row: one equation in two parameters
(`_grow_lines`).  So an internal node costs O(n^2), not an
(n+2) x (n+3) elimination, and by (3) and (4) no update is degenerate.
The leaves, four in five nodes of the tree, get no floorplan and no
line: a leaf's outcome depends on its n room widths alone, and each is a
fixed combination of its parent's room width on the point, the direction
and the summed units, a few multiply-adds (`_leaf_outcomes`).  Only a
witness is built, one step from its parent.

The line is parametrized by t, the height of the last room whose height
varies on it.  Each room's width is then an integer form
w_i = (C_i + A_i*t) / E over one E > 0, and its height 1 - w_i.  A t with
every w_i and 1 - w_i positive is one exact interval intersection.  Room
areas are w*(1-w), so rooms i and j share area iff w_i = w_j or
w_i + w_j = 1; either factor is affine in t, so it vanishes identically,
forcing the pair, or at one t at most.  Neither emptiness nor a forced
pair depends on how the line is parametrized, so only a witness needs
the canonical line: a t with pairwise distinct areas is chosen on it
exactly, away from those values.

Lemma: swapping V and H in an insertion code reflects its floorplan in
the diagonal through the top-left corner, room numbers kept.  Proof, by
induction on the code: the reflection swaps the left wall (top to bottom)
and the top wall (left to right), so it maps ("V", j), which pushes the
first j left-wall rooms right, to ("H", j), which pushes the first j
top-wall rooms down.  It swaps each room's w and h, keeping semiperimeters,
areas and positivity, and w_i = w_j iff h_i = h_j, w_i + w_j = 1 iff
h_i + h_j = 1: mirrors have one outcome and one forced pair.  So the
search stops where its walk, one room short of the leaves, enters the
("H", 1) half, doubles its counts, repeats its forced pairs and decides
each mirrored witness on its own line.

The nine-room census examines 58,202 floorplans: 104 witnesses, 19,802
certified empty and 38,296 forced pairs.  `tiling search-iso --n 9`
takes about 0.6 s (0.9 s when every leaf got its own line) at 21 MiB
peak RSS on a 2-core machine (Python 3.11).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations
from math import gcd
from typing import FrozenSet, List, NamedTuple, Optional, Tuple, Union

from .. import UnsupportedInstance
from ..kernel.linsolve import ParamSolution, PositivePoint, positive_point, solve_linear_exact
from .floorplans import MAX_ROOMS, Floorplan, _insert, descend, iter_floorplans
from .tiles import Layout, Placement, Tile, TileSet, verify_layout


def _segment_names(fp: Floorplan) -> List[str]:
    return [f"x{i}" for i in range(fp.num_vsegs)] + [f"y{i}" for i in range(fp.num_hsegs)]


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
    return rows, rhs, _segment_names(fp)


def _canonical(fp: Floorplan, den: int, point: List[int], direction: List[int]):
    """The line (point + s*direction) / den, den > 0, parametrized by t, the
    height of the last room whose height varies on it: the direction is
    scaled so that this height moves by 1, and the point is the one where
    it is 0.  With S = D[t] - D[b] > 0 (orienting D) and H = P[t] - P[b],
    that is the point (P*S - H*D) / (den*S) and the direction den*D /
    (den*S), returned as (point, direction, den*S) in ints."""
    nv = fp.num_vsegs
    # some height varies: with every height fixed, so is every width, and
    # the walls pinned at 0 fix each segment through the rooms on it
    b, t = next((nv + b, nv + t) for _, _, b, t in reversed(fp.rooms) if direction[nv + t] != direction[nv + b])
    s, h = direction[t] - direction[b], point[t] - point[b]
    if s < 0:
        s, direction = -s, [-w for w in direction]
    return [v * s - h * w for v, w in zip(point, direction)], [den * w for w in direction], den * s


def solve_isoperimetric(fp: Floorplan) -> Optional[ParamSolution]:
    """The exact solution space over the segment coordinates (x..., y...)
    by one elimination of the whole system: the walk's oracle.  A line, as
    every mosaic floorplan gives, comes back in the `_canonical`
    parametrization, so any two parametrizations of one line come back
    alike.  Another floorplan may give None (no solution), a single point
    or a space of dimension 2 or more, returned as solved."""
    rows, rhs, names = build_isoperimetric_system(fp)
    sol = solve_linear_exact(rows, rhs, names)
    if sol is None or sol.dim != 1:
        return sol
    point, direction, den = _canonical(fp, sol.den, *sol.nums)
    return ParamSolution(names, [point, direction], den)


# The line of the one-room floorplan over (x0, x1, y0, y1), as the walk
# carries it: (den, point, direction, units), the point and each unit
# solution as int numerators over den > 0.  units[r] solves the system with
# right-hand side e_r (1 in room r's row, 0 elsewhere), for each room r on
# the left and top walls.  x1 + y1 = 1.
_ROOT_LINE = (1, [0, 1, 0, 0], [0, 1, 0, -1], {0: [0, 1, 0, 0]})


def _new_rows(line, fp: Floorplan, left, top):
    """fp's moves in walk order, each with the new room's row (see
    `_grow_lines`) as (move, j, w, gi, gk, alpha, beta, c): w sums the
    units of the pushed rooms, the row is g*v = v[gi] - v[gk] = 1, and in
    the two parameters, times den, it reads alpha*sigma + beta*den*tau = c
    for the point."""
    den, point, direction, units = line
    rooms, nv = fp.rooms, fp.num_vsegs
    for move, wall in (("V", left), ("H", top)):
        w = [0] * len(point)
        for j, r in enumerate(wall, 1):
            w = [a + b for a, b in zip(w, units[r])]
            # x0 is pinned at 0
            gi, gk = (nv + 1, nv + rooms[r][2]) if move == "V" else (rooms[r][1], 0)
            beta = direction[gi] - direction[gk]
            if not beta:
                raise RuntimeError(f"degenerate update (beta = 0) by {move}: the system lost rank")
            yield move, j, w, gi, gk, den + w[gi] - w[gk], beta, den - point[gi] + point[gk]


def _grow_lines(line, fp: Floorplan, left, top):
    """The lines of fp's children from fp's own, for `iter_floorplans`.

    A move pushes the rooms R (a prefix of a wall) off that wall by the
    new room's extent sigma along the push: x_s for a V move, y_1 - y_s for
    an H move, where s is the new segment.  In fp's unknowns the pushed
    rooms' rows then read A*v = b + sigma*1_R, solved by every
    v = P + sigma*W + tau*Dir with W = the sum of the units of R.  The new
    room's row g*v + sigma = 1 (g*v = y_1 - y_b for a V move over the
    pushed block's bottom b, x_r for an H move over its right r) is one
    more equation alpha*sigma + beta*tau = c in the two parameters, and the
    child's point, direction and units are its solutions.  beta is the new
    room's height change along fp's direction, Y*(1 - phi_b), for a V move
    and its width change X*psi_r for an H move, nonzero by the theorem.  A
    child costs O(n) per unit it keeps."""
    out = []
    for row in _new_rows(line, fp, left, top):
        move, j = row[:2]
        keep = left[j:] + top if move == "V" else left + top[j:]
        out.append(_child_line(line, row, fp.num_vsegs, keep, fp.n))
    return out


def _child_line(line, row, nv, keep, new):
    """One child's line (see `_grow_lines`): fp's `line`, the child's row
    from `_new_rows` and fp's count nv of x segments.  `keep` lists the old
    rooms whose units the child needs, the new room `new` getting one too."""
    den, point, direction, units = line
    move, _, w, gi, gk, alpha, beta, c = row
    # one solution per right-hand side, sigma = 0, as numerators over k*den > 0:
    # c is den - g*point for the point, -g*units[r] for an old room's unit
    # and den for the new room's (its base is 0)
    k, along = (beta, direction) if beta > 0 else (-beta, [-v for v in direction])

    def lift(v, sigma):
        # the new unknown: x_s = sigma (V, after the x segments) or
        # y_s = y_1 - sigma (H, after the y segments)
        return v[:nv] + [sigma] + v[nv:] if move == "V" else v + [v[nv + 1] - sigma]

    def solve(base, c):
        return lift([k * b + c * a for b, a in zip(base, along)], 0)

    p = solve(point, c)
    d = lift([beta * a - alpha * b for a, b in zip(w, direction)], beta * den)
    u = {r: solve(units[r], units[r][gk] - units[r][gi]) for r in keep}
    u[new] = solve([0] * len(w), den)
    den *= k
    g = gcd(den, *p, *chain.from_iterable(u.values()))
    if g > 1:
        den, p = den // g, [v // g for v in p]
        u = {r: [v // g for v in vec] for r, vec in u.items()}
    g = gcd(*d)
    return den, p, [v // g for v in d], u


def _leaf_outcomes(fp: Floorplan, left, top, line):
    """The outcomes of fp's children, the leaves of the walk, lazily in
    move order, decided on their room widths alone.

    By `_child_line` a child's point is k*point + c*sign(beta)*direction
    over the denominator k*den, k = |beta|, and its direction is
    beta*w - alpha*direction, so each old room's width form (c_i, a_i) is
    that combination of its width on fp's point, direction and w.  A V
    move's new segment is x_s = (0, beta*den), the new room's width, which
    the pushed rooms lose; an H move's new room spans x_0 = 0 to the pushed
    block's right end x_gi.  Only a witness builds its floorplan and line."""
    den, point, direction = line[:3]
    rooms = fp.rooms
    points = [point[r] - point[l] for l, r, _, _ in rooms]
    directions = [direction[r] - direction[l] for l, r, _, _ in rooms]
    for row in _new_rows(line, fp, left, top):
        move, j, w, gi, _, alpha, beta, c = row
        k, c = (beta, c) if beta > 0 else (-beta, -c)
        widths = [
            (k * p + c * d, beta * (w[r] - w[l]) - alpha * d)
            for (l, r, _, _), p, d in zip(rooms, points, directions)
        ]
        if move == "V":
            sigma = beta * den
            for i in left[:j]:
                widths[i] = (widths[i][0], widths[i][1] - sigma)
            widths.append((0, sigma))
        else:
            widths.append((k * point[gi] + c * direction[gi], beta * w[gi] - alpha * direction[gi]))
        e = k * den
        if positive_point(widths, e).certified_empty:
            yield "certified_empty"
            continue
        equal = forced_equal_pair(widths, e)
        if isinstance(equal, ForcedPair):
            yield equal
        else:
            yield _decide(_insert(fp, left, top, move, j)[0], _child_line(line, row, fp.num_vsegs, (), fp.n))


class ForcedPair(NamedTuple):
    room_i: int
    room_j: int
    relation: str  # "w_i = w_j" or "w_i + w_j = 1"


class IsoWitness(NamedTuple):
    floorplan: Floorplan
    solution: ParamSolution
    values: dict
    layout: Layout
    tileset: TileSet
    areas: Tuple[Fraction, ...]


class IsoSearchResult(NamedTuple):
    """status: "witnesses" or "exhausted-no-solution" (each floorplan certified impossible).

    Each examined floorplan has one of three outcomes: `certified_empty`
    (an exact interval certificate that no point of the line is
    all-positive), `forced` (its pair of rooms with identically equal
    areas; a mirrored half repeats the walked half's) or `witnesses`.
    By the theorem no floorplan is infeasible or left with a plane, so
    `residual` is always () and `infeasible` always 0; they stay because
    the pinned report key `residual_floorplans`, the pinned CLI line and
    the benchmark's tracer read them.
    """

    n: int
    status: str
    witnesses: Tuple[IsoWitness, ...]
    forced: Tuple[ForcedPair, ...]
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
    for i, j in combinations(range(len(widths)), 2):
        (ci, ai), (cj, aj) = widths[i], widths[j]
        if ci == cj and ai == aj:
            return ForcedPair(i, j, f"w{i} = w{j}")
        if ai == -aj and ci + cj == den:
            return ForcedPair(i, j, f"w{i} + w{j} = 1")
    # no factor vanishes identically, so each vanishes at one t at most
    excluded = set()
    for (ci, ai), (cj, aj) in combinations(widths, 2):
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


def _decide(fp: Floorplan, line):
    """fp's outcome on the line the walk carries to it, put in the
    canonical parametrization that a witness needs: "certified_empty", its
    ForcedPair or its IsoWitness."""
    p, d, e = _canonical(fp, *line[:3])
    # room i's width x_r - x_l as the form (c, a): w_i = (c + a*t) / e
    widths = [(p[r] - p[l], d[r] - d[l]) for l, r, _, _ in fp.rooms]
    pp = positive_point(widths, e)
    if pp.certified_empty:
        return "certified_empty"
    equal = forced_equal_pair(widths, e)
    if isinstance(equal, ForcedPair):
        return equal
    return _witness(fp, ParamSolution(_segment_names(fp), [p, d], e), distinct_area_param(pp, equal))


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
    forced: List[ForcedPair] = []
    examined = certified_empty = 0
    for fp, left, top, line in iter_floorplans(n - 1, _grow_lines, _ROOT_LINE):
        # the ("H", 1) half mirrors the walked half, unless a limit may stop in it
        if fp.code[:1] == (("H", 1),) and (limit is None or not witnesses):
            examined, certified_empty = 2 * examined, 2 * certified_empty
            forced += forced
            mirrors = [tuple(("H" if m == "V" else "V", j) for m, j in w.floorplan.code) for w in witnesses]
            mirrors.sort(key=lambda code: [(m == "H", j) for m, j in code])
            witnesses += [_decide(*descend(code, _grow_lines, _ROOT_LINE)) for code in mirrors]
            break
        for outcome in _leaf_outcomes(fp, left, top, line):
            examined += 1
            if isinstance(outcome, IsoWitness):
                witnesses.append(outcome)
                if len(witnesses) == limit:
                    break
            elif isinstance(outcome, ForcedPair):
                forced.append(outcome)
            else:
                certified_empty += 1
        if len(witnesses) == limit:
            break
    status = "witnesses" if witnesses else "exhausted-no-solution"
    return IsoSearchResult(n, status, tuple(witnesses), tuple(forced), (), examined, 0, certified_empty)
