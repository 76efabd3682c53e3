"""Equal-semiperimeter, distinct-area tilings: impossibility and witnesses."""

import hashlib
import os
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest

import convexkit.tiling.floorplans as floorplans
import convexkit.tiling.isoperimetric as isoperimetric
from convexkit import UnsupportedInstance
from convexkit.kernel.linsolve import (
    ParamSolution,
    PositivePoint,
    positive_point,
    solve_linear_exact,
)
from convexkit.tiling.floorplans import Floorplan, descend, iter_floorplans
from convexkit.tiling.isoperimetric import (
    ForcedPair,
    build_isoperimetric_system,
    distinct_area_param,
    forced_equal_pair,
    search_isoperimetric,
    solve_isoperimetric,
)
from convexkit.tiling.tiles import load_layout, load_tileset, verify_layout
from conftest import case_named, case_table
from reference import baxter_count, contains, enumerate_floorplans, search_isoperimetric_full_walk

DATA = os.path.join(os.path.dirname(__file__), "data")

@pytest.mark.parametrize(
    "n,examined",
    [(2, 2), (3, 6), (4, 22), (5, 92), (6, 422)],
)
def test_small_counts_are_certified_impossible(n, examined):
    result = search_isoperimetric(n)
    assert result.status == "exhausted-no-solution"
    assert result.examined == examined
    assert not result.witnesses
    assert not result.residual
    # every floorplan has exactly one of the five outcomes
    assert result.infeasible + result.certified_empty + len(result.forced) == examined
    # up to n = 5 every floorplan forces a pair; at n = 6, 20 have no
    # all-positive point and 402 force a pair
    assert (result.infeasible, result.certified_empty) == (0, 20 if n == 6 else 0)


def full_system(fp):
    """Reference system over (x..., y..., w0, h0, ...) with every w_i, h_i
    an unknown: walls pinned at 0, w_i = x_r - x_l, h_i = y_t - y_b and
    w_i + h_i = 1, so (3n+2) equations in 3n+3 unknowns."""
    nv, nh, n = fp.num_vsegs, fp.num_hsegs, fp.n
    names = (
        [f"x{i}" for i in range(nv)]
        + [f"y{i}" for i in range(nh)]
        + [v for i in range(n) for v in (f"w{i}", f"h{i}")]
    )
    rows, rhs = [], []

    def add(coeffs, b):
        row = [Fraction(0)] * len(names)
        for idx, c in coeffs:
            row[idx] += c
        rows.append(row)
        rhs.append(Fraction(b))

    add([(0, 1)], 0)
    add([(nv, 1)], 0)
    for i, (l, r, b, t) in enumerate(fp.rooms):
        w = nv + nh + 2 * i
        add([(r, 1), (l, -1), (w, -1)], 0)
        add([(nv + t, 1), (nv + b, -1), (w + 1, -1)], 0)
        add([(w, 1), (w + 1, 1)], 1)
    return rows, rhs, names


def lift(fp, v):
    """Append every room's (w, h) = (x_r - x_l, y_t - y_b) to a vector over
    the segment coordinates."""
    nv = fp.num_vsegs
    return list(v) + [d for l, r, b, t in fp.rooms for d in (v[r] - v[l], v[nv + t] - v[nv + b])]


# every floorplan with n <= 7 solves to a line
@pytest.mark.parametrize("n,dim", [(n, 1) for n in range(1, 8)])
def test_segment_solve_equals_full_system(n, dim):
    """The segment line, lifted to the room dimensions, is Fraction for
    Fraction the space an RREF solve of the full system returns, and its
    parameter t is the height of the last room whose height varies."""
    for fp in enumerate_floorplans(n):
        got = solve_isoperimetric(fp)
        want = solve_linear_exact(*full_system(fp))
        if want is None:
            assert got is None
            continue
        assert got.dim == want.dim == dim
        assert got.names == want.names[: len(got.names)]
        assert [lift(fp, got.particular), lift(fp, got.basis[0])] == [
            want.particular, want.basis[0]
        ]
        heights = [(fp.num_vsegs + b, fp.num_vsegs + t) for _, _, b, t in fp.rooms]
        b, t = [(b, t) for b, t in heights if got.basis[0][t] != got.basis[0][b]][-1]
        for s in (Fraction(0), Fraction(1), Fraction(-2, 3)):
            point = got.point([s])
            assert point[t] - point[b] == s


@pytest.mark.parametrize("n", range(1, 8))
def test_walk_line_equals_the_fresh_solve(n):
    """The line the insertion walk carries to each floorplan, put in the
    canonical parametrization, is the fresh elimination's line: the same
    ints over the same denominator once reduced."""
    count = 0
    for fp, _, _, line in iter_floorplans(n, isoperimetric._grow_lines, isoperimetric._ROOT_LINE):
        assert line is not None  # the walk carries a line to every floorplan
        point, direction, den = isoperimetric._canonical(fp, *line[:3])
        names = build_isoperimetric_system(fp)[2]
        assert ParamSolution(names, [point, direction], den) == solve_isoperimetric(fp)
        count += 1
    assert count == baxter_count(n)


def draw_picks(rng, least=0):
    """A random code with `least` + 1 to 30 rooms: each pick is a move and,
    modulo the length of the wall it pushes, its push count, so every code
    is valid."""
    return [(rng.choice("VH"), rng.randint(0, 2**16)) for _ in range(rng.randint(least, 29))]


# the one-room code, 29 moves of one kind, and 28 moves alternating
EDGE_CODES = [[], [("V", 0)] * 29, [("H", 0)] * 29, [("V", 2**16), ("H", 2**16)] * 14]


def code_from_picks(picks):
    code, left, top = [], 1, 1  # rooms on the left and top walls
    for move, k in picks:
        if move == "V":
            j = 1 + k % left
            left, top = 1 + left - j, top + 1
        else:
            j = 1 + k % top
            left, top = left + 1, 1 + top - j
        code.append((move, j))
    return code


def mirror(code):
    return [("H" if move == "V" else "V", j) for move, j in code]


LARGE_CODE_CASES = case_table(
    "test_large_floorplans_solve_to_a_line", 200, draw_picks, first=EDGE_CODES
)


def test_large_floorplans_solve_to_a_line():
    """The n room rows and the two pins are independent, past the walk's
    n <= 9 too (the theorem): a random floorplan with 1 to 30 rooms solves
    to a line."""
    for i, picks in enumerate(LARGE_CODE_CASES):
        with case_named(i, picks):
            fp = descend(code_from_picks(picks))[0]
            assert fp.n == len(picks) + 1
            sol = solve_isoperimetric(fp)
            assert sol is not None and sol.dim == 1


RANK_CASES = case_table(
    "test_the_rank_theorem_step_by_step", 100, draw_picks, first=EDGE_CODES
)


def test_the_rank_theorem_step_by_step():
    """The steps of the proof in the `isoperimetric` docstring, along the
    fresh solve's direction of a random floorplan with 1 to 30 rooms: each
    room has w = -h (step 1); y is harmonic at every interior horizontal
    segment and x at every interior vertical one (step 2); and y_s / y_1
    and x_s / x_1 lie strictly in (0, 1) there (step 3)."""
    for i, picks in enumerate(RANK_CASES):
        with case_named(i, picks):
            fp = descend(code_from_picks(picks))[0]
            nv = fp.num_vsegs
            d = solve_isoperimetric(fp).basis[0]
            x, y = d[:nv], d[nv:]
            for l, r, b, t in fp.rooms:
                assert x[r] - x[l] == -(y[t] - y[b])
            # a room's (l, r, b, t): for y its low and high sides are b and
            # t, for x they are l and r
            for v, lo, hi in ((y, 2, 3), (x, 0, 1)):
                for s in range(2, len(v)):
                    above = [v[room[hi]] - v[s] for room in fp.rooms if room[lo] == s]
                    below = [v[s] - v[room[lo]] for room in fp.rooms if room[hi] == s]
                    assert above and below and sum(above) == sum(below)
                    assert 0 < v[s] / v[1] < 1


def line_outcome(fp):
    """Whether fp's line has no all-positive point, and the pair of rooms
    forced to equal areas on it (None when no pair is forced)."""
    sol = solve_isoperimetric(fp)
    (p, d), e = sol.nums, sol.den
    widths = [(p[r] - p[l], d[r] - d[l]) for l, r, _, _ in fp.rooms]
    empty = positive_point(widths, e).certified_empty
    equal = forced_equal_pair(widths, e)
    return empty, equal if isinstance(equal, ForcedPair) else None


MIRROR_CASES = case_table(
    "test_mirror_code_has_the_same_outcome", 100, lambda rng: draw_picks(rng, 9),
    first=EDGE_CODES[1:] + [[("V", 1), ("H", 1)] * 4 + [("V", 1)]],
)


def test_mirror_code_has_the_same_outcome():
    """Swapping V and H in a code reflects the floorplan in the diagonal
    through the top-left corner, which swaps each room's width and height:
    past the walk's n <= 9 too, the mirror has an all-positive point iff
    the floorplan has, and forces the same pair by the same relation."""
    for i, picks in enumerate(MIRROR_CASES):
        with case_named(i, picks):
            code = code_from_picks(picks)
            fp, image = descend(code)[0], descend(mirror(code))[0]
            assert line_outcome(image) == line_outcome(fp)


@pytest.mark.parametrize(
    "n,limit", [(n, None) for n in range(2, 9)] + [(n, k) for n in (7, 8) for k in (1, 2, 5, 100)]
)
def test_search_equals_the_full_walk(n, limit):
    """The search, which takes the ("H", 1) half of the tree from its
    mirror image when it may, answers as the walk of the whole tree: the
    same status, counts and residual floorplans, the same witnesses field
    by field in walk order, and the same forced pairs as a multiset (the
    mirror half repeats the walked half's pairs in the walked half's
    order).  A limit of 5 at n = 7 and 8 runs past the ("V", 1) half."""
    got, want = search_isoperimetric(n, limit), search_isoperimetric_full_walk(n, limit)
    assert (got.status, got.examined, got.infeasible, got.certified_empty, got.residual) == (
        want.status, want.examined, want.infeasible, want.certified_empty, want.residual
    )
    assert got.witnesses == want.witnesses
    assert Counter(got.forced) == Counter(want.forced)


@pytest.mark.parametrize("n", range(2, 9))
def test_leaf_outcomes_equal_the_decision_on_each_leafs_line(n):
    """The leaves decided on their width forms, from their parents' lines,
    answer as `_decide` on each leaf's own line from the walk of the whole
    tree, leaf by leaf in walk order: certified empty, the same forced
    pair, or the same witness."""
    grow, root = isoperimetric._grow_lines, isoperimetric._ROOT_LINE
    got = [
        outcome
        for fp, left, top, line in iter_floorplans(n - 1, grow, root)
        for outcome in isoperimetric._leaf_outcomes(fp, left, top, line)
    ]
    want = [isoperimetric._decide(fp, line) for fp, _, _, line in iter_floorplans(n, grow, root)]
    assert len(got) == len(want) == baxter_count(n)
    assert got == want
    if n >= 7:  # every kind of outcome occurs
        assert {type(o) for o in want} == {str, ForcedPair, isoperimetric.IsoWitness}


def test_a_degenerate_update_raises():
    """By the theorem every insertion has beta != 0, so a child's line is
    solved on beta alone; an update with beta = 0 is a bug and raises,
    even where alpha != 0 would still give a point."""
    line = (1, [0, 0, 0, 0], [0, 0, 0, 0], {0: [0, 0, 0, 0]})
    rows = isoperimetric._new_rows(line, descend(())[0], (0,), (0,))
    with pytest.raises(RuntimeError, match="beta = 0"):
        next(rows)


def test_limit_stops_the_walk(monkeypatch):
    """The search consumes the walk as a stream, and the walk stops one
    level above the leaves: it builds the floorplans of up to n - 1 = 6
    rooms, and a leaf only when that leaf is a witness.  The unlimited
    search walks the ("V", 1) half of that tree (272 insertions), then
    builds the ("H", 1) child of the root and the path to its first
    six-room floorplan with the siblings on it (3 + 4 + 5 + 6), where it
    stops; each of the 4 walked witnesses takes one insertion, and
    carrying each of the 4 mirrored witnesses' lines down its code takes 6.
    A limit of one witness stops at the 241st leaf, a child of the 46th
    six-room floorplan, which the walk reaches after 65 insertions."""
    calls = []
    insert = floorplans._insert

    def counting(*args):
        calls.append(args)
        return insert(*args)

    monkeypatch.setattr(floorplans, "_insert", counting)
    monkeypatch.setattr(isoperimetric, "_insert", counting)
    search_isoperimetric(7)
    inner = sum(baxter_count(k) for k in range(2, 7))
    assert len(calls) == inner // 2 + 1 + sum(range(3, 7)) + 4 + 4 * 6 == 319
    calls.clear()
    assert search_isoperimetric(7, limit=1).examined == 241
    assert len(calls) == 65 + 1


def test_a_non_mosaic_floorplan_solves_to_a_plane():
    """The theorem needs the mosaic structure: a vertical segment that no
    room touches is free, so the solution space is a plane, and the fresh
    solve returns it as solved.  No insertion reaches such a floorplan."""
    spare = Floorplan(((0, 1, 0, 1), (0, 1, 0, 1)), 3, 2, ())
    sol = solve_isoperimetric(spare)
    assert sol.dim == 2
    assert sol == solve_linear_exact(*build_isoperimetric_system(spare))


def test_a_non_mosaic_floorplan_solves_to_a_point():
    """Three rooms of which one spans the other two pin every vertical
    segment to x0 = 0, so the solution is a single point, which the fresh
    solve returns as solved."""
    squeezed = Floorplan(((0, 1, 0, 1), (0, 2, 0, 1), (1, 2, 0, 1)), 3, 2, ())
    sol = solve_isoperimetric(squeezed)
    assert sol.dim == 0
    assert sol.point([]) == [0, 0, 0, 0, 1]
    assert sol == solve_linear_exact(*build_isoperimetric_system(squeezed))


def test_seven_room_census():
    result = search_isoperimetric(7)
    assert result.status == "witnesses"
    assert result.examined == 2074
    assert len(result.witnesses) == 8
    assert len(result.forced) == 1824
    assert len(result.residual) == 0
    assert result.certified_empty == 242
    assert result.infeasible == 0
    for w in result.witnesses:
        assert verify_layout(w.tileset, w.layout) is None
        assert len(set(w.areas)) == 7


def test_a_witness_line_is_hashable_and_immutable():
    """A witness's line holds tuples: it hashes as its fields, and its names
    and rows cannot be changed in place."""
    line = search_isoperimetric(7, 1).witnesses[0].solution
    assert hash(line) == hash(ParamSolution(list(line.names), list(line.nums), line.den))
    with pytest.raises(TypeError):
        line.nums[0][0] = 999
    with pytest.raises(TypeError):
        line.names[0] = "w9"


def test_eight_room_census():
    """Every eight-room floorplan is decided by the exact tests: its
    solution space is a line, so none is left residual."""
    result = search_isoperimetric(8)
    assert result.status == "witnesses"
    assert result.examined == 10754
    assert len(result.witnesses) == 48
    assert len(result.forced) == 8268
    assert result.certified_empty == 2438
    assert len(result.residual) == 0
    assert result.infeasible == 0
    for w in result.witnesses:
        assert verify_layout(w.tileset, w.layout) is None
        assert len(set(w.areas)) == 8
    # the exact answers, not just their count: each witness's floorplan
    # code and room areas, in search order
    canon = "\n".join(
        f"{[list(move) for move in w.floorplan.code]} {[str(a) for a in w.areas]}"
        for w in result.witnesses
    )
    assert hashlib.sha256(canon.encode()).hexdigest() == (
        "31eb994cf40352c94b6b7b82d6863fe3255e397f22ea7a76a66004623b59c8a1"
    )


def test_nine_room_census():
    """The nine-room census, the largest under the floorplan cap: every
    floorplan is decided, 104 of them with a witness."""
    result = search_isoperimetric(9)
    assert result.status == "witnesses"
    assert result.examined == 58202
    assert len(result.witnesses) == 104
    assert result.certified_empty == 19802
    assert len(result.forced) == 38296
    assert result.infeasible == 0
    assert len(result.residual) == 0
    for w in result.witnesses:
        assert verify_layout(w.tileset, w.layout) is None
        assert len(set(w.areas)) == 9


def test_two_rooms_forced_equal_widths():
    result = search_isoperimetric(2)
    assert len(result.forced) == 2
    for pair in result.forced:
        assert (pair.room_i, pair.room_j) == (0, 1)
        assert pair.relation == "w0 = w1"


def test_seven_rooms_has_witness():
    result = search_isoperimetric(7, limit=1)
    assert result.status == "witnesses"
    # the 241st floorplan in enumeration order is the first witness
    assert result.examined == 241
    assert len(result.witnesses) == 1
    w = result.witnesses[0]
    assert (w.layout.target_width, w.layout.target_height) == (
        Fraction(10, 9),
        Fraction(37, 36),
    )
    assert len(set(w.areas)) == 7
    for t in w.tileset:
        assert t.width + t.height == 1
    assert verify_layout(w.tileset, w.layout) is None
    # the layout is the point of the witness's line at its t
    coords = dict(zip(w.solution.names, w.solution.point([w.t])))
    assert coords["x0"] == coords["y0"] == 0
    assert (coords["x1"], coords["y1"]) == (w.layout.target_width, w.layout.target_height)


def test_witness_search_is_deterministic():
    a = search_isoperimetric(7, limit=1)
    b = search_isoperimetric(7, limit=1)
    assert a.examined == b.examined
    assert (a.witnesses[0].t, a.witnesses[0].solution) == (b.witnesses[0].t, b.witnesses[0].solution)


def test_search_bounds():
    with pytest.raises(ValueError):
        search_isoperimetric(0)
    with pytest.raises(ValueError):
        search_isoperimetric(1)
    with pytest.raises(UnsupportedInstance):
        search_isoperimetric(10)
    with pytest.raises(ValueError):
        search_isoperimetric(7, limit=0)


def width_forms(consts, slopes):
    """Room widths w_i = consts[i] + slopes[i] * t as affine forms (c, a)."""
    return [(Fraction(c), Fraction(a)) for c, a in zip(consts, slopes)]


def positive_widths(widths):
    """`positive_point` on every width w_i and height 1 - w_i, as the
    search calls it."""
    return positive_point(widths, 1)


def areas_at(widths, t):
    return [w * (1 - w) for w in (c + a * t for c, a in widths)]


def test_distinct_area_choice_moves_off_an_excluded_t():
    """w0 = t, w1 = 5/12, w2 = 2t - 1/3 is positive on (1/6, 2/3), whose
    midpoint 5/12 makes w0 = w1.  The next excluded value above it is
    4/9 (w0 + w2 = 1), so the witness is their midpoint 31/72."""
    widths = width_forms([0, Fraction(5, 12), Fraction(-1, 3)], [1, 0, 2])
    pp = positive_widths(widths)
    assert (pp.t, pp.interval) == (Fraction(5, 12), (Fraction(1, 6), Fraction(2, 3)))
    excluded = forced_equal_pair(widths, 1)
    assert excluded == {
        Fraction(p, q) for p, q in ((5, 12), (7, 12), (1, 3), (4, 9), (3, 8), (11, 24))
    }
    t = distinct_area_param(pp, excluded)
    assert t == Fraction(31, 72)
    assert len(set(areas_at(widths, t))) == 3
    # when the excluded t is the last one, the interval end bounds the step
    widths = width_forms([0, Fraction(1, 2)], [1, 0])
    assert distinct_area_param(positive_widths(widths), forced_equal_pair(widths, 1)) == Fraction(3, 4)
    # an interval unbounded above steps towards t + 2
    free = PositivePoint()
    assert distinct_area_param(free, {Fraction(0)}) == Fraction(1)
    assert distinct_area_param(free, {Fraction(0), Fraction(1, 2)}) == Fraction(1, 4)
    # positive_point's own t is kept when nothing excludes it
    assert distinct_area_param(free, {Fraction(1)}) == Fraction(0)


def draw_line(rng):
    """Two to six widths c + a*t, with c in (0, 1) so that the positivity
    interval is never empty: c = 1/6..5/6 and a = -6..6 over 1..4."""
    n = rng.randint(2, 6)
    consts = [Fraction(rng.randint(1, 5), 6) for _ in range(n)]
    return consts, [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]


# the fewest widths, constant, equal, at the ends of their ranges, and
# complementary
EDGE_LINES = [
    ([Fraction(1, 6)] * 2, [Fraction(0)] * 2),
    ([Fraction(1, 6), Fraction(5, 6)], [Fraction(-6), Fraction(6)]),
    ([Fraction(1, 2)] * 6,
     [Fraction(6), Fraction(-6), Fraction(1, 4), Fraction(-1, 4), Fraction(0), Fraction(0)]),
    ([Fraction(1, 6), Fraction(5, 6), Fraction(1, 2)], [Fraction(1), Fraction(-1), Fraction(0)]),
]

CHOICE_CASES = case_table(
    "test_exact_choice_on_random_lines", 300, draw_line, first=EDGE_LINES
)


def test_exact_choice_on_random_lines():
    """Every rational line gets either a pair of rooms whose areas agree
    at every t, or a t inside the positivity interval at which all areas
    w(1 - w) are positive and pairwise distinct."""
    for n, line in enumerate(CHOICE_CASES):
        with case_named(n, line):
            widths = width_forms(*line)
            pp = positive_widths(widths)
            assert not pp.certified_empty
            equal = forced_equal_pair(widths, 1)
            if isinstance(equal, ForcedPair):
                i, j = equal.room_i, equal.room_j
                # areas are quadratic in t: agreeing at three points is identity
                for t in (Fraction(0), Fraction(1), Fraction(-1)):
                    areas = areas_at(widths, t)
                    assert areas[i] == areas[j]
                continue
            t = distinct_area_param(pp, equal)
            lo, hi = pp.interval
            assert (lo is None or lo < t) and (hi is None or t < hi)
            assert all(0 < c + a * t < 1 for c, a in widths)
            assert len(set(areas_at(widths, t))) == len(widths)
            if pp.t not in equal:
                assert t == pp.t
            # every excluded t really makes two areas agree
            for e in equal:
                assert len(set(areas_at(widths, e))) < len(widths)


INTEGER_WIDTH_CASES = case_table(
    "test_integer_widths_answer_as_their_fractions", 300,
    lambda rng: (draw_line(rng), rng.random() < 0.5, rng.randint(1, 10**6)),
    first=[(line, False, 1) for line in EDGE_LINES] + [(line, True, 10**6) for line in EDGE_LINES],
)


def test_integer_widths_answer_as_their_fractions():
    """Widths given as integer numerators over one denominator, as the
    search passes them, get the same forced pair or excluded parameters
    and the same positivity interval as the Fraction widths.  A width
    complementary to w0 forces a pair w0 + w_j = 1 when nothing else does."""
    for i, (line, complement, k) in enumerate(INTEGER_WIDTH_CASES):
        with case_named(i, line, complement, k):
            widths = width_forms(*line)
            if complement:
                c, a = widths[0]
                widths.append((1 - c, -a))
            den = k * lcm(*[v.denominator for form in widths for v in form])
            ints = [(int(c * den), int(a * den)) for c, a in widths]
            assert forced_equal_pair(ints, den) == forced_equal_pair(widths, 1)
            got, want = positive_point(ints, den), positive_widths(widths)
            assert (got.interval, got.certified_empty) == (want.interval, want.certified_empty)


def segment_ids(coords, hi):
    """0 and hi are the walls (ids 0, 1); interior coordinates get 2.. in order."""
    m = {Fraction(0): 0, hi: 1}
    for k, c in enumerate(sorted(c for c in coords if c != 0 and c != hi)):
        m[c] = k + 2
    return m


def test_seven_tile_fixture_solves_after_rescaling():
    """The 24 x 18 spiral layout, rescaled so every semiperimeter is 1,
    must be a point of the exact solution space of its own floorplan."""
    seven = load_tileset(os.path.join(DATA, "seven.tiles"))
    layout = load_layout(os.path.join(DATA, "seven.json"))
    assert verify_layout(seven, layout) is None
    W, H = layout.target_width, layout.target_height

    rects = [layout.placed_rect(seven, p) for p in layout.placements]
    vmap = segment_ids({r[0] for r in rects} | {r[2] for r in rects}, W)
    hmap = segment_ids({r[1] for r in rects} | {r[3] for r in rects}, H)
    rooms = tuple(
        (vmap[x0], vmap[x1], hmap[y0], hmap[y1]) for (x0, y0, x1, y1) in rects
    )
    fp = Floorplan(rooms, len(vmap), len(hmap), ())

    sol = solve_isoperimetric(fp)
    assert sol is not None

    # semiperimeter is 39/2, so scaling by 2/39 normalizes it to 1
    scale = Fraction(2, 39)
    inv_v = {v: c for c, v in vmap.items()}
    inv_h = {v: c for c, v in hmap.items()}
    point = [inv_v[i] * scale for i in range(len(vmap))]
    point += [inv_h[i] * scale for i in range(len(hmap))]
    assert contains(sol, point)
