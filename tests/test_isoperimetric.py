"""Equal-semiperimeter, distinct-area tilings: impossibility and witnesses."""

import hashlib
import os
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import convexkit.tiling.isoperimetric as isoperimetric
from convexkit.kernel import PositivePoint, positive_point, solve_linear_exact
from convexkit.tiling import (
    Floorplan,
    ForcedPair,
    UnsupportedInstance,
    build_isoperimetric_system,
    distinct_area_param,
    enumerate_floorplans,
    forced_equal_pair,
    load_layout,
    load_tileset,
    search_isoperimetric,
    solve_isoperimetric,
    verify_layout,
)

DATA = os.path.join(os.path.dirname(__file__), "data")


@pytest.mark.parametrize(
    "n,examined",
    [(2, 2), (3, 6), (4, 22), (5, 92)],
)
def test_small_counts_are_certified_impossible(n, examined):
    result = search_isoperimetric(n)
    assert result.status == "exhausted-no-solution"
    assert result.examined == examined
    assert not result.witnesses
    assert not result.residual
    # every floorplan has exactly one of the five outcomes
    assert result.infeasible + result.certified_empty + len(result.forced) == examined


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


def test_plane_solution_space_counts_as_residual(monkeypatch):
    """A vertical segment that no room touches is free, so the solution
    space is a plane: it comes back as solved, and the search counts the
    floorplan as residual instead of deciding it."""
    spare = Floorplan(((0, 1, 0, 1), (0, 1, 0, 1)), 3, 2, ())
    sol = solve_isoperimetric(spare)
    assert sol.dim == 2
    assert sol == solve_linear_exact(*build_isoperimetric_system(spare))
    monkeypatch.setattr(isoperimetric, "enumerate_floorplans", lambda n: [spare])
    result = search_isoperimetric(2)
    assert (result.status, result.residual, result.examined) == ("inconclusive", (spare,), 1)


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


def test_two_rooms_forced_equal_widths():
    result = search_isoperimetric(2)
    assert len(result.forced) == 2
    for fp, pair in result.forced:
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
    # values dict mirrors the solution point
    assert w.values["x0"] == 0 and w.values["y0"] == 0
    assert w.values["x1"] == w.layout.target_width


def test_witness_search_is_deterministic():
    a = search_isoperimetric(7, limit=1)
    b = search_isoperimetric(7, limit=1)
    assert a.examined == b.examined
    assert a.witnesses[0].values == b.witnesses[0].values


def test_search_bounds():
    with pytest.raises(ValueError):
        search_isoperimetric(0)
    with pytest.raises(ValueError):
        search_isoperimetric(1)
    with pytest.raises(UnsupportedInstance):
        search_isoperimetric(9)
    with pytest.raises(ValueError):
        search_isoperimetric(7, limit=0)


def width_forms(consts, slopes):
    """Room widths w_i = consts[i] + slopes[i] * t as affine forms (c, a)."""
    return [(Fraction(c), Fraction(a)) for c, a in zip(consts, slopes)]


def positive_widths(widths):
    """`positive_point` on every width w_i and height 1 - w_i, as the
    search calls it."""
    return positive_point(widths + [(1 - c, -a) for c, a in widths])


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
    free = PositivePoint(Fraction(0), interval=(None, None))
    assert distinct_area_param(free, {Fraction(0)}) == Fraction(1)
    assert distinct_area_param(free, {Fraction(0), Fraction(1, 2)}) == Fraction(1, 4)
    # positive_point's own t is kept when nothing excludes it
    assert distinct_area_param(free, {Fraction(1)}) == Fraction(0)


# widths in (0, 1) at t = 0, so the positivity interval is never empty
consts = st.builds(Fraction, st.integers(1, 5), st.just(6))
slopes = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
lines = st.integers(2, 6).flatmap(
    lambda n: st.tuples(st.lists(consts, min_size=n, max_size=n),
                        st.lists(slopes, min_size=n, max_size=n))
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(lines)
def test_exact_choice_on_random_lines(line):
    """Every rational line gets either a pair of rooms whose areas agree
    at every t, or a t inside the positivity interval at which all areas
    w(1 - w) are positive and pairwise distinct."""
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
        return
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


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(lines, st.booleans(), st.integers(1, 10**6))
def test_integer_widths_answer_as_their_fractions(line, complement, k):
    """Widths given as integer numerators over one denominator, as the
    search passes them, get the same forced pair or excluded parameters
    and the same positivity interval as the Fraction widths.  A width
    complementary to w0 forces a pair w0 + w_j = 1 when nothing else does."""
    widths = width_forms(*line)
    if complement:
        c, a = widths[0]
        widths.append((1 - c, -a))
    den = k * lcm(*[v.denominator for form in widths for v in form])
    ints = [(int(c * den), int(a * den)) for c, a in widths]
    assert forced_equal_pair(ints, den) == forced_equal_pair(widths, 1)
    assert positive_point(ints + [(den - c, -a) for c, a in ints]) == positive_widths(widths)


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
    assert sol.contains(point)
