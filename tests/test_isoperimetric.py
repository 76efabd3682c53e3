"""Equal-semiperimeter, distinct-area tilings: impossibility and witnesses."""

import os
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexkit.kernel import ParamSolution, PositivePoint, positive_point, solve_linear_exact
from convexkit.tiling import (
    Floorplan,
    ForcedPair,
    UnsupportedInstance,
    distinct_area_params,
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


@pytest.mark.parametrize("n,step", [(1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (7, 10)])
def test_segment_solve_equals_full_system(n, step):
    """Solving over segment coordinates and lifting gives, Fraction for
    Fraction, the space an RREF solve of the full system returns."""
    for fp in enumerate_floorplans(n)[::step]:
        got = solve_isoperimetric(fp)
        want = solve_linear_exact(*full_system(fp))
        if want is None:
            assert got is None
        else:
            assert got.dim == 1
            assert (got.names, got.particular, got.basis) == (
                want.names, want.particular, want.basis
            )


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


def width_line(consts, slopes):
    """The line w_i = consts[i] + slopes[i] * t, h_i = 1 - w_i over
    (w0, h0, w1, h1, ...), with a floorplan stand-in that has no segment
    coordinates: `forced_equal_pair` reads only the room count and where
    the widths start."""
    n = len(consts)
    names = [v for i in range(n) for v in (f"w{i}", f"h{i}")]
    particular = [v for c in consts for v in (Fraction(c), 1 - Fraction(c))]
    basis = [[v for a in slopes for v in (Fraction(a), -Fraction(a))]]
    fp = Floorplan(((0, 1, 0, 1),) * n, 0, 0, ())
    return ParamSolution(names, particular, basis), fp


def areas_at(sol, params):
    point = sol.point(params)
    return [w * h for w, h in zip(point[::2], point[1::2])]


def test_distinct_area_choice_moves_off_an_excluded_t():
    """w0 = t, w1 = 5/12, w2 = 2t - 1/3 is positive on (1/6, 2/3), whose
    midpoint 5/12 makes w0 = w1.  The next excluded value above it is
    4/9 (w0 + w2 = 1), so the witness is their midpoint 31/72."""
    sol, fp = width_line([0, Fraction(5, 12), Fraction(-1, 3)], [1, 0, 2])
    pp = positive_point(sol, range(6))
    assert (pp.params, pp.interval) == ([Fraction(5, 12)], (Fraction(1, 6), Fraction(2, 3)))
    excluded = forced_equal_pair(sol, fp)
    assert excluded == {
        Fraction(p, q) for p, q in ((5, 12), (7, 12), (1, 3), (4, 9), (3, 8), (11, 24))
    }
    params = distinct_area_params(pp, excluded)
    assert params == [Fraction(31, 72)]
    assert len(set(areas_at(sol, params))) == 3
    # when the excluded t is the last one, the interval end bounds the step
    sol, fp = width_line([0, Fraction(1, 2)], [1, 0])
    pp = positive_point(sol, range(4))
    assert distinct_area_params(pp, forced_equal_pair(sol, fp)) == [Fraction(3, 4)]
    # an interval unbounded above steps towards t + 2
    free = PositivePoint([], params=[Fraction(0)], interval=(None, None))
    assert distinct_area_params(free, {Fraction(0)}) == [Fraction(1)]
    assert distinct_area_params(free, {Fraction(0), Fraction(1, 2)}) == [Fraction(1, 4)]
    # positive_point's own t is kept when nothing excludes it
    assert distinct_area_params(free, {Fraction(1)}) == [Fraction(0)]


# widths in (0, 1) at t = 0, so the positivity interval is never empty
consts = st.builds(Fraction, st.integers(1, 5), st.just(6))
slopes = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 6).flatmap(
    lambda n: st.tuples(st.lists(consts, min_size=n, max_size=n),
                        st.lists(slopes, min_size=n, max_size=n))
))
def test_exact_choice_on_random_lines(line):
    """Every rational line gets either a pair of rooms whose areas agree
    at every t, or a t inside the positivity interval at which all areas
    w(1 - w) are positive and pairwise distinct."""
    sol, fp = width_line(*line)
    pp = positive_point(sol, range(2 * fp.n))
    assert not pp.certified_empty
    equal = forced_equal_pair(sol, fp)
    if isinstance(equal, ForcedPair):
        i, j = equal.room_i, equal.room_j
        # areas are quadratic in t: agreeing at three points is identity
        for t in (Fraction(0), Fraction(1), Fraction(-1)):
            areas = areas_at(sol, [t])
            assert areas[i] == areas[j]
        return
    params = distinct_area_params(pp, equal)
    (t,), (lo, hi) = params, pp.interval
    assert (lo is None or lo < t) and (hi is None or t < hi)
    assert all(v > 0 for v in sol.point(params))
    areas = areas_at(sol, params)
    assert len(set(areas)) == fp.n
    if pp.params[0] not in equal:
        assert params == pp.params
    # every excluded t really makes two areas agree
    for e in equal:
        assert len(set(areas_at(sol, [e]))) < fp.n


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
    for x0, y0, x1, y1 in rects:
        point += [(x1 - x0) * scale, (y1 - y0) * scale]
    assert sol.contains(point)
