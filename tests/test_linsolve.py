import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexkit.kernel.linsolve import (
    MAX_FREE_DIMS,
    ParamSolution,
    positive_point,
    solve_linear_exact,
)

F = Fraction


def test_unique_solution():
    # x + y = 3, x - y = 1  ->  (2, 1)
    sol = solve_linear_exact([[F(1), F(1)], [F(1), F(-1)]], [F(3), F(1)])
    assert sol is not None and sol.dim == 0
    assert sol.point([]) == [F(2), F(1)]


def test_point_space_membership():
    # dim 0: the space is the single solution point
    sol = solve_linear_exact([[F(1), F(1)], [F(1), F(-1)]], [F(3), F(1)])
    assert sol.contains([F(2), F(1)])
    assert not sol.contains([F(2), F(2)])


def test_infeasible_returns_none():
    sol = solve_linear_exact([[F(1), F(1)], [F(2), F(2)]], [F(1), F(3)])
    assert sol is None


def test_underdetermined_space_contains_its_points():
    # x + y + z = 6 leaves a 2-parameter family
    sol = solve_linear_exact([[F(1), F(1), F(1)]], [F(6)])
    assert sol.dim == 2
    rng = random.Random(0)
    for _ in range(50):
        params = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(2)]
        pt = sol.point(params)
        assert sum(pt) == 6
        assert sol.contains(pt)
    assert not sol.contains([F(1), F(1), F(1)])


def test_coordinate_form_reconstructs_coordinates():
    sol = solve_linear_exact([[F(1), F(2), F(0)], [F(0), F(0), F(1)]], [F(4), F(5)])
    rng = random.Random(1)
    for _ in range(20):
        params = [F(rng.randint(-20, 20)) for _ in range(sol.dim)]
        pt = sol.point(params)
        for i in range(3):
            const, coeffs = sol.coordinate_form(i)
            assert const + sum(c * p for c, p in zip(coeffs, params)) == pt[i]


def test_random_consistent_systems_solve_exactly():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(2, 5)
        m = rng.randint(1, n + 1)
        target = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
        matrix = [[F(rng.randint(-4, 4)) for _ in range(n)] for _ in range(m)]
        rhs = [sum(a * t for a, t in zip(row, target)) for row in matrix]
        sol = solve_linear_exact(matrix, rhs)
        assert sol is not None
        assert sol.contains(target)


def test_positive_point_found_on_open_region():
    # x + y = 1 with both positive: plenty of room
    sol = solve_linear_exact([[F(1), F(1)]], [F(1)])
    res = positive_point(sol, [0, 1])
    assert res.point is not None
    assert all(v > 0 for v in res.point)
    assert sol.contains(res.point)


def test_positive_point_certifies_empty():
    # x + y = 0 forces opposite signs
    sol = solve_linear_exact([[F(1), F(1)]], [F(0)])
    res = positive_point(sol, [0, 1])
    assert res.point is None
    assert res.certified_empty


def test_positive_point_zero_dim():
    sol = solve_linear_exact([[F(1), F(0)], [F(0), F(1)]], [F(2), F(3)])
    res = positive_point(sol, [0, 1])
    assert res.point == [F(2), F(3)]
    bad = solve_linear_exact([[F(1), F(0)], [F(0), F(1)]], [F(2), F(-3)])
    res2 = positive_point(bad, [0, 1])
    assert res2.point is None and res2.certified_empty


def test_positive_point_parameter_rule():
    """The witness parameter: the midpoint of a bounded interval, one past
    the finite end of a half-line, and 0 when nothing bounds it."""
    line = ParamSolution(["a", "b", "c"], [F(2), F(3), F(4)], [[F(1), F(-1), F(0)]])
    cases = [
        ([0, 1], F(1, 2)),  # -2 < t < 3
        ([0], F(-1)),       # t > -2
        ([1], F(2)),        # t < 3
        ([2], F(0)),        # c = 4 does not involve t
    ]
    for indices, t in cases:
        res = positive_point(line, indices)
        assert (res.params, res.certified_empty, res.attempts) == ([t], False, 0)
        assert res.point == line.point([t])
    # an empty interval, and a constant coordinate that is not positive
    shifted = ParamSolution(["a", "b", "c"], [F(1), F(-1), F(0)], [[F(1), F(-1), F(0)]])
    for indices in ([0, 1], [2]):
        res = positive_point(shifted, indices)
        assert (res.point, res.params, res.certified_empty) == (None, None, True)


small_fractions = st.builds(F, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def spaces_of_dim_at_most_one(draw):
    k = draw(st.integers(1, 6))
    particular = draw(st.lists(small_fractions, min_size=k, max_size=k))
    dim = draw(st.integers(0, 1))
    basis = [draw(st.lists(small_fractions, min_size=k, max_size=k)) for _ in range(dim)]
    indices = draw(st.lists(st.integers(0, k - 1), unique=True, max_size=k))
    return ParamSolution([f"x{i}" for i in range(k)], particular, basis), indices


def oracle_has_positive_point(sol, indices):
    """Exhaustive check over the parameters where the sign pattern can
    change: between consecutive breakpoints -c/a, and beyond both ends."""
    forms = [sol.coordinate_form(i) for i in indices]
    if sol.dim == 0:
        return all(c > 0 for c, _ in forms)
    breaks = sorted({-c / a[0] for c, a in forms if a[0] != 0})
    if breaks:
        candidates = [breaks[0] - 1, breaks[-1] + 1]
        candidates += [(x + y) / 2 for x, y in zip(breaks, breaks[1:])]
    else:
        candidates = [F(0)]
    return any(all(c + a[0] * t > 0 for c, a in forms) for t in candidates)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(spaces_of_dim_at_most_one())
def test_positive_point_is_exact_on_points_and_lines(case):
    sol, indices = case
    res = positive_point(sol, indices)
    assert res.attempts == 0
    if res.certified_empty:
        assert res.point is None
        assert not oracle_has_positive_point(sol, indices)
    else:
        assert res.point == sol.point(res.params)
        assert sol.contains(res.point)
        assert all(res.point[i] > 0 for i in indices)


def test_dimension_cap_enforced():
    n = MAX_FREE_DIMS + 2
    sol = solve_linear_exact([[F(1)] * n], [F(1)])
    assert sol.dim == n - 1 > MAX_FREE_DIMS
    with pytest.raises(ValueError):
        positive_point(sol, list(range(n)))


def test_param_solution_names_survive():
    sol = solve_linear_exact([[F(1), F(1)]], [F(2)], names=["w0", "h0"])
    assert isinstance(sol, ParamSolution)
    assert sol.names == ["w0", "h0"]


def dense_solve(matrix, rhs):
    """Reference Gauss-Jordan solve that updates every entry, zeros too."""
    m, n = len(matrix), len(matrix[0])
    rows = [[F(v) for v in row] + [F(b)] for row, b in zip(matrix, rhs)]
    pivots, r = [], 0
    for c in range(n):
        pr = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        rows[r] = [v / rows[r][c] for v in rows[r]]
        for i in range(m):
            if i != r:
                f = rows[i][c]
                rows[i] = [v - f * p for v, p in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    if any(row[n] != 0 for row in rows[r:]):
        return None
    particular = [F(0)] * n
    for i, c in enumerate(pivots):
        particular[c] = rows[i][n]
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        vec = [F(0)] * n
        vec[fc] = F(1)
        for i, c in enumerate(pivots):
            vec[c] = -rows[i][fc]
        basis.append(vec)
    return particular, basis


def random_sparse_system(rng, m, n):
    matrix = [
        [F(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.3 else F(0)
         for _ in range(n)]
        for _ in range(m)
    ]
    return matrix, [F(rng.randint(-5, 5)) for _ in range(m)]


def test_sparse_solve_matches_dense_reference():
    rng = random.Random(11)
    outcomes = set()
    for _ in range(300):
        matrix, rhs = random_sparse_system(rng, rng.randint(1, 7), rng.randint(1, 8))
        sol = solve_linear_exact(matrix, rhs)
        ref = dense_solve(matrix, rhs)
        outcomes.add(sol is None)
        if ref is None:
            assert sol is None
        else:
            assert (sol.particular, sol.basis) == ref
    assert outcomes == {True, False}


def test_canonical_form_is_unique():
    """Any parametrization of a solved space canonicalizes back to the
    solver's own form, which is canonical already."""
    rng = random.Random(13)
    checked = 0
    for _ in range(200):
        matrix, rhs = random_sparse_system(rng, rng.randint(1, 5), rng.randint(2, 8))
        sol = solve_linear_exact(matrix, rhs)
        if sol is None or sol.dim == 0:
            continue
        assert sol.canonical() == sol
        mix = [[F(rng.randint(-4, 4)) for _ in range(sol.dim)] for _ in range(sol.dim + 1)]
        basis = [[sum((c * b[j] for c, b in zip(cs, sol.basis)), F(0))
                  for j in range(len(sol.particular))] for cs in mix]
        particular = sol.point([F(rng.randint(-9, 9), 7) for _ in range(sol.dim)])
        other = ParamSolution(sol.names, particular, basis)
        if other.canonical().dim < sol.dim:
            continue  # the random mix lost rank: another space
        assert other.canonical() == sol
        checked += 1
    assert checked > 50
