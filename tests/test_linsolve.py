import random
from fractions import Fraction
from math import lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from convexkit.kernel.linsolve import ParamSolution, positive_point, solve_linear_exact
from reference import contains

F = Fraction


def test_unique_solution():
    # x + y = 3, x - y = 1  ->  (2, 1)
    sol = solve_linear_exact([[F(1), F(1)], [F(1), F(-1)]], [F(3), F(1)])
    assert sol is not None and sol.dim == 0
    assert sol.point([]) == [F(2), F(1)]


def test_point_space_membership():
    # dim 0: the space is the single solution point
    sol = solve_linear_exact([[F(1), F(1)], [F(1), F(-1)]], [F(3), F(1)])
    assert contains(sol, [F(2), F(1)])
    assert not contains(sol, [F(2), F(2)])


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
        assert contains(sol, pt)
    assert not contains(sol, [F(1), F(1), F(1)])


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
        assert contains(sol, target)


def line_forms(sol):
    """Every coordinate of a solved line as an affine form (c, a): c + a*t."""
    return list(zip(sol.particular, sol.basis[0]))


def test_positive_point_found_on_open_region():
    # x + y = 1 with both positive: plenty of room
    sol = solve_linear_exact([[F(1), F(1)]], [F(1)])
    res = positive_point(line_forms(sol))
    assert res.t is not None
    point = sol.point([res.t])
    assert all(v > 0 for v in point)
    assert contains(sol, point)


def test_positive_point_certifies_empty():
    # x + y = 0 forces opposite signs
    sol = solve_linear_exact([[F(1), F(1)]], [F(0)])
    res = positive_point(line_forms(sol))
    assert res.t is None
    assert res.certified_empty


def test_positive_point_zero_dim():
    """Forms that do not move with t, as on a single point, are decided
    by their constants alone."""
    res = positive_point([(F(2), F(0)), (F(3), F(0))])
    assert (res.t, res.interval, res.certified_empty) == (F(0), (None, None), False)
    res2 = positive_point([(F(2), F(0)), (F(-3), F(0))])
    assert res2.t is None and res2.certified_empty
    assert positive_point([]).t == 0


def test_positive_point_builds_fractions_only_when_read():
    """Int forms leave the interval's ends as int pairs; the Fraction
    interval and t are built when first read, as only a witness does."""
    res = positive_point([(2, 1), (3, -1), (8, 2)])
    assert (res.lo, res.hi, res.certified_empty) == ((-2, 1), (3, 1), False)
    assert "interval" not in vars(res) and "t" not in vars(res)
    assert (res.interval, res.t) == ((F(-2), F(3)), F(1, 2))


def test_positive_point_parameter_rule():
    """The witness parameter: the midpoint of a bounded interval, one past
    the finite end of a half-line, and 0 when nothing bounds it."""
    rising, falling, const = (F(2), F(1)), (F(3), F(-1)), (F(4), F(0))
    cases = [
        ([rising, falling], F(1, 2)),  # -2 < t < 3
        ([rising], F(-1)),             # t > -2
        ([falling], F(2)),             # t < 3
        ([const], F(0)),               # 4 does not involve t
    ]
    for forms, t in cases:
        res = positive_point(forms)
        assert (res.t, res.certified_empty, res.attempts) == (t, False, 0)
        assert all(c + a * t > 0 for c, a in forms)
    # an empty interval, and a constant form that is not positive
    for forms in ([(F(1), F(1)), (F(-1), F(-1))], [(F(0), F(0))]):
        res = positive_point(forms)
        assert (res.t, res.interval, res.certified_empty) == (None, None, True)


small_fractions = st.builds(F, st.integers(-4, 4), st.integers(1, 3))
# a slope of 0 half the time, so constant forms mix with moving ones
slopes = st.one_of(st.just(F(0)), small_fractions)


def oracle_has_positive_point(forms):
    """Exhaustive check over the parameters where the sign pattern can
    change: between consecutive breakpoints -c/a, and beyond both ends."""
    breaks = sorted({-c / a for c, a in forms if a != 0})
    if breaks:
        candidates = [breaks[0] - 1, breaks[-1] + 1]
        candidates += [(x + y) / 2 for x, y in zip(breaks, breaks[1:])]
    else:
        candidates = [F(0)]
    return any(all(c + a * t > 0 for c, a in forms) for t in candidates)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(small_fractions, slopes), max_size=6))
def test_positive_point_is_exact_on_points_and_lines(forms):
    res = positive_point(forms)
    assert res.attempts == 0
    if res.certified_empty:
        assert res.t is None
        assert not oracle_has_positive_point(forms)
    else:
        lo, hi = res.interval
        assert (lo is None or lo < res.t) and (hi is None or res.t < hi)
        assert all(c + a * res.t > 0 for c, a in forms)


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


entries = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.builds(F, st.integers(-3, 3), st.integers(1, 4)),
    st.builds(F, st.integers(-10**20, 10**20), st.integers(1, 10**20)),
)


@st.composite
def systems(draw):
    """Rows of ints and Fractions, some with large denominators.  Half of
    the systems get one more row: a rational combination of two others,
    which makes them rank-deficient, and inconsistent when its right-hand
    side is then shifted."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    rows = [draw(st.lists(entries, min_size=n + 1, max_size=n + 1)) for _ in range(m)]
    if draw(st.booleans()):
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        a, b = draw(small_fractions), draw(small_fractions)
        row = [a * u + b * v for u, v in zip(rows[i], rows[j])]
        row[-1] += draw(st.sampled_from([0, 1, F(-1, 10**9)]))
        rows.insert(draw(st.integers(0, m)), row)
    return [row[:-1] for row in rows], [row[-1] for row in rows]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(systems())
def test_integer_solve_matches_dense_reference(system):
    """The fraction-free solve returns, Fraction for Fraction, the RREF
    space of the dense Fraction reference, or None exactly when it does."""
    matrix, rhs = system
    sol = solve_linear_exact(matrix, rhs)
    ref = dense_solve(matrix, rhs)
    if ref is None:
        assert sol is None
    else:
        assert (sol.particular, sol.basis) == ref
        assert all(type(v) is int for row in sol.nums for v in row)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(systems(), st.data())
def test_same_solution_space_compares_equal(system, data):
    """Permuting the rows, or scaling one row by a nonzero rational, keeps
    the solution space, so the solves compare equal as ParamSolutions."""
    matrix, rhs = system
    sol = solve_linear_exact(matrix, rhs)
    order = data.draw(st.permutations(range(len(matrix))))
    assert solve_linear_exact([matrix[i] for i in order], [rhs[i] for i in order]) == sol
    k = data.draw(st.integers(0, len(matrix) - 1))
    f = data.draw(small_fractions.filter(bool))
    scaled = [[f * v for v in row] if i == k else row for i, row in enumerate(matrix)]
    scaled_rhs = [f * b if i == k else b for i, b in enumerate(rhs)]
    assert solve_linear_exact(scaled, scaled_rhs) == sol


def test_param_solution_is_kept_in_lowest_terms():
    """Numerators and denominator are divided by their common gcd and the
    denominator made positive, so equal spaces have equal fields."""
    sol = ParamSolution(["x", "y"], [[2, -4], [6, 0]], -8)
    assert (sol.nums, sol.den) == ([[-1, 2], [-3, 0]], 4)
    assert sol == ParamSolution(["x", "y"], [[-1, 2], [-3, 0]], 4)
    assert sol != ParamSolution(["x", "z"], [[-1, 2], [-3, 0]], 4)
    assert sol != ParamSolution(["x", "y"], [[-1, 2], [-3, 0]], 5)
    assert sol.particular == [F(-1, 4), F(1, 2)]
    assert sol.basis == [[F(-3, 4), F(0)]]
    assert sol.point([F(1, 3)]) == [F(-1, 2), F(1, 2)]
    assert contains(sol, [F(-1, 2), F(1, 2)]) and not contains(sol, [F(0), F(0)])


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(small_fractions, slopes), max_size=6), st.integers(1, 10**12))
def test_positive_point_ignores_a_common_positive_scale(forms, k):
    """Multiplying every form by one positive integer moves no end of the
    positivity interval, and int forms answer as their Fraction equals."""
    res = positive_point(forms)
    key = (res.interval, res.t, res.certified_empty)
    scaled = positive_point([(k * c, k * a) for c, a in forms])
    assert (scaled.interval, scaled.t, scaled.certified_empty) == key
    den = lcm(*[v.denominator for form in forms for v in form])
    ints = [(int(c * den), int(a * den)) for c, a in forms]
    assert (positive_point(ints).interval, positive_point(ints).t) == key[:2]
    assert positive_point(ints) == positive_point([(F(c), F(a)) for c, a in ints])
