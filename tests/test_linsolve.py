import random
from fractions import Fraction
from math import lcm

from conftest import case_named, case_table
from convexkit.kernel.linsolve import ParamSolution, PositivePoint, positive_point, solve_linear_exact
from reference import contains, positive_forms

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
    # x + y = 1 with both positive: x is a width and y = 1 - x its height
    sol = solve_linear_exact([[F(1), F(1)]], [F(1)])
    res = positive_point(line_forms(sol)[:1], 1)
    assert res.t is not None
    point = sol.point([res.t])
    assert all(v > 0 for v in point)
    assert contains(sol, point)


def test_positive_point_certifies_empty():
    # x + y = 0 forces opposite signs: y = 0 - x is x's height over 0
    sol = solve_linear_exact([[F(1), F(1)]], [F(0)])
    res = positive_point(line_forms(sol)[:1], 0)
    assert res.t is None
    assert res.certified_empty


def test_positive_point_zero_dim():
    """Widths that do not move with t, as on a single point, are decided
    by their constants alone: each must lie strictly between 0 and den."""
    res = positive_point([(F(2), F(0)), (F(3), F(0))], F(5))
    assert (res.t, res.interval, res.certified_empty) == (F(0), (None, None), False)
    res2 = positive_point([(F(2), F(0)), (F(-3), F(0))], F(5))
    assert res2.t is None and res2.certified_empty
    assert positive_point([(F(2), F(0)), (F(5), F(0))], F(5)).certified_empty
    assert positive_point([], 1).t == 0


def test_positive_point_builds_fractions_only_when_read():
    """Int forms leave the interval's ends as int pairs; the Fraction
    interval and t are built when first read, as only a witness does."""
    res = positive_point([(2, 1), (1, -1)], 5)
    assert (res.lo, res.hi, res.certified_empty) == ((-2, 1), (1, 1), False)
    assert "interval" not in vars(res) and "t" not in vars(res)
    assert (res.interval, res.t) == ((F(-2), F(1)), F(-1, 2))


def test_positive_point_parameter_rule():
    """The witness parameter: the midpoint of a bounded interval, one past
    the finite end of a half-line, and 0 when nothing bounds it.  A width
    that moves with t bounds it on both sides, through its height, so a
    half-line comes only from a `PositivePoint` built with one end."""
    rising, falling, const = (F(2), F(1)), (F(-2), F(-1)), (F(4), F(0))
    cases = [
        ([rising], F(5), F(1, 2)),   # -2 < t < 3
        ([falling], F(1), F(-5, 2)),  # -3 < t < -2
        ([const], F(5), F(0)),       # 4 does not involve t
    ]
    for widths, den, t in cases:
        res = positive_point(widths, den)
        assert (res.t, res.certified_empty, res.attempts) == (t, False, 0)
        assert all(0 < c + a * t < den for c, a in widths)
    assert PositivePoint((-2, 1), None).t == F(-1)  # t > -2
    assert PositivePoint(None, (3, 1)).t == F(2)  # t < 3
    # an empty interval, and a constant width that is not positive
    for widths, den in (([(F(1), F(1))], F(0)), ([(F(0), F(0))], F(1))):
        res = positive_point(widths, den)
        assert (res.t, res.interval, res.certified_empty) == (None, None, True)


def draw_small_fraction(rng):
    return F(rng.randint(-4, 4), rng.randint(1, 3))


def draw_forms(rng):
    """Up to six forms c + a*t, with a slope of 0 half the time, so that
    constant forms mix with moving ones."""
    return [
        (draw_small_fraction(rng), F(0) if rng.random() < 0.5 else draw_small_fraction(rng))
        for _ in range(rng.randint(0, 6))
    ]


# no form; constant forms at 0, inside (0, 1) and at 1; and two forms whose
# interval closes to the point t = 1/2
EDGE_FORMS = [
    [],
    [(F(0), F(0))],
    [(F(1, 2), F(0))],
    [(F(1), F(0))],
    [(F(0), F(2)), (F(-1), F(2))],
    [(F(1, 2), F(0)), (F(0), F(2)), (F(3, 2), F(-2))],
]


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


EXACT_CASES = case_table(
    "test_positive_point_is_exact_on_points_and_lines", 400, draw_forms, first=EDGE_FORMS
)


def test_positive_point_is_exact_on_points_and_lines():
    """The forms as widths over den = 1: the outcome is exact on all of
    them and their heights 1 - c - a*t."""
    for i, forms in enumerate(EXACT_CASES):
        with case_named(i, forms):
            res = positive_point(forms, 1)
            both = forms + [(1 - c, -a) for c, a in forms]
            assert res.attempts == 0
            if res.certified_empty:
                assert res.t is None
                assert not oracle_has_positive_point(both)
            else:
                lo, hi = res.interval
                assert (lo is None or lo < res.t) and (hi is None or res.t < hi)
                assert all(c + a * res.t > 0 for c, a in both)


def test_param_solution_names_survive():
    sol = solve_linear_exact([[F(1), F(1)]], [F(2)], names=["w0", "h0"])
    assert isinstance(sol, ParamSolution)
    assert sol.names == ("w0", "h0")


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


def draw_entry(rng):
    """0, a small int or fraction, or a fraction of up to 20 digits."""
    kind = rng.randrange(4)
    if kind == 0:
        return 0
    if kind == 1:
        return rng.randint(-3, 3)
    if kind == 2:
        return F(rng.randint(-3, 3), rng.randint(1, 4))
    return F(rng.randint(-10**20, 10**20), rng.randint(1, 10**20))


def draw_system(rng):
    """Rows of ints and Fractions, some with large denominators.  Half of
    the systems get one more row: a rational combination of two others,
    which makes them rank-deficient, and inconsistent when its right-hand
    side is then shifted."""
    m, n = rng.randint(1, 5), rng.randint(1, 5)
    rows = [[draw_entry(rng) for _ in range(n + 1)] for _ in range(m)]
    if rng.random() < 0.5:
        i, j = rng.randrange(m), rng.randrange(m)
        a, b = draw_small_fraction(rng), draw_small_fraction(rng)
        row = [a * u + b * v for u, v in zip(rows[i], rows[j])]
        row[-1] += rng.choice([0, 1, F(-1, 10**9)])
        rows.insert(rng.randint(0, m), row)
    return [row[:-1] for row in rows], [row[-1] for row in rows]


# a zero system, consistent and not; two equal rows, consistent and not;
# and a large entry alone
EDGE_SYSTEMS = [
    ([[0]], [0]),
    ([[0]], [1]),
    ([[1, 1], [1, 1]], [2, 2]),
    ([[1, 1], [1, 1]], [2, 2 + F(-1, 10**9)]),
    ([[F(10**20, 3)]], [F(-1, 10**20)]),
]

SOLVE_CASES = case_table(
    "test_integer_solve_matches_dense_reference", 400, draw_system, first=EDGE_SYSTEMS
)


def test_integer_solve_matches_dense_reference():
    """The fraction-free solve returns, Fraction for Fraction, the RREF
    space of the dense Fraction reference, or None exactly when it does."""
    for i, system in enumerate(SOLVE_CASES):
        with case_named(i, system):
            matrix, rhs = system
            sol = solve_linear_exact(matrix, rhs)
            ref = dense_solve(matrix, rhs)
            if ref is None:
                assert sol is None
            else:
                assert (sol.particular, sol.basis) == ref
                assert all(type(v) is int for row in sol.nums for v in row)


def draw_same_space_case(rng):
    """A system, an order of its rows, a row to scale and a nonzero scale."""
    system = draw_system(rng)
    m = len(system[0])
    f = draw_small_fraction(rng)
    while not f:
        f = draw_small_fraction(rng)
    return system, rng.sample(range(m), m), rng.randrange(m), f


SAME_SPACE_CASES = case_table(
    "test_same_solution_space_compares_equal", 200, draw_same_space_case,
    first=[(system, list(range(len(system[0])))[::-1], 0, F(-4, 3)) for system in EDGE_SYSTEMS],
)


def test_same_solution_space_compares_equal():
    """Permuting the rows, or scaling one row by a nonzero rational, keeps
    the solution space, so the solves compare equal as ParamSolutions."""
    for n, (system, order, k, f) in enumerate(SAME_SPACE_CASES):
        with case_named(n, system, order, k, f):
            matrix, rhs = system
            sol = solve_linear_exact(matrix, rhs)
            assert solve_linear_exact([matrix[i] for i in order], [rhs[i] for i in order]) == sol
            scaled = [[f * v for v in row] if i == k else row for i, row in enumerate(matrix)]
            scaled_rhs = [f * b if i == k else b for i, b in enumerate(rhs)]
            assert solve_linear_exact(scaled, scaled_rhs) == sol


def test_param_solution_is_kept_in_lowest_terms():
    """Numerators and denominator are divided by their common gcd and the
    denominator made positive, so equal spaces have equal fields."""
    sol = ParamSolution(("x", "y"), ((2, -4), (6, 0)), -8)
    assert (sol.nums, sol.den) == (((-1, 2), (-3, 0)), 4)
    assert sol == ParamSolution(("x", "y"), ((-1, 2), (-3, 0)), 4)
    assert sol != ParamSolution(("x", "z"), ((-1, 2), (-3, 0)), 4)
    assert sol != ParamSolution(("x", "y"), ((-1, 2), (-3, 0)), 5)
    # lists are kept as the tuples they hold
    assert ParamSolution(["x", "y"], [[2, -4], [6, 0]], -8) == sol
    assert sol.particular == [F(-1, 4), F(1, 2)]
    assert sol.basis == [[F(-3, 4), F(0)]]
    assert sol.point([F(1, 3)]) == [F(-1, 2), F(1, 2)]
    assert contains(sol, [F(-1, 2), F(1, 2)]) and not contains(sol, [F(0), F(0)])


SCALE_CASES = case_table(
    "test_positive_point_ignores_a_common_positive_scale", 400,
    lambda rng: (draw_forms(rng), rng.randint(1, 10**12)),
    first=[(forms, k) for forms in EDGE_FORMS for k in (1, 10**12)],
)


def test_positive_point_ignores_a_common_positive_scale():
    """Multiplying every width and den by one positive integer moves no end
    of the positivity interval, and int widths answer as their Fraction
    equals."""
    for i, (forms, k) in enumerate(SCALE_CASES):
        with case_named(i, forms, k):
            res = positive_point(forms, 1)
            key = (res.interval, res.t, res.certified_empty)
            scaled = positive_point([(k * c, k * a) for c, a in forms], k)
            assert (scaled.interval, scaled.t, scaled.certified_empty) == key
            den = lcm(*[v.denominator for form in forms for v in form])
            ints = [(int(c * den), int(a * den)) for c, a in forms]
            assert (positive_point(ints, den).interval, positive_point(ints, den).t) == key[:2]
            fractions = [(F(c), F(a)) for c, a in ints]
            assert positive_point(ints, den) == positive_point(fractions, F(den))


def draw_int_line(rng):
    """A random integer line: den >= 2 and up to eight widths c + a*t,
    either any or, half of the time, each between 0 and den at t = 0, so
    that the interval is open."""
    den = rng.randint(2, 40)
    low, high = (-2 * den, 2 * den) if rng.random() < 0.5 else (1, den - 1)
    return den, [(rng.randint(low, high), rng.randint(-6, 6)) for _ in range(rng.randint(0, 8))]


ONE_PASS_CASES = case_table(
    "test_one_pass_answers_as_the_widths_and_heights_as_forms", 400, draw_int_line,
    first=[
        (2, []),
        (2, [(1, 0)]),
        (2, [(2, 0)]),
        (2, [(0, 0)]),
        (2, [(0, 2), (-2, 2)]),  # the interval closes to the point t = 1
        (2, [(1, 1), (1, -1)]),
    ],
)


def test_one_pass_answers_as_the_widths_and_heights_as_forms():
    """`positive_point(widths, den)` tests each width and its height in one
    pass; it answers as the positivity test of the 2n forms one by one:
    the same emptiness, the same ends as values, and the same t."""
    for i, (den, widths) in enumerate(ONE_PASS_CASES):
        with case_named(i, den, widths):
            got = positive_point(widths, den)
            want = positive_forms(widths + [(den - c, -a) for c, a in widths])
            assert got.certified_empty == want.certified_empty
            assert (got.interval, got.t, got.attempts) == (want.interval, want.t, 0)
            if got.certified_empty:
                assert got is positive_point([(0, 0)], 1)  # the one shared empty outcome
