"""Exact linear algebra over the rationals, computed in integers.

Solves A x = b by fraction-free (Bareiss) Gauss-Jordan elimination over the
rows cleared of denominators (`_rref`, the one elimination routine here).
The solution space comes back in reduced row echelon form, unique for a
given solution set and column order, as ints over one denominator.  The
module also searches a line for a parameter t at which given affine forms
c + a*t are all strictly positive.  Each form is positive on an open
half-line of t, everywhere or nowhere, so the search is one exact interval
intersection, and an empty intersection is an exact emptiness certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence


@dataclass
class ParamSolution:
    """Affine solution space: point(t) = particular + sum_i t_i * basis[i].

    Stored as ints over one denominator `den` > 0, in lowest terms, so equal
    fields mean equal spaces; `particular` and `basis` are Fraction views."""

    names: list[str]
    nums: list[list[int]]  # the particular point, then one row per free parameter
    den: int

    def __post_init__(self):
        g = gcd(self.den, *(v for row in self.nums for v in row))
        g = -g if self.den < 0 else g
        self.nums = [[v // g for v in row] for row in self.nums]
        self.den //= g

    @property
    def dim(self) -> int:
        return len(self.nums) - 1

    @property
    def particular(self) -> list[Fraction]:
        return [Fraction(v, self.den) for v in self.nums[0]]

    @property
    def basis(self) -> list[list[Fraction]]:
        return [[Fraction(v, self.den) for v in row] for row in self.nums[1:]]

    def point(self, params: Sequence[Fraction]) -> list[Fraction]:
        if len(params) != self.dim:
            raise ValueError(f"expected {self.dim} parameters, got {len(params)}")
        out = self.particular
        for t, row in zip(params, self.basis):
            out = [v + t * rj for v, rj in zip(out, row)]
        return out

    def contains(self, point: Sequence[Fraction]) -> bool:
        """Exact membership test: does some parameter choice hit `point`?"""
        if len(point) != len(self.nums[0]):
            raise ValueError("point length mismatch")
        # Some t solves basis^T t = point - particular iff it is consistent.
        rhs = [Fraction(p) * self.den - q for p, q in zip(point, self.nums[0])]
        basis_t = [[row[j] for row in self.nums[1:]] for j in range(len(rhs))]
        return solve_linear_exact(basis_t, rhs) is not None


def _rref(rows: list[list[int]], ncols: int) -> tuple[list[int], int]:
    """Reduce the int `rows` in place by fraction-free Gauss-Jordan
    elimination on the first `ncols` columns (later ones, such as a
    right-hand side, are carried along).  Returns the pivot columns (row i
    holds pivot i) and the last pivot d > 0.  Each step makes its pivot
    positive and sets every other row to (pivot*row - row[c]*pivot_row) /
    d_prev, an exact division (each entry is a minor), so every pivot ends
    equal to d and the RREF entry is row[j] / d.  A positive pivot of a 0/±1
    system often equals d_prev, and then a row with row[c] = 0 stays as is."""
    m = len(rows)
    pivot_cols: list[int] = []
    d = 1
    for c in range(ncols):
        r = len(pivot_cols)
        if r == m:
            break
        pr = next((i for i in range(r, m) if rows[i][c]), None)
        if pr is None:
            continue
        prow = rows[pr] if rows[pr][c] > 0 else [-v for v in rows[pr]]
        rows[pr], rows[r] = rows[r], prow
        pv = prow[c]
        for i in range(m):
            f = rows[i][c]
            if i == r or (not f and pv == d):
                continue
            rows[i] = [(pv * v - f * p) // d for v, p in zip(rows[i], prow)]
        pivot_cols.append(c)
        d = pv
    return pivot_cols, d


def solve_linear_exact(
    matrix: Sequence[Sequence[Fraction]],
    rhs: Sequence[Fraction],
    names: Optional[Sequence[str]] = None,
) -> Optional[ParamSolution]:
    """Exact RREF solve over ints or Fractions. Returns the affine solution
    space, or None if infeasible."""
    m = len(matrix)
    if m != len(rhs):
        raise ValueError("matrix/rhs row count mismatch")
    n = len(matrix[0]) if m else 0
    if any(len(row) != n for row in matrix):
        raise ValueError("ragged matrix")
    var_names = list(names) if names is not None else [f"x{i}" for i in range(n)]
    if len(var_names) != n:
        raise ValueError("names length mismatch")

    # each row times the lcm of its denominators (an int's is 1), as ints
    rows = [[*row, b] for row, b in zip(matrix, rhs)]
    dens = [lcm(*[v.denominator for v in row]) for row in rows]
    rows = [[v.numerator * (k // v.denominator) for v in row] for row, k in zip(rows, dens)]
    pivot_cols, d = _rref(rows, n)
    if any(row[n] for row in rows[len(pivot_cols):]):
        return None  # 0 = nonzero row: infeasible

    particular = [0] * n
    for i, c in enumerate(pivot_cols):
        particular[c] = rows[i][n]
    basis = []
    for fc in (c for c in range(n) if c not in pivot_cols):
        vec = [0] * n
        vec[fc] = d
        for i, c in enumerate(pivot_cols):
            vec[c] = -rows[i][fc]
        basis.append(vec)
    return ParamSolution(var_names, [particular, *basis], d)


@dataclass
class PositivePoint:
    """Outcome of a strict-positivity search on a line.

    `t` is a parameter at which every form is positive, and `interval` the
    open interval (lo, hi) of all such parameters (None for an unbounded
    end), when one exists.  Otherwise `certified_empty` is True: the
    interval test proved exactly that no such parameter exists.  `attempts`
    counts sampled tries and is always 0, since the test samples nothing.
    """

    t: Optional[Fraction]
    certified_empty: bool = False
    attempts: int = 0
    interval: Optional[tuple[Optional[Fraction], Optional[Fraction]]] = None


def positive_point(forms: Sequence[tuple[Fraction, Fraction]]) -> PositivePoint:
    """Find a parameter t at which every affine form c + a*t is > 0.

    Form (c, a) is positive exactly on t > -c/a (a > 0), on t < -c/a
    (a < 0), or everywhere when a = 0 and c > 0.  The open interval (max
    lower, min upper) is the exact answer.  Its witness t is the midpoint
    when both ends are finite, one past the finite end of a half-line, and
    0 when nothing bounds t.  Ends are compared by cross-multiplying, so
    int forms need no Fraction until the two ends and t are built."""
    lo = hi = None  # the tightest ends so far, each as (num, den) with den > 0
    for c, a in forms:
        if a > 0:
            if lo is None or -c * lo[1] > lo[0] * a:
                lo = (-c, a)
        elif a < 0:
            if hi is None or c * hi[1] < hi[0] * -a:
                hi = (c, -a)
        elif c <= 0:
            return PositivePoint(None, certified_empty=True)

    if lo is not None and hi is not None and lo[0] * hi[1] >= hi[0] * lo[1]:
        return PositivePoint(None, certified_empty=True)
    lo, hi = (None if end is None else Fraction(*end) for end in (lo, hi))
    if lo is None:
        t = Fraction(0) if hi is None else hi - 1
    else:
        t = lo + 1 if hi is None else (lo + hi) / 2
    return PositivePoint(t, interval=(lo, hi))
