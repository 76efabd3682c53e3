"""Exact linear algebra over the rationals, computed in integers.

Solves A x = b by fraction-free (Bareiss) Gauss-Jordan elimination over the
rows cleared of denominators (`_rref`, the one elimination routine here).
The solution space comes back in reduced row echelon form, unique for a
given solution set and column order, as ints over one denominator.  The
module also searches a line for a parameter t at which given widths
c + a*t and their heights den - c - a*t are all strictly positive.  Each
such form is positive on an open half-line of t, everywhere or nowhere, so
the search is one exact interval intersection, and an empty intersection
is an exact emptiness certificate.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Optional, Sequence

from .. import Frozen


class ParamSolution(Frozen):
    """Affine solution space: point(t) = particular + sum_i t_i * basis[i].

    `ParamSolution(names, nums, den)`: `nums` holds the particular point,
    then one row per free parameter, as ints over one denominator `den`.
    They are stored in lowest terms with `den` > 0, so equal fields mean
    equal spaces; `particular` and `basis` are Fraction views.  `names` and
    `nums` are kept as tuples, so a solution is hashable and cannot change
    in place."""

    __slots__ = ("names", "nums", "den")

    def __post_init__(self):
        g = gcd(self.den, *(v for row in self.nums for v in row))
        g = -g if self.den < 0 else g
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "nums", tuple(tuple(v // g for v in row) for row in self.nums))
        object.__setattr__(self, "den", self.den // g)

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


class PositivePoint:
    """Outcome of a strict-positivity search on a line.

    `lo` and `hi` are the ends of the open interval of all parameters at
    which every form is positive, each as a pair (num, den) with den > 0
    (None for an unbounded end), when one exists.  Otherwise
    `certified_empty` is True: the interval test proved exactly that no
    such parameter exists.  `interval` and a parameter `t` inside it are
    their Fraction views, built on first use.  `attempts` counts sampled
    tries and is always 0, since the test samples nothing.  Two outcomes
    are equal when they have the same interval."""

    def __init__(self, lo: Optional[tuple] = None, hi: Optional[tuple] = None,
                 certified_empty: bool = False, attempts: int = 0):
        self.lo = lo
        self.hi = hi
        self.certified_empty = certified_empty
        self.attempts = attempts

    @cached_property
    def interval(self) -> Optional[tuple[Optional[Fraction], Optional[Fraction]]]:
        if self.certified_empty:
            return None
        return tuple(None if end is None else Fraction(*end) for end in (self.lo, self.hi))

    @cached_property
    def t(self) -> Optional[Fraction]:
        """The midpoint when both ends are finite, one past the finite end
        of a half-line, and 0 when nothing bounds t."""
        if self.certified_empty:
            return None
        lo, hi = self.interval
        if lo is None:
            return Fraction(0) if hi is None else hi - 1
        return lo + 1 if hi is None else (lo + hi) / 2

    def __eq__(self, other) -> bool:
        if not isinstance(other, PositivePoint):
            return NotImplemented
        return (self.interval, self.attempts) == (other.interval, other.attempts)


# the one outcome with no interval: every certified-empty answer is this instance
_EMPTY = PositivePoint(certified_empty=True)


def positive_point(widths: Sequence[tuple[Fraction, Fraction]], den) -> PositivePoint:
    """Find the parameters t at which every width w = c + a*t, given as
    (c, a), and its height den - w are > 0.

    The two forms of a width have opposite slopes, so with a > 0 (swap
    the two when a < 0) the width is positive on t > -c/a and the height
    on t < (den - c)/a; with a = 0 both are constant, and positive iff
    0 < c < den.  The open interval (max lower, min upper) is the exact
    answer.  Ends are compared by cross-multiplying, so int forms build no
    Fraction unless the caller reads `interval` or `t`.  No interval comes
    back as one shared certified-empty outcome."""
    lo = hi = None  # the tightest ends so far, each as (num, den) with den > 0
    for c, a in widths:
        if a < 0:
            c, a = den - c, -a
        elif not a:
            if 0 < c < den:
                continue
            return _EMPTY
        if lo is None or -c * lo[1] > lo[0] * a:
            lo = (-c, a)
        if hi is None or (den - c) * hi[1] < hi[0] * a:
            hi = (den - c, a)
    if lo is not None and lo[0] * hi[1] >= hi[0] * lo[1]:
        return _EMPTY
    return PositivePoint(lo, hi)
