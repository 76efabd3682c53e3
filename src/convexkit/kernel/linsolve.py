"""Exact linear algebra over the rationals.

Solves A x = b by Gauss-Jordan elimination over Fraction (`_rref`, the one
elimination routine here): each pivot row is scaled and subtracted only at
its nonzero entries, so a sparse system costs what its nonzeros cost.  The
solution space comes back in reduced row echelon form, which is unique for
a given solution set and column order.  The module also searches a line
for a parameter t at which given affine forms c + a*t are all strictly
positive.  Each form is positive on an open half-line of t, everywhere or
nowhere, so the search is one exact interval intersection, and an empty
intersection is an exact emptiness certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence


@dataclass
class ParamSolution:
    """Affine solution space: point(t) = particular + sum_i t_i * basis[i]."""

    names: list[str]
    particular: list[Fraction]
    basis: list[list[Fraction]]  # one row per free parameter

    @property
    def dim(self) -> int:
        return len(self.basis)

    def point(self, params: Sequence[Fraction]) -> list[Fraction]:
        if len(params) != self.dim:
            raise ValueError(f"expected {self.dim} parameters, got {len(params)}")
        out = list(self.particular)
        for t, row in zip(params, self.basis):
            if t:
                for j, rj in enumerate(row):
                    out[j] += t * rj
        return out

    def contains(self, point: Sequence[Fraction]) -> bool:
        """Exact membership test: does some parameter choice hit `point`?"""
        if len(point) != len(self.particular):
            raise ValueError("point length mismatch")
        rhs = [Fraction(p) - q for p, q in zip(point, self.particular)]
        # Some t solves basis^T t = rhs exactly when that system is consistent.
        basis_t = [[row[j] for row in self.basis] for j in range(len(rhs))]
        return solve_linear_exact(basis_t, rhs) is not None


def _rref(rows: list[list[Fraction]], ncols: int) -> list[int]:
    """Reduce `rows` in place to reduced row echelon form, pivoting on the
    first `ncols` columns only (later columns, such as a right-hand side,
    are carried along).  Returns the pivot columns; row i holds pivot i.

    Only the nonzero entries of the pivot row are scaled and subtracted:
    v - f*0 is v, so skipping them leaves every Fraction unchanged."""
    m = len(rows)
    pivot_cols: list[int] = []
    r = 0
    for c in range(ncols):
        if r == m:
            break
        pr = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        nz = [j for j in range(c, len(prow)) if prow[j] != 0]
        pv = prow[c]
        for j in nz:
            prow[j] /= pv
        for i in range(m):
            row = rows[i]
            f = row[c]
            if i != r and f != 0:
                for j in nz:
                    row[j] -= f * prow[j]
        pivot_cols.append(c)
        r += 1
    return pivot_cols


def solve_linear_exact(
    matrix: Sequence[Sequence[Fraction]],
    rhs: Sequence[Fraction],
    names: Optional[Sequence[str]] = None,
) -> Optional[ParamSolution]:
    """Exact RREF solve. Returns the affine solution space, or None if infeasible."""
    m = len(matrix)
    if m != len(rhs):
        raise ValueError("matrix/rhs row count mismatch")
    n = len(matrix[0]) if m else 0
    if any(len(row) != n for row in matrix):
        raise ValueError("ragged matrix")
    var_names = list(names) if names is not None else [f"x{i}" for i in range(n)]
    if len(var_names) != n:
        raise ValueError("names length mismatch")

    rows = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    pivot_cols = _rref(rows, n)
    for row in rows[len(pivot_cols):]:
        if row[n] != 0:
            return None  # 0 = nonzero row: infeasible

    free_cols = [c for c in range(n) if c not in pivot_cols]
    particular = [Fraction(0)] * n
    for i, c in enumerate(pivot_cols):
        particular[c] = rows[i][n]
    basis = []
    for fc in free_cols:
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for i, c in enumerate(pivot_cols):
            vec[c] = -rows[i][fc]
        basis.append(vec)
    return ParamSolution(var_names, particular, basis)


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
    0 when nothing bounds t.
    """
    lows: list[Fraction] = []
    highs: list[Fraction] = []
    for c, a in forms:
        if a == 0:
            if c <= 0:
                return PositivePoint(None, certified_empty=True)
        else:
            (lows if a > 0 else highs).append(-c / a)

    lo, hi = max(lows, default=None), min(highs, default=None)
    if lo is not None and hi is not None and lo >= hi:
        return PositivePoint(None, certified_empty=True)
    if lo is None:
        t = Fraction(0) if hi is None else hi - 1
    else:
        t = lo + 1 if hi is None else (lo + hi) / 2
    return PositivePoint(t, interval=(lo, hi))
