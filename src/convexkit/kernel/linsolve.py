"""Exact linear algebra over the rationals.

Solves A x = b by Gauss-Jordan elimination over Fraction (`_rref`, the one
elimination routine here): each pivot row is scaled and subtracted only at
its nonzero entries, so a sparse system costs what its nonzeros cost.  The
solution space comes back in reduced row echelon form, which is unique for
a given solution set and column order.  The module also searches affine
solution spaces of dimension at most one, points or lines, for a point
whose chosen coordinates are all strictly positive.  On a line each such
coordinate is positive on an open half-line of the parameter, so the
search is one exact interval intersection, and an empty intersection is
an exact emptiness certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

MAX_FREE_DIMS = 1


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

    def coordinate_form(self, index: int) -> tuple[Fraction, list[Fraction]]:
        """Coordinate `index` as an affine form (const, coeffs over params)."""
        return self.particular[index], [row[index] for row in self.basis]

    def contains(self, point: Sequence[Fraction]) -> bool:
        """Exact membership test: does some parameter choice hit `point`?"""
        if len(point) != len(self.particular):
            raise ValueError("point length mismatch")
        rhs = [Fraction(p) - q for p, q in zip(point, self.particular)]
        # Some t solves basis^T t = rhs exactly when that system is consistent.
        basis_t = [[row[j] for row in self.basis] for j in range(len(rhs))]
        return solve_linear_exact(basis_t, rhs) is not None

    def canonical(self) -> "ParamSolution":
        """The same space in the form `solve_linear_exact` returns for it.

        Free columns are the trailing nonzero positions of the direction
        space; basis vector k is 1 at free column k and 0 at the other free
        columns; the particular point is 0 on every free column.  The form
        is unique for a given space and column order, so two
        parametrizations of one space give equal canonical forms."""
        n = len(self.particular)
        # RREF with the columns reversed pivots on the trailing positions
        rows = [row[::-1] for row in self.basis]
        pivots = _rref(rows, n)
        free = [n - 1 - c for c in reversed(pivots)]
        basis = [row[::-1] for row in reversed(rows[: len(pivots)])]
        particular = list(self.particular)
        for fc, vec in zip(free, basis):
            t = particular[fc]
            if t:
                particular = [p - t * v for p, v in zip(particular, vec)]
        return ParamSolution(list(self.names), particular, basis)


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
    """Outcome of a strict-positivity search over a solution space.

    `point` is a full coordinate vector, with its parameters in `params`
    and the open interval (lo, hi) of positive points in `interval` (None
    for an unbounded end), when one exists.  Otherwise `certified_empty` is
    True: the interval test proved exactly that no such point exists.
    `attempts` counts sampled tries and is always 0, since the test samples
    nothing.
    """

    point: Optional[list[Fraction]]
    certified_empty: bool = False
    attempts: int = 0
    params: Optional[list[Fraction]] = None
    interval: Optional[tuple[Optional[Fraction], Optional[Fraction]]] = None


def positive_point(solution: ParamSolution, positive_indices: Sequence[int]) -> PositivePoint:
    """Find a point in the space with the chosen coordinates all > 0.

    On a line point(t), coordinate c + a*t is positive exactly on
    t > -c/a (a > 0), on t < -c/a (a < 0), or everywhere when a = 0 and
    c > 0.  The open interval (max lower, min upper) is the exact answer.
    Its witness t is the midpoint when both ends are finite, one past the
    finite end of a half-line, and 0 when nothing bounds t.  Dimension
    above MAX_FREE_DIMS is an unsupported instance and raises.
    """
    dim = solution.dim
    if dim > MAX_FREE_DIMS:
        raise ValueError(f"solution space dimension {dim} exceeds {MAX_FREE_DIMS}")

    lows: list[Fraction] = []
    highs: list[Fraction] = []
    for idx in positive_indices:
        const, coeffs = solution.coordinate_form(idx)
        a = coeffs[0] if coeffs else 0
        if a == 0:
            if const <= 0:
                return PositivePoint(None, certified_empty=True)
        else:
            (lows if a > 0 else highs).append(-const / a)

    lo, hi = max(lows, default=None), min(highs, default=None)
    if lo is not None and hi is not None and lo >= hi:
        return PositivePoint(None, certified_empty=True)
    if dim == 0:
        t = []
    elif lo is None and hi is None:
        t = [Fraction(0)]
    elif hi is None:
        t = [lo + 1]
    elif lo is None:
        t = [hi - 1]
    else:
        t = [(lo + hi) / 2]
    return PositivePoint(solution.point(t), params=t, interval=(lo, hi))
