"""Exact linear algebra over the rationals.

Solves A x = b by Gauss-Jordan elimination over Fraction (`_rref`, the one
elimination routine here): each pivot row is scaled and subtracted only at
its nonzero entries, so a sparse system costs what its nonzeros cost.  The
solution space comes back in reduced row echelon form, which is unique for
a given solution set and column order.  The module also searches affine
solution spaces for points whose chosen coordinates are all strictly
positive. The positivity search runs Fourier-Motzkin elimination,
which doubles as an exact emptiness certificate for the open polytope.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

MAX_FREE_DIMS = 8
_FM_CONSTRAINT_CAP = 50_000


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

    `point` is a full coordinate vector when found. When absent,
    `certified_empty` says whether emptiness was proven exactly (elimination
    completed) or the search merely gave up (sampling fallback).
    """

    point: Optional[list[Fraction]]
    certified_empty: bool = False
    attempts: int = 0
    params: Optional[list[Fraction]] = None


class EliminationOverflow(RuntimeError):
    pass


def _fm_feasible_point(constraints: list[tuple[tuple[Fraction, ...], Fraction]],
                       dim: int) -> Optional[list[Fraction]]:
    """Fourier-Motzkin over strict inequalities coeffs.t + const > 0.

    Returns a satisfying t, or None when the system is (exactly) infeasible.
    Raises EliminationOverflow if intermediate systems blow past the cap.
    """
    def normalized(cs):
        seen = {}
        for coeffs, const in cs:
            lead = next((c for c in coeffs if c != 0), None)
            scale = abs(lead) if lead is not None else (abs(const) or Fraction(1))
            key = (tuple(c / scale for c in coeffs), const / scale)
            seen[key] = (coeffs, const)
        return list(seen.values())

    levels = []  # per eliminated dim: (dim index, lowers, uppers) for back-substitution
    current = normalized(constraints)
    for d in range(dim - 1, -1, -1):
        pos, neg, rest = [], [], []
        for coeffs, const in current:
            a = coeffs[d]
            if a > 0:
                pos.append((coeffs, const))
            elif a < 0:
                neg.append((coeffs, const))
            else:
                rest.append((coeffs, const))
        for pc, pk in pos:
            for nc, nk in neg:
                # (-nc[d]) * p + pc[d] * n eliminates t_d; both multipliers > 0
                mp, mn = -nc[d], pc[d]
                coeffs = tuple(mp * a + mn * b for a, b in zip(pc, nc))
                rest.append((coeffs, mp * pk + mn * nk))
        current = normalized(rest)
        if len(current) > _FM_CONSTRAINT_CAP:
            raise EliminationOverflow(f"{len(current)} constraints at dim {d}")
        levels.append((d, pos, neg))

    for coeffs, const in current:
        if const <= 0:
            return None  # exact infeasibility certificate

    t = [Fraction(0)] * dim
    for d, pos, neg in reversed(levels):
        lowers = []
        uppers = []
        for coeffs, const in pos:  # a t_d + rest > 0, a > 0 -> t_d > -(rest)/a
            restval = const + sum(coeffs[j] * t[j] for j in range(dim) if j != d)
            lowers.append(-restval / coeffs[d])
        for coeffs, const in neg:
            restval = const + sum(coeffs[j] * t[j] for j in range(dim) if j != d)
            uppers.append(-restval / coeffs[d])
        lo = max(lowers) if lowers else None
        hi = min(uppers) if uppers else None
        if lo is None and hi is None:
            t[d] = Fraction(0)
        elif lo is None:
            t[d] = hi - 1
        elif hi is None:
            t[d] = lo + 1
        else:
            t[d] = (lo + hi) / 2
    return t


def positive_point(
    solution: ParamSolution,
    positive_indices: Sequence[int],
    max_attempts: int = 100_000,
    seed: int = 0,
) -> PositivePoint:
    """Find a point in the space with the chosen coordinates all > 0.

    Dimension above MAX_FREE_DIMS is an unsupported instance and raises.
    The elimination path is exact; only the rare blowup fallback samples.
    """
    dim = solution.dim
    if dim > MAX_FREE_DIMS:
        raise ValueError(f"solution space dimension {dim} exceeds {MAX_FREE_DIMS}")

    constraints = []
    for idx in positive_indices:
        const, coeffs = solution.coordinate_form(idx)
        constraints.append((tuple(coeffs), const))

    if dim == 0:
        ok = all(const > 0 for _, const in constraints)
        pt = solution.point([]) if ok else None
        return PositivePoint(pt, certified_empty=not ok)

    try:
        t = _fm_feasible_point(constraints, dim)
    except EliminationOverflow:
        rng = random.Random(seed)
        for attempt in range(1, max_attempts + 1):
            cand = [Fraction(rng.randint(-10_000, 10_000), rng.randint(1, 1_000))
                    for _ in range(dim)]
            if all(const + sum(c * v for c, v in zip(coeffs, cand)) > 0
                   for coeffs, const in constraints):
                return PositivePoint(solution.point(cand), attempts=attempt, params=cand)
        return PositivePoint(None, certified_empty=False, attempts=max_attempts)

    if t is None:
        return PositivePoint(None, certified_empty=True)
    return PositivePoint(solution.point(t), params=t)
