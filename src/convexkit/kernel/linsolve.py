"""Exact linear algebra over the rationals.

Solves A x = b by fraction-free-ish Gaussian elimination (plain Fraction
pivoting; sizes here are tens of variables, so clarity beats Bareiss), and
searches affine solution spaces for points whose chosen coordinates are all
strictly positive. The positivity search runs Fourier-Motzkin elimination,
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
    pivot_cols: list[int] = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [v / pv for v in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [v - f * p for v, p in zip(rows[i], rows[r])]
        pivot_cols.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if rows[i][n] != 0:
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
