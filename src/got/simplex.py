"""A small dense two-phase simplex solver for equality-form programs.

Solves min c.x subject to A x = b, x >= 0, with Bland's anti-cycling rule
and a fixed tie-break, so identical inputs give identical answers. Scope
is desk-sized problems (a few hundred variables); there is no sparsity,
no warm starting, and no scaling. It solves the Beckmann flow LP and, in
the tests, reference LPs; the coupling has its own engine, the network
simplex in _network. The pivot loop lives in _kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import IMBALANCE_TOL, SolverError, _floats, _tolerance

PIVOT_TOL = 1e-10
OPT_TOL = 1e-9
RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class LinearProgram:
    """min objective . x  subject to  eq_matrix x = eq_rhs, x >= 0."""

    objective: np.ndarray
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray

    def __post_init__(self):
        A = _floats(self.eq_matrix, (None, None), "constraint matrix")
        m, n = A.shape
        c = _floats(self.objective, n, "objective")
        b = _floats(self.eq_rhs, m, "rhs")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "eq_matrix", A)
        object.__setattr__(self, "eq_rhs", b)


@dataclass(frozen=True)
class LPSolution:
    x: np.ndarray | None
    objective_value: float
    status: str  # optimal | infeasible | unbounded
    iterations: int


def _iteration_cap(rows: int, cols: int) -> int:
    return 2000 + 60 * (rows + cols)


def solve_lp(lp: LinearProgram) -> LPSolution:
    """Two-phase simplex; optimal solutions are certified before return.

    Certification re-checks feasibility of x against the original data
    (residual below 1e-8, x above -1e-9, both times max(1, the largest
    |rhs|), as is the phase-1 feasibility test) and non-negative reduced
    costs, independently of the pivot path taken.
    """
    c = lp.objective
    A = lp.eq_matrix.copy()
    b = lp.eq_rhs.copy()
    m, n = A.shape

    negative = b < 0
    A[negative] *= -1.0
    b[negative] *= -1.0

    # phase 1: artificial variables form the starting basis
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, :n] = A
    tableau[:m, n : n + m] = np.eye(m)
    tableau[:m, -1] = b
    tableau[m, :n] = -A.sum(axis=0)
    tableau[m, -1] = -b.sum()
    basis = np.arange(n, n + m, dtype=np.int64)
    status, iters1 = _kernels.simplex_iterate(
        tableau, basis, PIVOT_TOL, OPT_TOL, _iteration_cap(m, n + m)
    )
    if status == _kernels.STATUS_ITER_LIMIT:
        raise SolverError("phase-1 simplex hit its iteration cap")
    if status == _kernels.STATUS_UNBOUNDED:
        raise SolverError("phase-1 objective claims unbounded; numerical breakdown")
    feas_tol = _tolerance(IMBALANCE_TOL, lp.eq_rhs)
    if -tableau[m, -1] > feas_tol:
        return LPSolution(None, float("nan"), "infeasible", iters1)

    # drive leftover artificials out; rows that cannot pivot are redundant
    keep = np.ones(m, dtype=bool)
    for i in range(m):
        if basis[i] >= n:
            candidates = np.nonzero(np.abs(tableau[i, :n]) > PIVOT_TOL)[0]
            if candidates.size:
                _kernels.pivot(tableau, basis, i, int(candidates[0]))
            else:
                keep[i] = False

    rows = np.nonzero(keep)[0]
    m2 = rows.size
    phase2 = np.zeros((m2 + 1, n + 1))
    phase2[:m2, :n] = tableau[rows, :n]
    phase2[:m2, -1] = tableau[rows, -1]
    basis2 = basis[rows].copy()
    phase2[m2, :n] = c
    for i in range(m2):
        weight = c[basis2[i]]
        if weight != 0.0:
            phase2[m2] -= weight * phase2[i]

    status, iters2 = _kernels.simplex_iterate(
        phase2, basis2, PIVOT_TOL, OPT_TOL, _iteration_cap(m2, n)
    )
    iterations = iters1 + iters2
    if status == _kernels.STATUS_ITER_LIMIT:
        raise SolverError("phase-2 simplex hit its iteration cap")
    if status == _kernels.STATUS_UNBOUNDED:
        return LPSolution(None, float("-inf"), "unbounded", iterations)

    x = np.zeros(n)
    x[basis2] = phase2[:m2, -1]
    residual = float(np.abs(lp.eq_matrix @ x - lp.eq_rhs).max()) if m else 0.0
    lowest = float(x.min()) if n else 0.0
    reduced = float(phase2[m2, :n].min()) if n else 0.0
    residual_tol = _tolerance(RESIDUAL_TOL, lp.eq_rhs)
    if residual > residual_tol or lowest < -feas_tol or reduced < -OPT_TOL:
        raise SolverError(
            "simplex result failed certification "
            f"(residual {residual:.3e}, min x {lowest:.3e}, "
            f"min reduced cost {reduced:.3e})"
        )
    x[x < 0.0] = 0.0
    return LPSolution(x, float(c @ x), "optimal", iterations)
