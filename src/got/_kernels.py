"""Hot inner loop of the simplex solver, in compiled and pure-numpy flavors.

Both flavors run Bland's rule with an identical tie-break (smallest basis
variable among rows within RATIO_TIE of the minimum ratio), so they follow
the same pivot sequence on the same tableau. ``simplex_iterate`` is the
flavor selected at import time; benchmarks/bench_simplex.py times one
against the other.
"""

import numpy as np

from ._accel import USE_NUMBA, njit

STATUS_OPTIMAL = 0
STATUS_UNBOUNDED = 1
STATUS_ITER_LIMIT = 2

RATIO_TIE = 1e-12


def _iterate_loops(tableau, basis, pivot_tol, opt_tol, max_iter):
    # tableau rows 0..m-1 are constraints, row m holds reduced costs;
    # column n is the right-hand side. Mutates tableau and basis in place.
    m = tableau.shape[0] - 1
    n = tableau.shape[1] - 1
    iters = 0
    while iters < max_iter:
        col = -1
        for j in range(n):
            if tableau[m, j] < -opt_tol:
                col = j
                break
        if col < 0:
            return STATUS_OPTIMAL, iters
        best = np.inf
        for i in range(m):
            a = tableau[i, col]
            if a > pivot_tol:
                r = tableau[i, n] / a
                if r < best:
                    best = r
        if best == np.inf:
            return STATUS_UNBOUNDED, iters
        row = -1
        row_var = -1
        for i in range(m):
            a = tableau[i, col]
            if a > pivot_tol:
                r = tableau[i, n] / a
                if r <= best + RATIO_TIE:
                    if row < 0 or basis[i] < row_var:
                        row = i
                        row_var = basis[i]
        inv = 1.0 / tableau[row, col]
        for j in range(n + 1):
            tableau[row, j] *= inv
        tableau[row, col] = 1.0
        for i in range(m + 1):
            if i != row:
                factor = tableau[i, col]
                if factor != 0.0:
                    for j in range(n + 1):
                        tableau[i, j] -= factor * tableau[row, j]
                    tableau[i, col] = 0.0
        basis[row] = col
        iters += 1
    return STATUS_ITER_LIMIT, iters


def pivot(tableau, basis, row, col):
    """Make ``col`` basic in ``row``: scale the row, eliminate the column
    from every other row (reduced costs included), record it in basis."""
    inv = 1.0 / tableau[row, col]
    tableau[row] *= inv
    tableau[row, col] = 1.0
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= factors[:, None] * tableau[row][None, :]
    tableau[:, col] = 0.0
    tableau[row, col] = 1.0
    basis[row] = col


def simplex_iterate_numpy(tableau, basis, pivot_tol, opt_tol, max_iter):
    """Vectorized twin of the compiled kernel; same pivots, same tableaus."""
    m = tableau.shape[0] - 1
    n = tableau.shape[1] - 1
    iters = 0
    while iters < max_iter:
        negative = np.nonzero(tableau[m, :n] < -opt_tol)[0]
        if negative.size == 0:
            return STATUS_OPTIMAL, iters
        col = int(negative[0])
        column = tableau[:m, col]
        eligible = column > pivot_tol
        if not eligible.any():
            return STATUS_UNBOUNDED, iters
        ratios = np.full(m, np.inf)
        ratios[eligible] = tableau[:m, n][eligible] / column[eligible]
        best = ratios.min()
        ties = np.nonzero(ratios <= best + RATIO_TIE)[0]
        row = int(ties[np.argmin(basis[ties])])
        pivot(tableau, basis, row, col)
        iters += 1
    return STATUS_ITER_LIMIT, iters


if USE_NUMBA:
    simplex_iterate_numba = njit(cache=True)(_iterate_loops)
    simplex_iterate = simplex_iterate_numba
else:
    simplex_iterate_numba = None
    simplex_iterate = simplex_iterate_numpy
