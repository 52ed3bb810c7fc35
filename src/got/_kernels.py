"""Hot inner loop of the simplex solver: Bland's rule, where among rows
within RATIO_TIE of the minimum ratio the smallest basis variable leaves,
so the same tableau always gives the same pivot sequence."""

import numpy as np

STATUS_OPTIMAL = 0
STATUS_UNBOUNDED = 1
STATUS_ITER_LIMIT = 2

RATIO_TIE = 1e-12


def pivot(tableau, basis, row, col):
    """Make ``col`` basic in ``row``: scale the row, eliminate the column
    from the other rows where it is nonzero (reduced costs included),
    record it in basis. A row whose entry in ``col`` is zero is left as
    it is, so a pivot costs in proportion to the rows its column reaches."""
    inv = 1.0 / tableau[row, col]
    tableau[row] *= inv
    tableau[row, col] = 1.0
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    rows = np.flatnonzero(factors)
    tableau[rows] -= factors[rows, None] * tableau[row]
    tableau[:, col] = 0.0
    tableau[row, col] = 1.0
    basis[row] = col


def simplex_iterate(tableau, basis, pivot_tol, opt_tol, max_iter):
    """Pivot until optimal, unbounded or ``max_iter``; returns (status, pivots).
    Row m of the tableau holds reduced costs and column n the right-hand
    side; tableau and basis are changed in place."""
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
