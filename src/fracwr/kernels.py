"""Per-time-level tridiagonal solves through LAPACK ``dgtsv``.

Each system is assembled with vectorized numpy and solved by
``scipy.linalg.lapack.dgtsv``, which pivots.  A pinned Dirichlet row
``u = g`` would then come back only to rounding accuracy, so known Dirichlet
values are taken out of the system and set exactly.
"""

import numpy as np
from scipy.linalg.lapack import dgtsv

DIRICHLET = 0
FLUX = 1


def _gtsv(dl, d, du, b, overwrite=False):
    if d.shape[0] == 1:  # dgtsv rejects empty off-diagonals
        if d[0] == 0.0:
            raise ArithmeticError("tridiagonal system is singular at row 1")
        return b / d
    *_, x, info = dgtsv(dl, d, du, b, overwrite, overwrite, overwrite, overwrite)
    if info != 0:
        raise ArithmeticError(f"tridiagonal system is singular at row {info}")
    return x


def tridiag_solve(lower, diag, upper, rhs):
    """Solve a tridiagonal system; raises ArithmeticError if it is singular.

    ``lower[i]`` multiplies x[i-1] in row i (lower[0] unused) and ``upper[i]``
    multiplies x[i+1] (upper[-1] unused).  The inputs are not modified.
    """
    return _gtsv(lower[1:], diag, upper[:-1], rhs)


def step_solve(bnn, s, rhs, bc_left, val_left, bc_right, val_right, c_left, c_right):
    """Solve one implicit time level of (bnn*I - s*D2_scaled) u = rhs.

    Interior rows carry diag = bnn + 2*s and off-diagonals -s, where
    s = implicit_fraction * kappa / dx**2.  An end is either a Dirichlet node
    (u = val, set exactly; its neighbour's row gains s*val on the right-hand
    side) or a one-sided three-point outward-flux row
    kappa * (3*u0 - 4*u1 + u2) / (2*dx) = val with c = kappa / (2*dx), whose
    third entry is eliminated against the first interior row of the
    unmodified ``rhs``.  ``rhs`` is not modified.
    """
    n = rhs.shape[0]
    lo = 1 if bc_left == DIRICHLET else 0
    hi = n - 1 if bc_right == DIRICHLET else n
    diag = np.full(hi - lo, bnn + 2.0 * s)
    lower = np.full(hi - lo - 1, -s)
    upper = lower.copy()
    b = rhs[lo:hi].copy()
    u = np.empty(n)

    if bc_left == DIRICHLET:
        u[0] = val_left
        b[0] += s * val_left
    else:
        # row (3c, -4c, c) plus (c/s) times the first interior row
        f = c_left / s
        diag[0] = 2.0 * c_left
        upper[0] = -4.0 * c_left + f * (bnn + 2.0 * s)
        b[0] = val_left + f * rhs[1]

    if bc_right == DIRICHLET:
        u[n - 1] = val_right
        b[-1] += s * val_right
    else:
        f = c_right / s
        diag[-1] = 2.0 * c_right
        lower[-1] = -4.0 * c_right + f * (bnn + 2.0 * s)
        b[-1] = val_right + f * rhs[n - 2]

    u[lo:hi] = _gtsv(lower, diag, upper, b, overwrite=True)
    return u
