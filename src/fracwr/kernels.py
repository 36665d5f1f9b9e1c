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

    An ``rhs`` of shape (B, n) holds B independent systems that share ``s``,
    the end kinds and ``c`` (the members of a relaxation sweep, the sine
    modes of a 2D strip, or both); ``bnn`` and the end values are then
    scalars or one value per system.  The systems are stacked block-diagonally, with
    zero couplings between blocks, into a single ``dgtsv`` call.
    """
    n = rhs.shape[-1]
    lo = 1 if bc_left == DIRICHLET else 0
    hi = n - 1 if bc_right == DIRICHLET else n
    shape = rhs.shape[:-1] + (hi - lo,)
    # columns 0, 1, -2 and -1; plain integers for a single system keep its
    # end updates on scalars, which is cheaper than on 0-d array views
    if rhs.ndim == 1:
        c0, c1, c2, c3 = 0, 1, -2, -1
    else:
        c0, c1, c2, c3 = np.s_[:, 0], np.s_[:, 1], np.s_[:, -2], np.s_[:, -1]
    d0 = bnn + 2.0 * s
    diag = np.empty(shape)
    diag.T[...] = d0  # one value per system fills its whole block
    # lower[.., i] couples row i+1 to row i and upper[.., i] row i to row i+1;
    # the last slot of each block is the zero coupling to the next block
    lower = np.empty(shape)
    lower[...] = -s
    lower[c3] = 0.0
    upper = lower.copy()
    b = rhs[..., lo:hi].copy()
    u = np.empty(rhs.shape)

    if bc_left == DIRICHLET:
        u[c0] = val_left
        b[c0] += s * val_left
    else:
        # row (3c, -4c, c) plus (c/s) times the first interior row
        f = c_left / s
        diag[c0] = 2.0 * c_left
        upper[c0] = -4.0 * c_left + f * d0
        b[c0] = val_left + f * rhs[c1]

    if bc_right == DIRICHLET:
        u[c3] = val_right
        b[c3] += s * val_right
    else:
        f = c_right / s
        diag[c3] = 2.0 * c_right
        lower[c2] = -4.0 * c_right + f * d0
        b[c3] = val_right + f * rhs[c2]

    x = _gtsv(lower.ravel()[:-1], diag.ravel(), upper.ravel()[:-1], b.ravel(), overwrite=True)
    u[..., lo:hi] = x.reshape(shape)
    return u
