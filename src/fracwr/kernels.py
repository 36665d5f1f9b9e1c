"""Per-time-level tridiagonal solves through LAPACK ``dgtsv`` or ``dgttrf``/``dgttrs``.

One time level of a march is one tridiagonal system: a stack of blocks laid
end to end with zero couplings between them.  A block is one subdomain line
of one sweep member, or one sine mode of a 2D strip, and carries its own
``s``, ``c``, diagonal shift, width and end kinds, so blocks of mixed kinds
and widths share one ``dgtsv`` call.  ``dgtsv`` pivots, and a block still
solves bit for bit as it does alone: every product that crosses a zero
coupling is a product with an exact zero.

A Dirichlet end stays in the system as a decoupled identity row: its
neighbour's coupling moves to the right-hand side, and the row returns
``u = g`` exactly for the same reason.  A flux end's three-point row is
condensed to two entries here alone; the monolithic reference in ``solver``
solves its flux rows uncondensed.

A level matrix depends on the level only through its Caputo diagonal weight
``bnn``, the same at every level of a uniform mesh.  Its ``dgttrf`` factors,
kept on the ``Stack``, solve every level with that ``bnn`` by ``dgttrs``,
which makes ``dgtsv``'s operations on the same operands in the same order.
"""

from itertools import accumulate

import numpy as np
from scipy.linalg.lapack import dgtsv, dgttrf, dgttrs

DIRICHLET = 0
FLUX = 1


def _index(rows):
    """The list ``rows`` as an integer, a basic slice when it is evenly spaced,
    or an index array: the cheapest index for ``step_solve`` to apply."""
    if len(rows) == 1:
        return rows[0]
    step = rows[1] - rows[0]
    if step > 0 and all(b - a == step for a, b in zip(rows, rows[1:])):
        return slice(rows[0], rows[-1] + 1, step)
    return np.array(rows)


class Stack:
    """The constant parts of a stacked level matrix, built once per march.

    Block b spans ``widths[b]`` rows (at least 3).  Its interior rows are
    (-s, bnn + shift + 2*s, -s), with s = implicit_fraction * kappa / dx**2.
    Each end is DIRICHLET (``u = g``) or FLUX, a one-sided three-point
    outward-flux row kappa * (3*u0 - 4*u1 + u2) / (2*dx) = g with
    c = kappa / (2*dx), whose third entry is eliminated against the first
    interior row.  ``s``, ``c``, ``left`` and ``right`` hold one value per
    block, and ``shift`` one value per block or None for zero.
    ``scratch`` holds a level's diagonal and, with flux rows, its couplings;
    ``lu`` is None or (bnn, the ``dgttrf`` factors at bnn, in arrays of their own).
    """

    def __init__(self, widths, s, c, left, right, shift=None):
        # the index work runs on lists: a stack has few blocks
        widths = np.asarray(widths).tolist()
        if min(widths) < 3:
            raise ValueError("a block needs at least 3 rows")
        s, c = np.asarray(s, dtype=float), np.asarray(c, dtype=float)
        n = len(widths)
        first = list(accumulate(widths[:-1], initial=0))
        self.size = first[-1] + widths[-1]
        self.two_s = np.repeat(2.0 * s, widths)
        self.shift = None if shift is None else np.repeat(shift, widths)
        # lower[i] couples row i+1 to row i and upper[i] row i to row i+1;
        # the couplings between blocks are zero
        coupling = np.repeat(-s, widths)
        self.lower, self.upper = coupling[1:].copy(), coupling[:-1]
        between = [r - 1 for r in first[1:]]
        self.lower[between] = self.upper[between] = 0.0

        # End e is the left end of block e for e < n and the right end of block
        # e - n otherwise, as in ``step_solve``'s ``ends``.  Each end has its
        # row, its neighbour row and one slot for the two couplings between
        # them, in ``upper`` on the left and in ``lower`` on the right.
        kinds = np.concatenate([left, right]).tolist()
        if not set(kinds) <= {DIRICHLET, FLUX}:
            raise ValueError(f"end kinds must be DIRICHLET or FLUX, got {kinds}")
        rows = first + [f + w - 1 for f, w in zip(first, widths)]
        nbrs = [r + 1 for r in rows[:n]] + [r - 1 for r in rows[n:]]
        slots = rows[:n] + nbrs[n:]
        s, c = np.concatenate([s, s]), np.concatenate([c, c])
        dirichlet = [e for e, k in enumerate(kinds) if k == DIRICHLET]
        self.lower[[slots[e] for e in dirichlet]] = self.upper[[slots[e] for e in dirichlet]] = 0.0
        # one pass over the Dirichlet ends, or two when a 3-row block has two:
        # its middle row adds s * g_left and then s * g_right
        passes = [dirichlet]
        if len({nbrs[e] for e in dirichlet}) < len(dirichlet):
            passes = [[e for e in dirichlet if e < n], [e for e in dirichlet if e >= n]]
        self.dirichlet = [(_index(p), _index([rows[e] for e in p]), _index([nbrs[e] for e in p]),
                           s[_index(p)]) for p in passes if p]
        # the flux ends of each side, as their couplings sit in one array per side
        self.flux = []
        for side, ends in enumerate((range(n), range(n, 2 * n))):
            p = [e for e in ends if kinds[e] == FLUX]
            if p:
                at = _index(p)
                self.flux.append((side, at, _index([rows[e] for e in p]),
                                  _index([nbrs[e] for e in p]), -4.0 * c[at], c[at] / s[at],
                                  _index([slots[e] for e in p])))
        diag = {rows[e]: 1.0 if k == DIRICHLET else 2.0 * c[e] for e, k in enumerate(kinds)}
        self.fixed = _index(sorted(diag))
        self.fixed_diag = np.array([diag[r] for r in sorted(diag)])
        self.scratch = np.empty(self.size), np.empty(self.size - 1), np.empty(self.size - 1)
        self.lu = None


def step_solve(bnn, stack, rhs, ends, factor=False, out=None):
    """Solve one implicit time level of the stacked system ``stack``.

    ``bnn`` is the level's Caputo diagonal weight and ``rhs`` holds one value
    per row.  ``ends`` holds the end values of the blocks, the left ends of
    all blocks and then their right ends: the Dirichlet value or the outward
    flux.  A Dirichlet end row returns its value exactly, and its neighbour's
    row gains s * g on the right-hand side.  A flux row's eliminated entry
    reads the unmodified ``rhs``.  ``rhs`` is not modified; the solution goes
    to ``out`` (contiguous, not ``rhs``) when given.  ``factor`` replaces the
    factors on ``stack`` by this level's.  A level whose ``bnn`` is exactly
    the factors' solves by ``dgttrs`` on them, any other by ``dgtsv``.
    """
    b = np.empty_like(rhs) if out is None else out
    b[:] = rhs
    for at, rows, nbrs, s in stack.dirichlet:
        g = ends[at]
        b[rows] = g
        b[nbrs] += s * g
    for side, at, rows, nbrs, m4c, f, slots in stack.flux:
        b[rows] = ends[at] + f * rhs[nbrs]
    if not factor and stack.lu is not None and stack.lu[0] == bnn:
        x, info = dgttrs(*stack.lu[1], b, overwrite_b=True)
    else:
        diag, upper, lower = stack.scratch
        shifted = bnn if stack.shift is None else np.add(bnn, stack.shift, out=diag)
        np.add(stack.two_s, shifted, out=diag)
        if stack.flux:  # flux rows change with bnn; otherwise dgtsv copies the constants
            upper[:], lower[:] = stack.upper, stack.lower
        else:
            upper, lower = stack.upper, stack.lower
        for side, at, rows, nbrs, m4c, f, slots in stack.flux:
            # row (3c, -4c, c) plus (c/s) times the neighbouring interior row,
            # whose diagonal entry is still bnn + shift + 2*s
            (upper, lower)[side][slots] = m4c + f * diag[nbrs]
        diag[stack.fixed] = stack.fixed_diag
        if factor:  # the factors get arrays of their own; a singular matrix keeps none
            *lu, info = dgttrf(lower, diag, upper)
            if info == 0:
                stack.lu = bnn, lu
                x, info = dgttrs(*lu, b, overwrite_b=True)
        else:
            flux = bool(stack.flux)  # only then are the couplings scratch that dgtsv may overwrite
            *_, x, info = dgtsv(lower, diag, upper, b, flux, True, flux, True)
    if info != 0:
        raise ArithmeticError(f"tridiagonal system is singular at row {info}")
    return x
