"""The sine basis of each line of a waveform march, and one level's solve in it.

At every time level a march solves one system per line: a line is one
subdomain of one sweep member, or one sine mode of a 2D strip.  On the m
interior nodes of a line the system is

    (bnn + shift + s T) u = rhs + s (E_L e_1 + E_R e_m),   T = tridiag(-1, 2, -1),

with s = implicit_fraction * kappa / dx**2 and E_L, E_R the values of the
two end nodes.  The orthonormal DST-I matrix S (symmetric, its own inverse)
diagonalises T, S T S = diag(lambda_k), lambda_k = 4 sin(k pi / (2 (m+1)))**2
(Buzbee, Golub & Nielson, SIAM J. Numer. Anal. 1970), so in the coefficients
u_hat = S u a level is a division by bnn + shift + s lambda_k: the
matrix-decomposition method (Bialecki, Fairweather & Karageorghis, Numer.
Algorithms 2011).  The basis does not depend on the level, so a march moves
its data into it once and its results back once (``dst``).

A Dirichlet end is E = g, written as given, so it returns g exactly.  A flux
end is the one-sided outward-flux row c (3 E - 4 u_1 + u_2) = q with
c = kappa / (2 dx), that is E = q / (3c) - b . u_hat with b = S (-4/3 e_1 +
1/3 e_2); substituted into the first interior row it turns s (2, -1) into
s (2/3, -2/3), a rank-one change of the line's operator.  ``step_solve``
solves it in the end values (Sherman-Morrison), a line with two flux ends by
a 2 x 2 system (Woodbury).  On a 3-node line the flux row reads the other
end node in place of u_2.  A march takes one end kind per call, so a
Dirichlet end of a line with a flux end is a physical end and holds 0: the
flux row leaves its weight out.  The rows of S mirror, S e_m = sigma * S e_1
with sigma_k = (-1)**(k+1), so both ends' terms of a line meet in one gather.
"""

from functools import lru_cache

import numpy as np

DIRICHLET = 0
FLUX = 1


@lru_cache(maxsize=16)
def sine_rows(m, rows):
    """The rows ``rows`` (a tuple or range of interior node indices, 0 to
    m-1) of the orthonormal DST-I of size m, read-only (they are kept for the
    next call)."""
    # the phase j k pi / (m+1) reduced by whole turns first, so its sine keeps full accuracy
    turns = np.outer(np.add(rows, 1), np.arange(1, m + 1)) % (2 * (m + 1))
    basis = np.sqrt(2.0 / (m + 1)) * np.sin(np.pi * turns / (m + 1))
    basis.setflags(write=False)
    return basis


def dst(x):
    """The orthonormal DST-I of ``x`` along its last axis, which is its own inverse.

    One real FFT of each row's odd extension; each row's result depends on
    that row alone.
    """
    x = np.asarray(x, dtype=float)
    m = x.shape[-1]
    odd = np.zeros(x.shape[:-1] + (2 * m + 2,))
    odd[..., 1:m + 1] = x
    odd[..., m + 2:] = -x[..., ::-1]
    return np.fft.rfft(odd)[..., 1:m + 1].imag * (-1.0 / np.sqrt(2.0 * (m + 1)))


_SUM_DIFFERENCE = np.array([[1.0, 1.0], [1.0, -1.0]])

_LEVELS = 4096  # the most level terms a kept stack holds


# The arrays of the last four stacks, by their arguments (tuples): the marches
# of a run build the same few stacks sweep after sweep, and share their level
# terms.  Every kept array is a function of the arguments alone, so no result
# depends on what is kept.
@lru_cache(maxsize=4)
def _arrays(widths, s, c, kinds, shift):
    widths, s, c, kinds = (np.array(x) for x in (widths, s, c, kinds))
    n = len(widths)
    m = widths - 2
    size = int(m.sum())
    starts = np.concatenate([[0], np.cumsum(m)[:-1]])
    line = np.repeat(np.arange(n), m)
    k = np.arange(size) - starts[line]  # a coefficient's mode, from 0
    span = (m + 1.0)[line]
    edge = np.sqrt(2.0 / span) * np.sin(np.pi * (k + 1) / span)
    diag = s[line] * 4.0 * np.sin(0.5 * np.pi * (k + 1) / span) ** 2
    if shift is not None:
        diag += np.array(shift)[line]
    flux = kinds.reshape(n, 2) == FLUX
    # one gather gives a coefficient w_L + w_R (sigma = 1) or w_L - w_R (sigma = -1)
    arrays = dict(lines=n, size=size, starts=starts, edge=edge, diag=diag,
                  bounds=(float(diag.min()), float(diag.max())), gather=2 * line + k % 2,
                  s=np.stack([s, s], axis=1), flux=flux, has_flux=bool(flux.any()))
    if arrays["has_flux"]:
        sigma = 1.0 - 2.0 * (k % 2)
        second = np.sqrt(2.0 / span) * np.sin(2.0 * np.pi * (k + 1) / span)
        b = -4.0 / 3.0 * edge + np.where(m[line] > 1, second / 3.0, 0.0)
        coupled = flux[:, 0] & flux[:, 1]
        # per line, alpha = 1 + s_f b_L . z_L and beta = rho + s b_L . z_R, where
        # s_f is s on a line with a flux end; on a 3-node line a flux row
        # weighs the other end node by rho = 1/3
        arrays.update(
            b=np.stack([b, sigma * b]), b_edge=np.stack([b * edge, sigma * b * edge]),
            s_flux=np.where(flux.any(axis=1), s, 0.0), rho=np.where(m == 1, 1.0 / 3.0, 0.0),
            flux_scale=np.where(flux, 1.0 / (3.0 * c)[:, None], 0.0),
            coupled=coupled.astype(float) if coupled.any() else None,
            levels={})  # a level's terms of the flux rows, by its diagonal weight
    return arrays


class Stack:
    """The lines of a march laid end to end, each in the sine basis of its interior.

    Line l spans ``widths[l]`` nodes (at least 3), so ``widths[l] - 2``
    coefficients, and ``size`` is their total.  ``s``, ``c``, ``left`` and
    ``right`` (DIRICHLET or FLUX) hold one value per line, and ``shift`` one
    value per line or None for zero.  Per coefficient the stack keeps the
    row of S next to the left end (``edge``) and ``diag`` = s lambda_k +
    shift; a stack with a flux end also keeps each line's b_L and b_R
    (``b``) and b_L times both end rows (``b_edge``), whose sums over a line
    give the Sherman-Morrison terms, and the terms of each level it has
    solved (``prepare``).  Stacks with the same arguments share these arrays
    (``_arrays`` keeps those of the last four); each has scratch for
    ``step_solve`` of its own.
    """

    def __init__(self, widths, s, c, left, right, shift=None):
        widths = np.asarray(widths, dtype=int)
        if widths.min() < 3:
            raise ValueError("a line needs at least 3 rows")
        kinds = np.stack([left, right], axis=1)
        if not set(kinds.ravel().tolist()) <= {DIRICHLET, FLUX}:
            raise ValueError(f"end kinds must be DIRICHLET or FLUX, got {kinds.tolist()}")
        n = len(widths)
        s, c = (np.broadcast_to(np.asarray(x, dtype=float), (n,)) for x in (s, c))
        shift = None if shift is None else np.broadcast_to(np.asarray(shift, dtype=float), (n,))
        self.__dict__.update(_arrays(*(None if x is None else tuple(x.tolist())
                                       for x in (widths, s, c, kinds.ravel(), shift))))
        self.d, self.forcing = np.empty((2, self.size))
        self.combined = np.empty((n, 2))
        if self.has_flux:
            self.products = np.empty((2, self.size))

    def prepare(self, bnns):
        """Keep the terms of the flux rows at each diagonal weight of ``bnns``.

        They depend on the weight alone: the sums g = (b_L . z_L, b_L . z_R)
        over each line with z = S e / (bnn + diag), and the reciprocal of
        each line's determinant (with the elimination ratio of a line with two
        flux ends).  The weights are done a block at a time, each weight's
        terms computed as alone.
        """
        if not self.has_flux:
            return
        wanted = dict.fromkeys(np.asarray(bnns, dtype=float).tolist())
        if len(self.levels) + len(wanted) > _LEVELS:  # runs on many meshes start afresh
            self.levels.clear()
        new = np.array([b for b in wanted if b not in self.levels])
        block = max(1, 2**15 // self.size)
        for i in range(0, len(new), block):
            part = new[i:i + block]
            g = np.add.reduceat(self.b_edge[:, None] / (part[:, None] + self.diag), self.starts,
                                axis=2)
            alpha = g[0] * self.s_flux + 1.0
            det, ratio = alpha, None
            if self.coupled is not None:
                # a line with two flux ends solves [[alpha, beta], [beta, alpha]],
                # written so that a line with one flux end (coupling 0) divides
                # by alpha as in a stack without such lines
                coupling = (g[1] * self.s[:, 0] + self.rho) * self.coupled
                ratio = (coupling / alpha)[..., None]
                det = alpha - ratio[..., 0] * coupling
            if not (alpha.all() and det.all()):
                bad = np.flatnonzero(((alpha == 0.0) | (det == 0.0)).any(axis=0))[0]
                raise ArithmeticError(f"level matrix is singular in line {bad}")
            g, inverse = g.transpose(1, 2, 0), 1.0 / det[..., None]
            for j, bnn in enumerate(part.tolist()):
                self.levels[bnn] = (g[j], None if ratio is None else ratio[j], inverse[j])


def step_solve(bnn, stack, rhs, ends, extra=None, out=None):
    """Solve one time level of every line of ``stack`` in its sine basis.

    ``rhs`` holds the basis coefficients of the interior right-hand sides,
    and ``ends`` (lines, 2) the left and right end values of each line: the
    Dirichlet value or the outward flux.  ``extra``, shaped like ``ends`` or
    None, adds extra[l, e] times end e's row of S to line l's ``rhs`` (the
    explicit half of a split level).  Returns the coefficients, in ``out``
    when given, and the end values (lines, 2): a Dirichlet end's is its value
    as given (a stack without flux ends returns ``ends``), a flux end's
    follows from its row, with the terms ``Stack.prepare`` keeps for ``bnn``.
    ``rhs`` is not modified.  Each line's result depends on that line alone.
    """
    d, forcing = stack.d, stack.forcing
    np.add(bnn, stack.diag, out=d)
    if stack.bounds[0] <= -bnn <= stack.bounds[1] and not d.all():
        col = int(np.flatnonzero(d == 0.0)[0])
        line = int(np.searchsorted(stack.starts, col, side="right")) - 1
        raise ArithmeticError(f"level matrix is singular in line {line}, "
                              f"mode {col - stack.starts[line] + 1}")
    values = ends
    if stack.has_flux:
        terms = stack.levels.get(bnn)
        if terms is None:
            stack.prepare([bnn])
            terms = stack.levels[bnn]
        g, ratio, inverse = terms
        np.divide(rhs, d, out=forcing)
        np.multiply(stack.b, forcing, out=stack.products)
        # each flux row: alpha E + beta E_other = q / (3c) - b . y - (extra terms)
        h = ends * stack.flux_scale
        h -= np.add.reduceat(stack.products, stack.starts, axis=1).T
        if extra is not None:
            h -= extra * g[:, :1] + extra[:, ::-1] * g[:, 1:]
        if ratio is not None:
            h -= ratio * h[:, ::-1]
        h *= inverse
        values = np.where(stack.flux, h, ends)
    weights = stack.s * values
    if extra is not None:
        weights += extra
    # each line's w_L + w_R and w_L - w_R, exactly: the products with +-1 are exact
    np.matmul(weights, _SUM_DIFFERENCE, out=stack.combined)
    stack.combined.take(stack.gather, out=forcing)
    forcing *= stack.edge
    forcing += rhs
    return np.divide(forcing, d, out=out), values
