"""Each subdomain's discrete interface maps, and the sweep operators built from them.

In the sine basis of its interior (``kernels``) the coefficients of a line
couple only through its end values, so over the whole time window
coefficient k of a line with end values E_L and E_R (vectors over
t_1..t_N) solves

    (A + d_k P) u_k = s S0_k P (E_L + sigma_k E_R).

A is the Caputo rows times the first-difference matrix (the columns of
t_1..t_N of ``CaputoWeights.level_rows``, the matrix the march reads its
history from), P = I + ((1 - theta_s) / theta_s) L the split level of the
wave scheme (L the lag-1 shift; P = I for L1), d_k = s lambda_k plus
theta_s times the decay of a 2D y-mode, S0 and S1 the first two rows of the
sine basis S, and s, lambda_k and sigma_k are those of ``kernels``.  With
R_k = (A + d_k P)^-1 P and a_k = s S0_k (4 S0_k - S1_k), each line has two
lower-triangular interface kernels, G0 = sum_k a_k R_k and G1 = sum_k
sigma_k a_k R_k, and the outward fluxes c (3 E - 4 u_1 + u_2) of its two
ends are

    F_L = c (X E_L + Y E_R),   F_R = c (Y E_L + X E_R),   X = 3I - G0,  Y = -G1,

with Y = I - G1 on a 3-node line, whose flux rows read the other end node
(the rho = 1/3 of ``kernels``).  This is the line's discrete
Dirichlet-to-Neumann (Steklov-Poincare) map (Quarteroni & Valli, 1999), the
map whose continuous counterpart the DNWR and NNWR estimates bound (Gander,
Kwok & Mandal, ETNA 2016).  A flux end inverts it: a line with one flux end
(the other a physical end, which holds 0) has the end value X^-1 q / c, and
a line with two solves [[X, Y], [Y, X]] E = q / c.  DNWR's ``S`` and the
NNWR phases, per interface or per 2D mode, are compositions of these blocks.

On a uniform mesh every R_k is lower-triangular Toeplitz, and one scalar
recurrence over the levels, vectorised over every line, gives their first
columns.  On a graded mesh the resolvents are batched triangular inverses of
at most ``MODE_BLOCK`` lines at a time, summed into the kernels block by
block, so a build never holds more of them.  No eigendecomposition of A is
formed: on a graded mesh its eigenvectors are too ill-conditioned.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = ["build_cost", "dnwr_operator", "interface_maps", "lower_inverse", "nnwr_operators"]

MODE_BLOCK = 16  # resolvents held at once by a graded build


def lower_inverse(m) -> np.ndarray:
    """The inverses of a stack of lower-triangular matrices (..., N, N).

    The inverted diagonal blocks double in size while they tile N, from the
    reciprocals of the diagonal, each new off-diagonal block -X22 M21 X11;
    block forward substitution over the blocks of the last size finishes the
    inverse.  The upper triangle stays exactly zero.
    """
    n = m.shape[-1]
    x = np.zeros(m.shape)
    np.einsum("...ii->...i", x)[...] = 1.0 / np.einsum("...ii->...i", m)
    h = 1
    while n % (2 * h) == 0:
        shape = m.shape[:-2] + (n // (2 * h), 2 * h, n // (2 * h), 2 * h)
        md = np.einsum("...iaib->...iab", m.reshape(shape))
        xd = np.einsum("...iaib->...iab", x.reshape(shape))  # a view: writes land in x
        xd[..., h:, :h] = -xd[..., h:, h:] @ (md[..., h:, :h] @ xd[..., :h, :h])
        h *= 2
    for start in range(h, n, h):
        rows = slice(start, start + h)
        done = slice(0, start)
        x[..., rows, done] = -x[..., rows, rows] @ (m[..., rows, done] @ x[..., done, done])
    return x


def _uniform_sums(a, d, r, w, starts):
    """The kernels (2, groups, N, N) on a uniform mesh, from the first column
    ``a`` of A: the first column of each line's R_k by one recurrence over
    the levels, summed over each group's lines with the weights ``w`` (2,
    lines) and expanded by lag."""
    n = len(a)
    t0 = a[0] + d
    lags = a[:0:-1].copy()  # a_{N-1} .. a_1, contiguous, so that each product is one BLAS call
    x = np.empty((n, len(d)))  # level-major first columns
    x[0] = 1.0 / t0
    for j in range(1, n):
        acc = lags[n - 1 - j:] @ x[:j]
        if r:  # P's lag term, on the right-hand side (at level 1) and on the left
            acc += r * d * x[j - 1] - (r if j == 1 else 0.0)
        x[j] = -acc / t0
    # column j of a Toeplitz block is its first column shifted down by j
    padded = np.zeros((2, len(starts), 2 * n - 1))
    padded[..., n - 1:] = np.add.reduceat(w[:, None, :] * x, starts, axis=2).transpose(0, 2, 1)
    return sliding_window_view(padded, n, axis=-1)[..., ::-1].copy()


def _graded_sums(a, d, w, group, groups):
    """The kernels (2, groups, N, N) on a graded mesh, from the whole matrix
    A (the mesh is L1, so P = I): the resolvents of ``MODE_BLOCK`` lines at
    a time, each block summed into the groups it touches."""
    n = len(a)
    out = np.zeros((2, groups, n * n))
    for lo in range(0, len(d), MODE_BLOCK):
        part = slice(lo, lo + MODE_BLOCK)
        m = np.repeat(a[None], len(d[part]), axis=0)
        np.einsum("...ii->...i", m)[...] += d[part, None]
        g = group[part]
        touched = g == np.arange(g[0], g[-1] + 1)[:, None]  # (groups of the block, lines)
        res = lower_inverse(m).reshape(len(g), -1)
        out[:, g[0]:g[-1] + 1] += (w[:, None, part] * touched) @ res
    return out.reshape(2, groups, n, n)


def _lines(subs, weights, decay):
    """Per line (subdomain, then y-mode, then sine mode): d_k, the weights
    (a_k, sigma_k a_k), and its group, subdomain times modes plus y-mode."""
    theta_s = weights.implicit_fraction
    d, w, group = [], [], []
    for i, sub in enumerate(subs):
        m = sub.n_nodes - 2
        k = np.arange(1, m + 1)
        s = theta_s * sub.kappa / sub.dx**2
        # on a 3-node line s1 = sin(pi) is zero to rounding: its flux row
        # reads the other end node in place of u_2, in Y
        s0, s1 = np.sqrt(2.0 / (m + 1)) * np.sin(np.pi * np.outer((1, 2), k) / (m + 1))
        a = s * s0 * (4.0 * s0 - s1)
        lam = s * 4.0 * np.sin(0.5 * np.pi * k / (m + 1)) ** 2
        d.append((lam + theta_s * decay[i][:, None]).ravel())
        w.append(np.tile([a, np.where(k % 2, a, -a)], len(decay[i])))
        group.append(np.repeat(i * len(decay[i]) + np.arange(len(decay[i])), m))
    return np.concatenate(d), np.concatenate(w, axis=1), np.concatenate(group)


def interface_maps(subs, weights, decay=None):
    """``(X, Y, c)`` of every line of the subdomains ``subs``: X and Y (n_sub,
    modes, N, N), c (n_sub,), as the module docstring defines them.

    Without ``decay`` each subdomain is one line (modes = 1); with it (one
    row of B decays, or one such row per subdomain, as ``solve_waveform``
    takes) each subdomain has B lines.
    """
    decay = np.zeros((len(subs), 1)) if decay is None else np.asarray(decay, dtype=float)
    decay = np.broadcast_to(decay, (len(subs), decay.shape[-1]))
    modes, n = decay.shape[1], weights.n_steps
    d, w, group = _lines(subs, weights, decay)
    a = weights.level_rows[:, 1:]  # the operator on the levels t_1..t_N
    if weights.mesh.is_uniform:
        starts = np.flatnonzero(np.diff(group, prepend=-1))
        r = 1.0 / weights.implicit_fraction - 1.0
        g0, g1 = _uniform_sums(a[:, 0], d, r, w, starts)
    else:
        g0, g1 = _graded_sums(a, d, w, group, len(subs) * modes)
    shape = (len(subs), modes, n, n)
    x, y = 3.0 * np.eye(n) - g0.reshape(shape), -g1.reshape(shape)
    y[[sub.n_nodes == 3 for sub in subs]] += np.eye(n)
    return x, y, np.array([sub.kappa / (2.0 * sub.dx) for sub in subs])


# The build/march ratio of a graded build, measured on the graded presets at
# other step counts (one phase, one member; Xeon, 2 vCPU, numpy 2.4 with
# OpenBLAS), measured / 2.2 (lines N / 6400)**0.6:
#
#     lines   N = 16      32         64         128
#       98    1.1/1.0    1.1/1.4    2.0/2.2    3.9/3.3
#      198    1.6/1.4    1.9/2.2    2.7/3.3    6.5/5.0
#      298    2.2/1.8    2.6/2.8    3.9/4.2    9.2/6.4
#      795    5.2/3.3    6.5/5.0    9.3/7.6   17.7/11.6
#     4802   17.8/9.8   18.6/14.8  19.6/22.5  26.7/34.0
#
# The rule is within a factor 1.42 above and 1.82 below every point,
# N = 24, 48 and 96 included.  The ratio grows slower than the lines or N:
# part of a march's cost per level does not grow with the lines, and at
# small N a build's cost per block of lines outweighs its inverses.
GRADED_COST = (2.2, 6400.0, 0.6)


def build_cost(weights, subs, modes=1) -> float:
    """What ``interface_maps`` costs on ``subs`` (``modes`` lines each), in
    marches of a sweep phase over them: about one on a uniform mesh, and on
    a graded one c (lines N / scale)**p (``GRADED_COST``), at least one.  A
    value of config values alone."""
    if weights.mesh.is_uniform:
        return 1.0
    c, scale, p = GRADED_COST
    lines = modes * sum(sub.n_nodes - 2 for sub in subs)
    return max(1.0, c * (lines * weights.n_steps / scale) ** p)


def dnwr_operator(maps) -> np.ndarray:
    """DNWR's ``S`` (1, 1, N, N): the left line's Dirichlet flux at its right
    end, sent with flipped sign to the right line's left flux end."""
    x, _, c = maps
    return (-(c[0] / c[1]) * (lower_inverse(x[1, 0]) @ x[0, 0]))[None, None]


def nnwr_operators(maps):
    """The NNWR Dirichlet and Neumann phases, offset-major blocks (3,
    interfaces, modes, N, N) (``iteration.apply_operator``).

    The Dirichlet phase maps the traces to the flux mismatch, the sum of
    the outward fluxes of the two subdomains at each interface; the Neumann
    phase maps the mismatch, as the flux at both ends of each subdomain, to
    the sum of the two end values at each interface.  An outer subdomain has
    one flux end; an inner one has two, whose 2 x 2 block system is solved
    through its Schur complement Z = X - Y X^-1 Y.
    """
    x, y, c = maps
    c = c[:, None, None, None]
    dirichlet, neumann = np.zeros((2, 3, len(x) - 1) + x.shape[1:])
    dirichlet[1] = c[:-1] * x[:-1] + c[1:] * x[1:]
    x_inv = lower_inverse(x)
    near = x_inv / c
    if len(x) > 2:  # the inner subdomains; the far ends of the outer ones are physical
        inner = slice(1, -1)
        dirichlet[0, 1:] = dirichlet[2, :-1] = c[inner] * y[inner]
        z_inv = lower_inverse(x[inner] - y[inner] @ x_inv[inner] @ y[inner])
        near[inner] = z_inv / c[inner]
        neumann[0, 1:] = neumann[2, :-1] = -(x_inv[inner] @ y[inner] @ z_inv) / c[inner]
    neumann[1] = near[:-1] + near[1:]
    return dirichlet, neumann
