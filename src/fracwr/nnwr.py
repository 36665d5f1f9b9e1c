"""Neumann-Neumann waveform relaxation in 1D and 2D.

Each sweep has four phases: (a) Dirichlet solves on all subdomains with the
current interface traces, (b) assembly of the outward-flux mismatch
kappa_i d_n u_i + kappa_j d_n u_j per interface, (c) zero-data Neumann
correction solves driven by that mismatch (physical boundaries keep a
homogeneous Dirichlet condition), and (d) the relaxed trace update
h <- h - theta * (psi_i + psi_j) per interface.  The solves of phases (a)
and (c) are independent across subdomains, as in the paper.  Each phase is
one stacked march over all subdomains (and all members of a relaxation
sweep), which gives every subdomain bit for bit the field of its own march,
so a rerun reproduces the iterates bit for bit.

The 2D strip is a two-subdomain 1D partition times one uniform y lattice
(``Nnwr2dConfig``), and it runs the same sweep in sine-mode space.  Its
y-boundary rows are homogeneous Dirichlet, so the orthonormal DST-I over the
interior y nodes diagonalises the whole sweep: mode k is the 1D sweep over
the partition with the extra reaction coefficient kappa * lambda_k / dy**2,
lambda_k = 4 sin(k pi / (2 ny))**2 (Buzbee, Golub & Nielson, SIAM J. Numer.
Anal. 1970), and each phase marches both strips and all modes at once.
Both drivers run their sweeps in the interface iteration of
``fracwr.iteration``; the source and the initial condition are tabulated
once per run (in 2D, and moved into mode space).
"""

import time
from dataclasses import dataclass

import numpy as np

from .geometry import Partition1D, axis_nodes, build_subdomain, interface_flux_series
from .iteration import IterationConfig, iterate
from .solver import solve_dirichlet_waveform, solve_neumann_waveform, tabulate
from .theory import optimal_theta_nnwr

__all__ = [
    "NnwrConfig",
    "Nnwr2dConfig",
    "optimal_theta_nnwr",
    "run_nnwr_1d",
    "run_nnwr_2d",
]


@dataclass(frozen=True, kw_only=True)
class NnwrConfig(IterationConfig):
    partition: Partition1D
    max_iter: int = 60

    def __post_init__(self):
        super().__post_init__()
        if self.partition.n_subdomains < 2:
            raise ValueError("need at least two subdomains")
        self.resolve_theta()

    def optimal_theta(self):
        kappas = self.partition.kappas
        return [optimal_theta_nnwr(a, b) for a, b in zip(kappas, kappas[1:])]


def _sweep(subs, weights, h, thetas, f, u0, decay=None):
    """One sweep over the line subdomains ``subs``: the trace update and the Dirichlet fields.

    ``h`` stacks each member's interface traces, (members, interfaces, N),
    with a trailing mode axis when ``decay`` gives the lines a reaction term
    (as in ``solve_waveform``).  ``thetas`` holds each member's interface
    weights, (members, interfaces), with a trailing axis of length 1 for the
    mode axis.
    """
    m = len(h)
    # subdomain i lies between interfaces i - 1 and i; the outer ends have none
    traces = [None, *h.swapaxes(0, 1), None]
    fields = solve_dirichlet_waveform(subs, weights, traces[:-1], traces[1:], f=f, u0=u0,
                                      decay=decay, members=m)

    mismatch = [
        interface_flux_series(fields[i][:, 1:], "right", subs[i])
        + interface_flux_series(fields[i + 1][:, 1:], "left", subs[i + 1])
        for i in range(len(subs) - 1)
    ]

    fluxes = [None, *mismatch, None]
    corrections = solve_neumann_waveform(subs, weights, fluxes[:-1], fluxes[1:], decay=decay,
                                         members=m)

    update = np.stack([thetas[:, i, None] * (corrections[i][:, 1:, ..., -1]
                                             + corrections[i + 1][:, 1:, ..., 0])
                       for i in range(len(subs) - 1)], axis=1)
    return update, fields


def run_nnwr_1d(cfg: NnwrConfig, keep_fields: bool = False, members=None):
    """Run the iteration with ``cfg.theta``, or with each of ``members`` in
    one batch (one ``RunResult`` per member, as ``run_dnwr`` describes)."""
    t_start = time.perf_counter()
    weights = cfg.build_weights()
    subs = cfg.partition.subdomains
    f = u0 = None
    if not cfg.error_mode:
        f, u0 = zip(*(tabulate(weights, cfg.source, cfg.initial_condition, sub.nodes)
                      for sub in subs))

    def sweep(h, thetas):
        update, fields = _sweep(subs, weights, h, thetas, f, u0)
        return h - update, update, tuple(fields)

    h0 = cfg.initial_traces((len(subs) - 1, cfg.n_steps))
    results = iterate(cfg, sweep, h0, cfg.member_thetas(members), t_start, keep_fields)
    return results if members is not None else results[0]


@dataclass(frozen=True, kw_only=True)
class Nnwr2dConfig(NnwrConfig):
    """The strip: ``partition`` holds its two subdomains along x, and the
    y lattice of ``y_extent`` at spacing ``dy`` is shared by both."""
    y_extent: tuple
    dy: float
    max_iter: int = 30

    def __post_init__(self):
        super().__post_init__()
        if self.partition.n_subdomains != 2:
            raise ValueError("the 2D strip needs exactly two subdomains")
        for kappa in self.partition.kappas:  # each strip's kappa * d_yy: a line's stencil
            build_subdomain(*self.y_extent, kappa, self.dy)


def _mode_data(sub, dy, weights, f, u0, sine):
    """A strip's source and initial tables (``tabulate``) as mode tables, x nodes last."""
    f_hat = None if f is None else sine @ np.swapaxes(f[..., 1:-1], -1, -2)
    if u0 is None:
        return f_hat, None
    if weights.implicit_fraction < 1.0:
        # the explicit half of the first level reads u0 on the y-boundary rows, which no mode holds
        f_hat = np.zeros((weights.n_steps, len(sine), sub.n_nodes)) if f_hat is None else f_hat
        f_hat[0] += (1.0 - weights.implicit_fraction) * sub.kappa / dy**2 * (
            np.outer(sine[0], u0[:, 0]) + np.outer(sine[-1], u0[:, -1]))
    return f_hat, sine @ u0[:, 1:-1].T


def run_nnwr_2d(cfg: Nnwr2dConfig, keep_fields: bool = False, members=None):
    """Run the iteration with ``cfg.theta``, or with each of ``members`` in
    one batch (one ``RunResult`` per member, as ``run_dnwr`` describes).

    The iterate is the lattice trace (N, ny+1); a sweep moves its interior
    rows into mode space, runs the 1D sweep there and moves the update back,
    whose y-boundary entries stay zero.  Under ``keep_fields`` the lattice
    Dirichlet fields are rebuilt from the modes.
    """
    t_start = time.perf_counter()
    weights = cfg.build_weights()
    strips = cfg.partition.subdomains
    ys = axis_nodes(*cfg.y_extent, cfg.dy)
    ny = len(ys) - 1
    dy = float(ys[-1] - ys[0]) / ny
    # the transform matrix is symmetric and its own inverse
    k = np.arange(1, ny)
    sine = np.sqrt(2.0 / ny) * np.sin(np.pi * np.outer(k, k) / ny)
    with np.errstate(over="ignore"):  # an infinite row makes the first sweep diverge
        decay = [s.kappa * (2.0 * np.sin(0.5 * np.pi * k / ny) / dy) ** 2 for s in strips]
    u0 = f_hat = u0_hat = (None, None)
    if not cfg.error_mode:
        f, u0 = zip(*(tabulate(weights, cfg.source, cfg.initial_condition,
                               *np.meshgrid(s.nodes, ys, indexing="ij")) for s in strips))
        f_hat, u0_hat = zip(*(_mode_data(s, dy, weights, fs, us, sine)
                              for s, fs, us in zip(strips, f, u0)))

    def sweep(h, thetas):
        update_hat, fields = _sweep(strips, weights, (h[..., 1:-1] @ sine)[:, None],
                                    thetas[..., None], f_hat, u0_hat, decay)
        update = np.zeros_like(h)
        update[..., 1:-1] = update_hat[:, 0] @ sine
        lattice = []  # the Dirichlet fields: u0 at level 0, then the trace on the interface
        for u_hat, start, column in zip(fields if keep_fields else (), u0, (-1, 0)):
            u = np.zeros(u_hat.shape[:2] + (u_hat.shape[-1], ny + 1))
            np.matmul(np.swapaxes(u_hat, -1, -2), sine, out=u[..., 1:-1])
            u[:, 0] = 0.0 if start is None else start
            u[:, 1:, column, 1:-1] = h[..., 1:-1]
            lattice.append(u)
        return h - update, update, tuple(lattice)

    h0 = cfg.initial_traces((cfg.n_steps, ny + 1))
    if np.isscalar(cfg.initial_guess):
        h0[:, 0] = h0[:, -1] = 0.0  # trace endpoints sit on the outer boundary
    results = iterate(cfg, sweep, h0, cfg.member_thetas(members), t_start, keep_fields)
    return results if members is not None else results[0]
