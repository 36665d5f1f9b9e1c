"""Neumann-Neumann waveform relaxation in 1D and 2D.

Each sweep has four phases: (a) Dirichlet solves on all subdomains with the
current interface traces, (b) assembly of the outward-flux mismatch
kappa_i d_n u_i + kappa_j d_n u_j per interface, (c) zero-data Neumann
correction solves driven by that mismatch (physical boundaries keep a
homogeneous Dirichlet condition), and (d) the relaxed trace update
h <- h - theta * psi per interface, psi = psi_i + psi_j the sum of the two
corrections there.  The solves of phases (a) and (c) are independent across
subdomains, as in the paper.  Each phase is one march over all subdomains
of one member of a relaxation sweep, every line in the sine basis of its
interior (``fracwr.kernels``), and a rerun reproduces the iterates bit for
bit.  A phase moves back only the nodes it reads, the three nearest each
end; the whole Dirichlet fields (``keep_fields``) are one march more, after
the loop.

The part of a sweep that is affine in the traces is built in two phases:
phases (a) and (b) map the traces to the flux mismatch, with the data, and
phase (c) maps the mismatch to psi, without.  Each phase couples an
interface to its two neighbours alone, though a whole sweep reaches two
interfaces each way.  Where ``max_iter`` repays the build, ``fracwr.iteration``
assembles each phase's map once, from the subdomains' interface maps
(``fracwr.maps``), checks it against one march of the phase, and adds the
data march of phase (a) in forced mode; every sweep is then the two
products in turn.  Otherwise every sweep marches.

The 2D strip is a two-subdomain 1D partition times one uniform y lattice
(``Nnwr2dConfig``), and it runs the same sweep in sine-mode space.  Its
y-boundary rows are homogeneous Dirichlet, so the orthonormal DST-I over the
interior y nodes diagonalises the whole sweep: mode k is the 1D sweep over
the partition with the extra reaction coefficient kappa * lambda_k / dy**2,
lambda_k = 4 sin(k pi / (2 ny))**2 (Buzbee, Golub & Nielson, SIAM J. Numer.
Anal. 1970), and each phase marches both strips and all modes at once, each
x-line in its own sine basis, so that the whole sweep is diagonal but for
the rank-one flux-end terms.
The modes do not couple, so each phase's map has the modes as its
positions, each with its own block from the maps of its x-lines.  Both drivers
run their sweeps in the interface iteration of ``fracwr.iteration``; the
source and the initial condition are tabulated once per run (in 2D, and
moved into mode space).
"""

import time
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from . import maps
from .geometry import Partition1D, axis_nodes, build_subdomain, interface_flux_series
from .iteration import AffineSweep, IterationConfig, iterate
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


def _dirichlet_phase(subs, weights, f, u0, decay, h, data, whole=False):
    """Phases (a) and (b) over the line subdomains ``subs`` at the traces
    ``h``, with the data or (``data=False``) without: the flux mismatch or,
    with ``whole``, the whole Dirichlet fields.  ``f`` and ``u0`` are None or
    hold one table per subdomain, from ``tabulate`` or, in mode space,
    ``_mode_data``.

    ``h`` holds the interface traces, (interfaces, N), with a trailing mode
    axis when ``decay`` gives the lines a reaction term (as in
    ``solve_waveform``); the mismatch has the shape of ``h``.
    """
    # subdomain i lies between interfaces i - 1 and i; the outer ends have none
    traces = [None, *h, None]
    fields = solve_dirichlet_waveform(subs, weights, traces[:-1], traces[1:],
                                      f=f if data else None, u0=u0 if data else None,
                                      decay=decay, trim=not whole)
    if whole:
        return tuple(fields)
    return np.stack([
        interface_flux_series(fields[i][1:], "right", subs[i])
        + interface_flux_series(fields[i + 1][1:], "left", subs[i + 1])
        for i in range(len(subs) - 1)
    ])


def _neumann_phase(subs, weights, decay, mismatch, data):
    """Phase (c), which has no data to take: psi, shaped like the flux ``mismatch``."""
    fluxes = [None, *mismatch, None]
    corrections = solve_neumann_waveform(subs, weights, fluxes[:-1], fluxes[1:], decay=decay,
                                         trim=True)
    return np.stack([corrections[i][1:, ..., -1] + corrections[i + 1][1:, ..., 0]
                     for i in range(len(subs) - 1)])


def _affine(dirichlet, neumann, operators, shape, cost):
    """psi of the traces as two phases (``iteration.AffineSweep``): the
    Dirichlet phase, with the data, and the Neumann phase, without.  One call
    of ``operators()`` builds both phases' operators from the maps, so the
    Dirichlet phase carries the whole ``cost``."""
    built = cache(operators)
    return (AffineSweep(march=dirichlet, shape=shape, operator=lambda: built()[0], cost=cost),
            AffineSweep(march=neumann, shape=shape, operator=lambda: built()[1], cost=0.0,
                        data=False))


def _affine_1d(cfg, weights):
    """The phases of an NNWR-1D sweep: psi per interface, (interfaces, N)."""
    subs = cfg.partition.subdomains
    f = u0 = None
    if not cfg.error_mode:
        f, u0 = zip(*(tabulate(weights, cfg.source, cfg.initial_condition, sub.nodes)
                      for sub in subs))
    return _affine(partial(_dirichlet_phase, subs, weights, f, u0, None),
                   partial(_neumann_phase, subs, weights, None),
                   lambda: [blocks[:, :, 0] for blocks in
                            maps.nnwr_operators(maps.interface_maps(subs, weights))],
                   (len(subs) - 1, cfg.n_steps), maps.build_cost(weights, subs))


def run_nnwr_1d(cfg: NnwrConfig, keep_fields: bool = False, members=None):
    """Run the iteration with ``cfg.theta``, or with each of ``members`` in
    turn (one ``RunResult`` per member, as ``run_dnwr`` describes)."""
    t_start = time.perf_counter()
    phases = _affine_1d(cfg, cfg.build_weights())

    def sweep(h, theta, part):
        update = theta[:, None] * part(h)
        return h - update, update

    h0 = cfg.initial_traces((cfg.partition.n_subdomains - 1, cfg.n_steps))
    return iterate(cfg, sweep, h0, members, t_start, phases,
                   partial(phases[0].march, data=True, whole=True) if keep_fields else None)


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
    turn (one ``RunResult`` per member, as ``run_dnwr`` describes).

    The iterate is the lattice trace (N, ny+1); a sweep moves its interior
    rows into mode space, runs the 1D sweep there and moves the update back,
    whose y-boundary entries stay zero.  The kept fields are the lattice
    Dirichlet fields, rebuilt from the modes of a march after the loop.
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
    # a decay that overflows is infinite: the march divides that mode's levels by
    # it, so the mode stays zero (the wave scheme's explicit half makes it a NaN,
    # which the iteration reports as divergence)
    with np.errstate(over="ignore"):
        decay = [s.kappa * (2.0 * np.sin(0.5 * np.pi * k / ny) / dy) ** 2 for s in strips]
    u0 = f_hat = u0_hat = (None, None)
    if not cfg.error_mode:
        f, u0 = zip(*(tabulate(weights, cfg.source, cfg.initial_condition,
                               *np.meshgrid(s.nodes, ys, indexing="ij")) for s in strips))
        f_hat, u0_hat = zip(*(_mode_data(s, dy, weights, fs, us, sine)
                              for s, fs, us in zip(strips, f, u0)))

    # the modes are the positions of each phase, (modes, N), each with its
    # own block; a march takes them as one interface's trailing axis
    def modes(phase):
        return lambda x, data: phase(x.T[None], data)[0].T

    phases = _affine(modes(partial(_dirichlet_phase, strips, weights, f_hat, u0_hat, decay)),
                     modes(partial(_neumann_phase, strips, weights, decay)),
                     lambda: [blocks[1:2, 0] for blocks in
                              maps.nnwr_operators(maps.interface_maps(strips, weights, decay))],
                     (ny - 1, cfg.n_steps), maps.build_cost(weights, strips, ny - 1))

    def sweep(h, theta, part):
        psi_hat = part((h[:, 1:-1] @ sine).T)
        update = np.zeros_like(h)
        # contiguous, as the march's own layout, so that the product rounds alike
        update[:, 1:-1] = np.ascontiguousarray((theta * psi_hat).T) @ sine
        return h - update, update

    def lattice(h):
        fields = []  # the Dirichlet fields: u0 at level 0, then the trace on the interface
        modes = _dirichlet_phase(strips, weights, f_hat, u0_hat, decay,
                                 (h[..., 1:-1] @ sine)[None], True, whole=True)
        for u_hat, start, column in zip(modes, u0, (-1, 0)):
            u = np.zeros((u_hat.shape[0], u_hat.shape[-1], ny + 1))
            np.matmul(np.swapaxes(u_hat, -1, -2), sine, out=u[..., 1:-1])
            u[0] = 0.0 if start is None else start
            u[1:, column, 1:-1] = h[..., 1:-1]
            fields.append(u)
        return tuple(fields)

    h0 = cfg.initial_traces((cfg.n_steps, ny + 1))
    if np.isscalar(cfg.initial_guess):
        h0[:, 0] = h0[:, -1] = 0.0  # trace endpoints sit on the outer boundary
    return iterate(cfg, sweep, h0, members, t_start, phases, lattice if keep_fields else None)
