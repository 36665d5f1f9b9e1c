"""Neumann-Neumann waveform relaxation in 1D and 2D.

Each sweep has four phases: (a) Dirichlet solves on all subdomains with the
current interface traces, (b) assembly of the outward-flux mismatch
kappa_i d_n u_i + kappa_j d_n u_j per interface, (c) zero-data Neumann
correction solves driven by that mismatch (physical boundaries keep a
homogeneous Dirichlet condition), and (d) the relaxed trace update
h <- h - theta * (psi_i + psi_j) per interface.  The solves of phases (a)
and (c) are independent across subdomains, as in the paper.  In 1D each
phase is one stacked march over all subdomains (and all members of a
relaxation sweep), which gives every subdomain bit for bit the field of its
own march, so a rerun reproduces the iterates bit for bit.  The two 2D
strips march one after another.  Both drivers run their sweeps in the
interface iteration of ``fracwr.iteration``; the source and the initial
condition are tabulated once per run.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from .geometry import Partition1D, Subdomain2D, interface_flux_series
from .iteration import IterationConfig, iterate
from .solver import (
    interface_flux_series_2d,
    solve_dirichlet_waveform,
    solve_dirichlet_waveform_2d,
    solve_neumann_waveform,
    solve_neumann_waveform_2d,
    tabulate,
)

__all__ = [
    "NnwrConfig",
    "Nnwr2dConfig",
    "optimal_theta_nnwr",
    "run_nnwr_1d",
    "run_nnwr_2d",
]


def optimal_theta_nnwr(kappa_left: float, kappa_right: float) -> float:
    """Interface weight 1 / (2 + sqrt(ki/kj) + sqrt(kj/ki)); 1/4 for equal kappa."""
    if not (kappa_left > 0.0 and kappa_right > 0.0):
        raise ValueError("diffusion coefficients must be positive")
    r = math.sqrt(kappa_left / kappa_right)
    return 1.0 / (2.0 + r + 1.0 / r)


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


def run_nnwr_1d(cfg: NnwrConfig, keep_fields: bool = False, members=None):
    """Run the iteration with ``cfg.theta``, or with each of ``members`` in
    one batch (one ``RunResult`` per member, as ``run_dnwr`` describes)."""
    t_start = time.perf_counter()
    weights = cfg.build_weights()
    subs = cfg.partition.subdomains
    n_sub = len(subs)
    f = u0 = None
    if not cfg.error_mode:
        f, u0 = zip(*(tabulate(weights, cfg.source, cfg.initial_condition, sub.nodes)
                      for sub in subs))

    def sweep(h, thetas):
        m = len(h)
        # subdomain i lies between interfaces i - 1 and i; the outer ends have none
        traces = [None, *h.swapaxes(0, 1), None]
        fields = solve_dirichlet_waveform(subs, weights, traces[:-1], traces[1:], f=f, u0=u0,
                                          members=m)

        mismatch = [
            interface_flux_series(fields[i][:, 1:], "right", subs[i])
            + interface_flux_series(fields[i + 1][:, 1:], "left", subs[i + 1])
            for i in range(n_sub - 1)
        ]

        fluxes = [None, *mismatch, None]
        corrections = solve_neumann_waveform(subs, weights, fluxes[:-1], fluxes[1:], members=m)

        updates = np.stack(
            [
                thetas[:, i, None] * (corrections[i][:, 1:, -1] + corrections[i + 1][:, 1:, 0])
                for i in range(n_sub - 1)
            ],
            axis=1,
        )
        return h - updates, updates, tuple(fields)

    h0 = cfg.initial_traces((n_sub - 1, cfg.n_steps))
    results = iterate(cfg, sweep, h0, cfg.member_thetas(members), t_start, keep_fields)
    return results if members is not None else results[0]


@dataclass(frozen=True, kw_only=True)
class Nnwr2dConfig(IterationConfig):
    left: Subdomain2D
    right: Subdomain2D
    max_iter: int = 30

    def __post_init__(self):
        super().__post_init__()
        if abs(self.left.x_right - self.right.x_left) > 1e-12:
            raise ValueError("subdomains do not share a vertical interface")
        l, r = self.left, self.right
        if l.ny != r.ny or max(abs(l.y_bottom - r.y_bottom), abs(l.y_top - r.y_top)) > 1e-12:
            raise ValueError("subdomains must share the interface lattice")
        self.resolve_theta()

    def optimal_theta(self):
        return [optimal_theta_nnwr(self.left.kappa, self.right.kappa)]


def run_nnwr_2d(cfg: Nnwr2dConfig, keep_fields: bool = False, members=None):
    """Run the iteration with ``cfg.theta``, or with each of ``members`` in
    one batch (one ``RunResult`` per member, as ``run_dnwr`` describes)."""
    t_start = time.perf_counter()
    weights = cfg.build_weights()
    (f_left, u0_left), (f_right, u0_right) = [
        (None, None) if cfg.error_mode else
        tabulate(weights, cfg.source, cfg.initial_condition,
                 *np.meshgrid(sub.xs, sub.ys, indexing="ij")) for sub in (cfg.left, cfg.right)
    ]

    def sweep(h, theta):
        m = len(h)
        u_left = solve_dirichlet_waveform_2d(cfg.left, weights, "right", h, f=f_left,
                                             u0=u0_left, members=m)
        u_right = solve_dirichlet_waveform_2d(cfg.right, weights, "left", h, f=f_right,
                                              u0=u0_right, members=m)
        mismatch = interface_flux_series_2d(
            u_left[:, 1:], "right", cfg.left
        ) + interface_flux_series_2d(u_right[:, 1:], "left", cfg.right)

        psi_left = solve_neumann_waveform_2d(cfg.left, weights, "right", mismatch, members=m)
        psi_right = solve_neumann_waveform_2d(cfg.right, weights, "left", mismatch, members=m)
        update = theta[:, :, None] * (psi_left[:, 1:, -1, :] + psi_right[:, 1:, 0, :])
        return h - update, update, (u_left, u_right)

    h0 = cfg.initial_traces((cfg.n_steps, cfg.left.ny + 1))
    if np.isscalar(cfg.initial_guess):
        h0[:, 0] = h0[:, -1] = 0.0  # trace endpoints sit on the outer boundary
    results = iterate(cfg, sweep, h0, cfg.member_thetas(members), t_start, keep_fields)
    return results if members is not None else results[0]
