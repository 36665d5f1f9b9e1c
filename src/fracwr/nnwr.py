"""Neumann-Neumann waveform relaxation in 1D and 2D.

Each sweep has four phases: (a) Dirichlet solves on all subdomains with the
current interface traces, (b) assembly of the outward-flux mismatch
kappa_i d_n u_i + kappa_j d_n u_j per interface, (c) zero-data Neumann
correction solves driven by that mismatch (physical boundaries keep a
homogeneous Dirichlet condition), and (d) the relaxed trace update
h <- h - theta * (psi_i + psi_j) per interface.  The solves of phases (a)
and (c) are independent across subdomains, as in the paper; they run one
after another in fixed subdomain order, so a rerun reproduces the iterates
bit for bit.  Both drivers run their sweeps in the interface iteration of
``fracwr.iteration``.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .geometry import Partition1D, Subdomain2D, interface_flux_series
from .iteration import IterationConfig, IterationReport, iterate
from .solver import (
    interface_flux_series_2d,
    solve_dirichlet_waveform,
    solve_dirichlet_waveform_2d,
    solve_neumann_waveform,
    solve_neumann_waveform_2d,
)

__all__ = [
    "NnwrConfig",
    "Nnwr2dConfig",
    "NnwrResult",
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
    thetas: object = "optimal"
    max_iter: int = 60

    def __post_init__(self):
        super().__post_init__()
        if self.partition.n_subdomains < 2:
            raise ValueError("need at least two subdomains")
        th = self.resolve_thetas()
        if np.any(th <= 0.0) or np.any(th > 1.0):
            raise ValueError(f"interface weights must lie in (0, 1], got {th}")

    def resolve_thetas(self) -> np.ndarray:
        kappas = self.partition.kappas
        n_ifc = self.partition.n_subdomains - 1
        if isinstance(self.thetas, str) and self.thetas == "optimal":
            return np.array(
                [optimal_theta_nnwr(kappas[i], kappas[i + 1]) for i in range(n_ifc)]
            )
        if np.isscalar(self.thetas):
            return np.full(n_ifc, float(self.thetas))
        arr = np.asarray(self.thetas, dtype=float)
        if arr.shape != (n_ifc,):
            raise ValueError(f"theta list has shape {arr.shape}, expected ({n_ifc},)")
        return arr.copy()


@dataclass(frozen=True)
class NnwrResult:
    report: IterationReport
    traces: np.ndarray  # final per-interface traces, (n_interfaces, N) or (N, ny+1)
    fields: tuple = field(default=None, repr=False)


def run_nnwr_1d(cfg: NnwrConfig, keep_fields: bool = False) -> NnwrResult:
    t_start = time.perf_counter()
    weights = cfg.build_weights()
    subs = cfg.partition.subdomains
    n_sub = len(subs)
    thetas = cfg.resolve_thetas()
    f = None if cfg.error_mode else cfg.source
    u0 = None if cfg.error_mode else cfg.initial_condition

    def sweep(h):
        # subdomain i lies between interfaces i - 1 and i; the outer ends have none
        traces = [None, *h, None]
        fields = [
            solve_dirichlet_waveform(sub, weights, traces[i], traces[i + 1], f=f, u0=u0)
            for i, sub in enumerate(subs)
        ]

        mismatch = [
            interface_flux_series(fields[m][1:], "right", subs[m])
            + interface_flux_series(fields[m + 1][1:], "left", subs[m + 1])
            for m in range(n_sub - 1)
        ]

        fluxes = [None, *mismatch, None]
        corrections = [
            solve_neumann_waveform(sub, weights, fluxes[i], fluxes[i + 1])
            for i, sub in enumerate(subs)
        ]

        updates = np.array(
            [
                thetas[m] * (corrections[m][1:, -1] + corrections[m + 1][1:, 0])
                for m in range(n_sub - 1)
            ]
        )
        return h - updates, updates, tuple(fields)

    h0 = cfg.initial_traces((n_sub - 1, cfg.n_steps))
    report, h, fields = iterate(cfg, sweep, h0, thetas, t_start)
    return NnwrResult(report=report, traces=h, fields=fields if keep_fields else None)


@dataclass(frozen=True, kw_only=True)
class Nnwr2dConfig(IterationConfig):
    left: Subdomain2D
    right: Subdomain2D
    theta: object = "optimal"
    max_iter: int = 30

    def __post_init__(self):
        super().__post_init__()
        if abs(self.left.x_right - self.right.x_left) > 1e-12:
            raise ValueError("subdomains do not share a vertical interface")
        l, r = self.left, self.right
        if l.ny != r.ny or max(abs(l.y_bottom - r.y_bottom), abs(l.y_top - r.y_top)) > 1e-12:
            raise ValueError("subdomains must share the interface lattice")
        self.resolve_theta()

    def resolve_theta(self) -> float:
        if isinstance(self.theta, str) and self.theta == "optimal":
            return optimal_theta_nnwr(self.left.kappa, self.right.kappa)
        th = float(self.theta)
        if not 0.0 < th <= 1.0:
            raise ValueError(f"theta must lie in (0, 1], got {th}")
        return th


def run_nnwr_2d(cfg: Nnwr2dConfig, keep_fields: bool = False) -> NnwrResult:
    t_start = time.perf_counter()
    weights = cfg.build_weights()
    theta = cfg.resolve_theta()
    f = None if cfg.error_mode else cfg.source
    u0 = None if cfg.error_mode else cfg.initial_condition

    def sweep(h):
        u_left = solve_dirichlet_waveform_2d(cfg.left, weights, "right", h, f=f, u0=u0)
        u_right = solve_dirichlet_waveform_2d(cfg.right, weights, "left", h, f=f, u0=u0)
        mismatch = interface_flux_series_2d(
            u_left[1:], "right", cfg.left
        ) + interface_flux_series_2d(u_right[1:], "left", cfg.right)

        psi_left = solve_neumann_waveform_2d(cfg.left, weights, "right", mismatch)
        psi_right = solve_neumann_waveform_2d(cfg.right, weights, "left", mismatch)
        update = theta * (psi_left[1:, -1, :] + psi_right[1:, 0, :])
        return h - update, update, (u_left, u_right)

    h0 = cfg.initial_traces((cfg.n_steps, cfg.left.ny + 1))
    if np.isscalar(cfg.initial_guess):
        h0[:, 0] = h0[:, -1] = 0.0  # trace endpoints sit on the outer boundary
    report, h, fields = iterate(cfg, sweep, h0, theta, t_start)
    return NnwrResult(report=report, traces=h, fields=fields if keep_fields else None)
