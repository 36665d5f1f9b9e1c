"""Fully parallel Neumann-Neumann waveform relaxation in 1D and 2D.

Each sweep has four phases: (a) Dirichlet solves on all subdomains with the
current interface traces, (b) assembly of the outward-flux mismatch
kappa_i d_n u_i + kappa_j d_n u_j per interface, (c) zero-data Neumann
correction solves driven by that mismatch (physical boundaries keep a
homogeneous Dirichlet condition), and (d) the relaxed trace update
h <- h - theta * (psi_i + psi_j) per interface.  Phases (a) and (c) are
embarrassingly parallel across subdomains; results are reduced in fixed
subdomain order so sequential and threaded scheduling produce bit-identical
iterates.
"""

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .dnwr import IterationReport
from .fractional_time import build_graded_mesh, caputo_weights, default_grading
from .geometry import Partition1D, Subdomain2D, interface_flux_series
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


def _run_tasks(tasks, scheduler: str):
    if scheduler == "threads":
        with ThreadPoolExecutor(max_workers=len(tasks)) as pool:
            return list(pool.map(lambda task: task(), tasks))
    return [task() for task in tasks]


@dataclass(frozen=True)
class NnwrConfig:
    partition: Partition1D
    order: float
    horizon: float
    n_steps: int
    thetas: object = "optimal"
    tolerance: float = 1e-8
    max_iter: int = 60
    mode: str = "error_equation"
    initial_guess: object = 1.0
    grading: object = "auto"
    source: object = None
    initial_condition: object = None
    scheduler: str = "sequential"

    def __post_init__(self):
        if self.partition.n_subdomains < 2:
            raise ValueError("need at least two subdomains")
        if self.mode not in ("error_equation", "forced"):
            raise ValueError(f"mode must be 'error_equation' or 'forced', got {self.mode!r}")
        if self.scheduler not in ("sequential", "threads"):
            raise ValueError(f"scheduler must be 'sequential' or 'threads', got {self.scheduler!r}")
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

    def build_weights(self):
        r = default_grading(self.order) if self.grading == "auto" else float(self.grading)
        mesh = build_graded_mesh(self.horizon, self.n_steps, r)
        return caputo_weights(mesh, self.order)


@dataclass(frozen=True)
class NnwrResult:
    report: IterationReport
    traces: np.ndarray  # final per-interface traces, (n_interfaces, N) or (N, ny+1)
    fields: tuple = field(default=None, repr=False)


def _initial_traces(guess, n_ifc, n_steps):
    if np.isscalar(guess):
        return np.full((n_ifc, n_steps), float(guess))
    arr = np.asarray(guess, dtype=float)
    if arr.shape != (n_ifc, n_steps):
        raise ValueError(f"initial guesses have shape {arr.shape}, expected {(n_ifc, n_steps)}")
    return arr.copy()


def run_nnwr_1d(cfg: NnwrConfig, keep_fields: bool = False) -> NnwrResult:
    t_start = time.perf_counter()
    weights = cfg.build_weights()
    subs = cfg.partition.subdomains
    n_sub = len(subs)
    thetas = cfg.resolve_thetas()
    error_mode = cfg.mode == "error_equation"
    f = None if error_mode else cfg.source
    u0 = None if error_mode else cfg.initial_condition

    h = _initial_traces(cfg.initial_guess, n_sub - 1, cfg.n_steps)

    errors = []
    converged = False
    fields = None
    for _ in range(cfg.max_iter):
        def dirichlet_task(i):
            left = h[i - 1] if i > 0 else None
            right = h[i] if i < n_sub - 1 else None
            return lambda: solve_dirichlet_waveform(subs[i], weights, left, right, f=f, u0=u0)

        fields = _run_tasks([dirichlet_task(i) for i in range(n_sub)], cfg.scheduler)

        mismatch = [
            interface_flux_series(fields[m][1:], "right", subs[m])
            + interface_flux_series(fields[m + 1][1:], "left", subs[m + 1])
            for m in range(n_sub - 1)
        ]

        def neumann_task(i):
            left = mismatch[i - 1] if i > 0 else None
            right = mismatch[i] if i < n_sub - 1 else None
            return lambda: solve_neumann_waveform(subs[i], weights, left, right)

        corrections = _run_tasks([neumann_task(i) for i in range(n_sub)], cfg.scheduler)

        updates = np.array(
            [
                thetas[m] * (corrections[m][1:, -1] + corrections[m + 1][1:, 0])
                for m in range(n_sub - 1)
            ]
        )
        h = h - updates
        if error_mode:
            err = np.max(np.abs(h), axis=1)
        else:
            err = np.max(np.abs(updates), axis=1)
        errors.append(err)
        if float(err.max()) <= cfg.tolerance:
            converged = True
            break

    report = IterationReport(
        errors=np.asarray(errors),
        converged=converged,
        theta=thetas,
        wall_time=time.perf_counter() - t_start,
    )
    return NnwrResult(report=report, traces=h, fields=tuple(fields) if keep_fields else None)


@dataclass(frozen=True)
class Nnwr2dConfig:
    left: Subdomain2D
    right: Subdomain2D
    order: float
    horizon: float
    n_steps: int
    theta: object = "optimal"
    tolerance: float = 1e-8
    max_iter: int = 30
    mode: str = "error_equation"
    initial_guess: object = 1.0
    grading: object = "auto"
    source: object = None
    initial_condition_left: object = None
    initial_condition_right: object = None
    scheduler: str = "sequential"

    def __post_init__(self):
        if abs(self.left.x_right - self.right.x_left) > 1e-12:
            raise ValueError("subdomains do not share a vertical interface")
        l, r = self.left, self.right
        if l.ny != r.ny or max(abs(l.y_bottom - r.y_bottom), abs(l.y_top - r.y_top)) > 1e-12:
            raise ValueError("subdomains must share the interface lattice")
        if self.mode not in ("error_equation", "forced"):
            raise ValueError(f"mode must be 'error_equation' or 'forced', got {self.mode!r}")
        if self.scheduler not in ("sequential", "threads"):
            raise ValueError(f"scheduler must be 'sequential' or 'threads', got {self.scheduler!r}")
        self.resolve_theta()

    def resolve_theta(self) -> float:
        if isinstance(self.theta, str) and self.theta == "optimal":
            return optimal_theta_nnwr(self.left.kappa, self.right.kappa)
        th = float(self.theta)
        if not 0.0 < th <= 1.0:
            raise ValueError(f"theta must lie in (0, 1], got {th}")
        return th

    def build_weights(self):
        r = default_grading(self.order) if self.grading == "auto" else float(self.grading)
        mesh = build_graded_mesh(self.horizon, self.n_steps, r)
        return caputo_weights(mesh, self.order)


def run_nnwr_2d(cfg: Nnwr2dConfig, keep_fields: bool = False) -> NnwrResult:
    t_start = time.perf_counter()
    weights = cfg.build_weights()
    theta = cfg.resolve_theta()
    ny1 = cfg.left.ny + 1
    error_mode = cfg.mode == "error_equation"
    f = None if error_mode else cfg.source
    u0l = None if error_mode else cfg.initial_condition_left
    u0r = None if error_mode else cfg.initial_condition_right

    if np.isscalar(cfg.initial_guess):
        h = np.full((cfg.n_steps, ny1), float(cfg.initial_guess))
        h[:, 0] = h[:, -1] = 0.0  # trace endpoints sit on the outer boundary
    else:
        h = np.asarray(cfg.initial_guess, dtype=float).copy()
        if h.shape != (cfg.n_steps, ny1):
            raise ValueError(f"initial guess has shape {h.shape}, expected {(cfg.n_steps, ny1)}")

    errors = []
    converged = False
    fields = None
    for _ in range(cfg.max_iter):
        tasks = [
            lambda: solve_dirichlet_waveform_2d(cfg.left, weights, "right", h, f=f, u0=u0l),
            lambda: solve_dirichlet_waveform_2d(cfg.right, weights, "left", h, f=f, u0=u0r),
        ]
        fields = _run_tasks(tasks, cfg.scheduler)
        mismatch = interface_flux_series_2d(
            fields[0][1:], "right", cfg.left
        ) + interface_flux_series_2d(fields[1][1:], "left", cfg.right)

        tasks = [
            lambda: solve_neumann_waveform_2d(cfg.left, weights, "right", mismatch),
            lambda: solve_neumann_waveform_2d(cfg.right, weights, "left", mismatch),
        ]
        corrections = _run_tasks(tasks, cfg.scheduler)
        update = theta * (corrections[0][1:, -1, :] + corrections[1][1:, 0, :])
        h = h - update
        err = float(np.max(np.abs(h))) if error_mode else float(np.max(np.abs(update)))
        errors.append(err)
        if err <= cfg.tolerance:
            converged = True
            break

    report = IterationReport(
        errors=np.asarray(errors)[:, None],
        converged=converged,
        theta=np.array([theta]),
        wall_time=time.perf_counter() - t_start,
    )
    return NnwrResult(report=report, traces=h, fields=tuple(fields) if keep_fields else None)
