"""Two-subdomain Dirichlet-Neumann waveform relaxation.

One sweep solves the left subdomain with the current interface trace imposed
as Dirichlet data over the whole time window, transmits the resulting
outward flux with flipped sign to the right subdomain's Neumann solve, and
relaxes the trace toward the Neumann solution's interface values.  The
sweeps run in the interface iteration of ``fracwr.iteration``.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .geometry import Partition1D, interface_flux_series
from .iteration import IterationConfig, IterationReport, iterate
from .solver import solve_dirichlet_waveform, solve_monolithic, solve_neumann_waveform

__all__ = ["DnwrConfig", "DnwrResult", "optimal_theta_dnwr", "run_dnwr"]


def optimal_theta_dnwr(kappa1: float, kappa2: float) -> float:
    """Relaxation weight 1 / (1 + sqrt(kappa1/kappa2)).

    Gives two-sweep convergence for equal scaled lengths and the superlinear
    estimates otherwise.  The convention with the roles of the coefficients
    swapped, sqrt(kappa1)/(sqrt(kappa1)+sqrt(kappa2)), equals
    ``optimal_theta_dnwr(kappa2, kappa1)``.
    """
    if not (kappa1 > 0.0 and kappa2 > 0.0):
        raise ValueError(f"diffusion coefficients must be positive, got {kappa1}, {kappa2}")
    return 1.0 / (1.0 + math.sqrt(kappa1 / kappa2))


@dataclass(frozen=True, kw_only=True)
class DnwrConfig(IterationConfig):
    partition: Partition1D
    theta: object = "optimal"

    def __post_init__(self):
        super().__post_init__()
        if self.partition.n_subdomains != 2:
            raise ValueError("the Dirichlet-Neumann driver takes exactly two subdomains")
        th = self.resolve_theta()
        if not 0.0 < th <= 1.0:
            raise ValueError(f"theta must lie in (0, 1], got {th}")

    def resolve_theta(self) -> float:
        if self.theta == "optimal":
            k1, k2 = self.partition.kappas
            return optimal_theta_dnwr(k1, k2)
        return float(self.theta)


@dataclass(frozen=True)
class DnwrResult:
    report: IterationReport
    trace: np.ndarray  # final interface trace at t_1..t_N
    fields: tuple = field(default=None, repr=False)  # final (u1, u2)


def run_dnwr(cfg: DnwrConfig, keep_fields: bool = False) -> DnwrResult:
    t_start = time.perf_counter()
    weights = cfg.build_weights()
    sub1, sub2 = cfg.partition.subdomains
    theta = cfg.resolve_theta()
    f = None if cfg.error_mode else cfg.source
    u0 = None if cfg.error_mode else cfg.initial_condition

    def sweep(h):
        u1 = solve_dirichlet_waveform(sub1, weights, None, h, f=f, u0=u0)
        flux = interface_flux_series(u1[1:], "right", sub1)
        u2 = solve_neumann_waveform(sub2, weights, -flux, None, f=f, u0=u0)
        h_new = theta * u2[1:, 0] + (1.0 - theta) * h
        return h_new, h_new - h, (u1, u2)

    report, h, fields = iterate(cfg, sweep, cfg.initial_traces((cfg.n_steps,)), theta, t_start)
    return DnwrResult(report=report, trace=h, fields=fields if keep_fields else None)


def monolithic_reference(cfg: DnwrConfig):
    """Whole-domain solve with the configured data, for forced-mode checks."""
    weights = cfg.build_weights()
    return solve_monolithic(
        cfg.partition, weights, f=cfg.source, u0=cfg.initial_condition
    )
