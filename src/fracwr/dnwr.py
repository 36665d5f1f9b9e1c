"""Two-subdomain Dirichlet-Neumann waveform relaxation.

One sweep solves the left subdomain with the current interface trace imposed
as Dirichlet data over the whole time window, transmits the resulting
outward flux with flipped sign to the right subdomain's Neumann solve, and
relaxes the trace toward the Neumann solution's interface values.  The
sweeps run in the interface iteration of ``fracwr.iteration``.
"""

import math
import time
from dataclasses import dataclass

from .geometry import Partition1D, interface_flux_series
from .iteration import IterationConfig, iterate
from .solver import (
    solve_dirichlet_waveform,
    solve_monolithic,
    solve_neumann_waveform,
    tabulate,
)

__all__ = ["DnwrConfig", "optimal_theta_dnwr", "run_dnwr"]


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

    def __post_init__(self):
        super().__post_init__()
        if self.partition.n_subdomains != 2:
            raise ValueError("the Dirichlet-Neumann driver takes exactly two subdomains")
        self.resolve_theta()

    def optimal_theta(self):
        return [optimal_theta_dnwr(*self.partition.kappas)]


def run_dnwr(cfg: DnwrConfig, keep_fields: bool = False, members=None):
    """Run the iteration with ``cfg.theta``, or with each of ``members``.

    Without ``members`` the call returns one ``RunResult``.  With a sequence
    of weights (each one that ``cfg.theta`` takes) every member marches in
    one batch and the call returns one ``RunResult`` per member, in order,
    each bit for bit the result of a run with that member as ``cfg.theta``.
    """
    t_start = time.perf_counter()
    weights = cfg.build_weights()
    sub1, sub2 = cfg.partition.subdomains
    (f1, u01), (f2, u02) = [
        (None, None) if cfg.error_mode else
        tabulate(weights, cfg.source, cfg.initial_condition, sub.nodes) for sub in (sub1, sub2)
    ]

    def sweep(h, theta):
        m = len(h)
        u1 = solve_dirichlet_waveform(sub1, weights, None, h, f=f1, u0=u01, members=m)
        flux = interface_flux_series(u1[:, 1:], "right", sub1)
        u2 = solve_neumann_waveform(sub2, weights, -flux, None, f=f2, u0=u02, members=m)
        h_new = theta * u2[:, 1:, 0] + (1.0 - theta) * h
        return h_new, h_new - h, (u1, u2)

    results = iterate(cfg, sweep, cfg.initial_traces((cfg.n_steps,)),
                      cfg.member_thetas(members), t_start, keep_fields)
    return results if members is not None else results[0]


def monolithic_reference(cfg: DnwrConfig):
    """Whole-domain solve with the configured data, for forced-mode checks."""
    weights = cfg.build_weights()
    return solve_monolithic(
        cfg.partition, weights, f=cfg.source, u0=cfg.initial_condition
    )
