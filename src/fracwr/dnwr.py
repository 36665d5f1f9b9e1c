"""Two-subdomain Dirichlet-Neumann waveform relaxation.

One sweep solves the left subdomain with the current interface trace imposed
as Dirichlet data over the whole time window, transmits the resulting
outward flux with flipped sign to the right subdomain's Neumann solve, and
relaxes the trace toward the Neumann solution's interface values.  The
sweeps run in the interface iteration of ``fracwr.iteration``.

The Neumann trace is affine in the Dirichlet trace, ``g = S h + c``, with a
lower-triangular matrix ``S`` that does not depend on ``theta`` (``c`` = 0 in
error-equation mode); a sweep is ``h -> theta*g + (1-theta)*h``.  On a
uniform time mesh ``S`` is Toeplitz and one impulse march builds it; on a
graded mesh an error-equation run builds it from N impulses, about the cost
of ``ceil(N/4)`` one-member sweeps.  A run whose ``max_iter`` exceeds the
build's cost builds ``S`` before its first sweep and applies it in every
sweep; any other run, and every forced run on a graded mesh, marches every
sweep.  ``S`` is built as one phase: each half-step has one position, so
two phases would make as many marches.
"""

import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from .geometry import Partition1D, interface_flux_series
from .iteration import AffineSweep, IterationConfig, iterate, transfer_operator
from .solver import solve_dirichlet_waveform, solve_neumann_waveform, tabulate
from .theory import optimal_theta_dnwr

__all__ = ["DnwrConfig", "optimal_theta_dnwr", "run_dnwr", "transfer_matrix"]


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


def _half_steps(subs, weights, h, f=(None, None), u0=(None, None), trim=True):
    """The Dirichlet and the Neumann field of one sweep from the traces ``h``
    (members, N), with ``trim`` at the nodes the sweep reads (``solve_waveform``).
    Each half-step marches its subdomain alone, with the tables ``f`` and
    ``u0`` of that subdomain."""
    sub1, sub2 = subs
    (u1,) = solve_dirichlet_waveform([sub1], weights, [None], [h], len(h), f=[f[0]], u0=[u0[0]],
                                     trim=trim)
    flux = interface_flux_series(u1[:, 1:], "right", sub1)
    (u2,) = solve_neumann_waveform([sub2], weights, [-flux], [None], len(h), f=[f[1]],
                                   u0=[u0[1]], trim=trim)
    return u1, u2


def _affine(subs, weights, f=(None, None), u0=(None, None)) -> AffineSweep:
    """The Neumann interface trace ``g`` of the traces ``h`` (members, N), one
    position."""
    def march(h, data):
        return _half_steps(subs, weights, h, *((f, u0) if data else ()))[1][:, 1:, 0]

    return AffineSweep(march=march, layout=lambda h: h[:, None], shape=(weights.n_steps,),
                       graded=True)


def transfer_matrix(partition: Partition1D, weights) -> np.ndarray:
    """The matrix ``S`` of the error-equation sweep ``h -> theta*S h + (1-theta)*h``.

    Column j is the Neumann solve's interface trace answering a unit trace at
    level j with zero data (``iteration.transfer_operator``).  No level
    answers a later impulse, so ``S`` is lower triangular.
    """
    return transfer_operator(_affine(partition.subdomains, weights))[0, 0]


def run_dnwr(cfg: DnwrConfig, keep_fields: bool = False, members=None):
    """Run the iteration with ``cfg.theta``, or with each of ``members``.

    Without ``members`` the call returns one ``RunResult``.  With a sequence
    of weights (each one that ``cfg.theta`` takes) every member marches in
    one batch and the call returns one ``RunResult`` per member, in order,
    each bit for bit the result of a run with that member as ``cfg.theta``.

    A sweep's ``g`` is marched or, where ``fracwr.iteration`` assembles ``S``
    (see the module docstring), the product of ``S`` with each member's trace
    (plus ``c``).  Under ``keep_fields`` the two whole half-step fields are
    marched once, after the last sweep, at the trace that sweep started from.
    """
    t_start = time.perf_counter()
    weights = cfg.build_weights()
    subs = cfg.partition.subdomains
    f, u0 = zip(*[
        (None, None) if cfg.error_mode else
        tabulate(weights, cfg.source, cfg.initial_condition, sub.nodes) for sub in subs
    ])

    def sweep(h, theta, part):
        h_new = theta * part(h) + (1.0 - theta) * h
        return h_new, h_new - h

    fields = partial(_half_steps, subs, weights, f=f, u0=u0, trim=False) if keep_fields else None
    results = iterate(cfg, sweep, cfg.initial_traces((cfg.n_steps,)), cfg.member_thetas(members),
                      t_start, (_affine(subs, weights, f, u0),), fields)
    return results if members is not None else results[0]
