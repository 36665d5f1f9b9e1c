"""Two-subdomain Dirichlet-Neumann waveform relaxation.

One sweep solves the left subdomain with the current interface trace imposed
as Dirichlet data over the whole time window, transmits the resulting
outward flux with flipped sign to the right subdomain's Neumann solve, and
relaxes the trace toward the Neumann solution's interface values.  The
sweeps run in the interface iteration of ``fracwr.iteration``.

The Neumann trace is affine in the Dirichlet trace, ``g = S h + c``, with a
lower-triangular matrix ``S`` that does not depend on ``theta`` (``c`` = 0 in
error-equation mode); a sweep is ``h -> theta*g + (1-theta)*h``.  ``S`` is
the left subdomain's Dirichlet flux at the interface, sent through the right
subdomain's Neumann map (``fracwr.maps``).  A run whose ``max_iter`` exceeds
the cost of building it (``maps.build_cost``, one march that checks it,
plus the march of ``c`` in forced mode) builds ``S`` before its first sweep
and applies it in every sweep; any other run marches every sweep.  ``S`` is
built as one phase: each half-step has one position, so two phases would
make as many marches.
"""

import time
from dataclasses import dataclass
from functools import partial

from . import maps
from .geometry import Partition1D, interface_flux_series
from .iteration import AffineSweep, IterationConfig, iterate
from .solver import solve_dirichlet_waveform, solve_neumann_waveform, tabulate
from .theory import optimal_theta_dnwr

__all__ = ["DnwrConfig", "optimal_theta_dnwr", "run_dnwr"]


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
    """The Dirichlet and the Neumann field of one sweep from the trace ``h``
    (N,), with ``trim`` at the nodes the sweep reads (``solve_waveform``).
    Each half-step marches its subdomain alone, with the tables ``f`` and
    ``u0`` of that subdomain."""
    sub1, sub2 = subs
    (u1,) = solve_dirichlet_waveform([sub1], weights, [None], [h], f=[f[0]], u0=[u0[0]],
                                     trim=trim)
    flux = interface_flux_series(u1[1:], "right", sub1)
    (u2,) = solve_neumann_waveform([sub2], weights, [-flux], [None], f=[f[1]], u0=[u0[1]],
                                   trim=trim)
    return u1, u2


def _affine(subs, weights, f=(None, None), u0=(None, None)) -> AffineSweep:
    """The Neumann interface trace ``g`` of the trace ``h`` (1, N): one
    position, with ``S`` from the two subdomains' maps."""
    def march(h, data):
        return _half_steps(subs, weights, h[0], *((f, u0) if data else ()))[1][None, 1:, 0]

    return AffineSweep(march=march, shape=(1, weights.n_steps),
                       operator=lambda: maps.dnwr_operator(maps.interface_maps(subs, weights)),
                       cost=maps.build_cost(weights, subs))


def run_dnwr(cfg: DnwrConfig, keep_fields: bool = False, members=None):
    """Run the iteration with ``cfg.theta``, or with each of ``members``.

    Without ``members`` the call returns one ``RunResult``.  With a sequence
    of weights (each one that ``cfg.theta`` takes) the members run in turn,
    sharing the built ``S`` and its check, and the call returns one
    ``RunResult`` per member, in order, each bit for bit the result of a run
    with that member as ``cfg.theta``.

    A sweep's ``g`` is marched or, where ``fracwr.iteration`` assembles ``S``
    (see the module docstring), the product of ``S`` with the member's trace
    (plus ``c``).  Under ``keep_fields`` each member's two whole half-step
    fields are marched once, after the last member, at the trace its last
    sweep started from.
    """
    t_start = time.perf_counter()
    weights = cfg.build_weights()
    subs = cfg.partition.subdomains
    f, u0 = zip(*[
        (None, None) if cfg.error_mode else
        tabulate(weights, cfg.source, cfg.initial_condition, sub.nodes) for sub in subs
    ])

    def sweep(h, theta, part):
        h_new = theta * part(h[None])[0] + (1.0 - theta) * h
        return h_new, h_new - h

    fields = partial(_half_steps, subs, weights, f=f, u0=u0, trim=False) if keep_fields else None
    return iterate(cfg, sweep, cfg.initial_traces((cfg.n_steps,)), members, t_start,
                   (_affine(subs, weights, f, u0),), fields)
