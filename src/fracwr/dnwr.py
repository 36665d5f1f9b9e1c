"""Two-subdomain Dirichlet-Neumann waveform relaxation.

One sweep solves the left subdomain with the current interface trace imposed
as Dirichlet data over the whole time window, transmits the resulting
outward flux with flipped sign to the right subdomain's Neumann solve, and
relaxes the trace toward the Neumann solution's interface values.  The
sweeps run in the interface iteration of ``fracwr.iteration``.

In error-equation mode a sweep is linear, ``h -> theta*S h + (1-theta)*h``
with a lower-triangular matrix ``S`` that does not depend on ``theta``.  A
run marches its first ``ceil(N/4)`` sweeps; if any member is still active
then, it builds ``S`` once and applies it in every later sweep.
"""

import time
from dataclasses import dataclass

import numpy as np

from .geometry import Partition1D, interface_flux_series
from .iteration import IterationConfig, iterate
from .solver import solve_dirichlet_waveform, solve_neumann_waveform, tabulate
from .theory import optimal_theta_dnwr

__all__ = ["DnwrConfig", "optimal_theta_dnwr", "run_dnwr", "transfer_matrix"]

# Impulse columns marched as one batch when ``S`` is built: a wider batch
# raises the peak memory of a run and saves no time.
TRANSFER_CHUNK = 16


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


def _half_steps(subs, weights, h, f=(None, None), u0=(None, None)):
    """The Dirichlet and the Neumann field of one sweep from the traces ``h`` (members, N)."""
    sub1, sub2 = subs
    m = len(h)
    u1 = solve_dirichlet_waveform(sub1, weights, None, h, f=f[0], u0=u0[0], members=m)
    flux = interface_flux_series(u1[:, 1:], "right", sub1)
    u2 = solve_neumann_waveform(sub2, weights, -flux, None, f=f[1], u0=u0[1], members=m)
    return u1, u2


def transfer_matrix(partition: Partition1D, weights) -> np.ndarray:
    """The matrix ``S`` of the error-equation sweep ``h -> theta*S h + (1-theta)*h``.

    Column j is the Neumann solve's interface trace answering a unit trace at
    level j with zero data.  The columns march ``TRANSFER_CHUNK`` at a time
    as the members of one batch, so ``S`` does not depend on the chunk size.
    No level answers a later impulse, so ``S`` is lower triangular.
    """
    n = weights.n_steps
    eye = np.eye(n)
    s = np.empty((n, n))
    for j in range(0, n, TRANSFER_CHUNK):
        _, u2 = _half_steps(partition.subdomains, weights, eye[j:j + TRANSFER_CHUNK])
        s[:, j:j + TRANSFER_CHUNK] = u2[:, 1:, 0].T
    return s


def run_dnwr(cfg: DnwrConfig, keep_fields: bool = False, members=None):
    """Run the iteration with ``cfg.theta``, or with each of ``members``.

    Without ``members`` the call returns one ``RunResult``.  With a sequence
    of weights (each one that ``cfg.theta`` takes) every member marches in
    one batch and the call returns one ``RunResult`` per member, in order,
    each bit for bit the result of a run with that member as ``cfg.theta``.

    In error-equation mode every sweep after the first ``ceil(N/4)`` is the
    product of ``transfer_matrix`` with each member's trace; under
    ``keep_fields`` such a sweep also marches the trace it starts from, for
    the fields.
    """
    t_start = time.perf_counter()
    weights = cfg.build_weights()
    subs = cfg.partition.subdomains
    f, u0 = zip(*[
        (None, None) if cfg.error_mode else
        tabulate(weights, cfg.source, cfg.initial_condition, sub.nodes) for sub in subs
    ])
    # the sweeps marched before S takes over: a build costs about N/4 marched sweeps
    marched = -(-cfg.n_steps // 4) if cfg.error_mode else cfg.max_iter
    done, transfer = 0, None

    def sweep(h, theta):
        nonlocal done, transfer
        done += 1
        if done <= marched:
            fields = _half_steps(subs, weights, h, f, u0)
            g = fields[1][:, 1:, 0]
        else:
            if transfer is None:
                transfer = transfer_matrix(cfg.partition, weights)
            g = np.array([transfer @ hj for hj in h])  # one product per member, as alone
            fields = _half_steps(subs, weights, h) if keep_fields else ()
        h_new = theta * g + (1.0 - theta) * h
        return h_new, h_new - h, fields

    results = iterate(cfg, sweep, cfg.initial_traces((cfg.n_steps,)),
                      cfg.member_thetas(members), t_start, keep_fields)
    return results if members is not None else results[0]
