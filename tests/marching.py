"""One subdomain marched alone through the one input form of ``solve_waveform``,
and the assembled DNWR sweep matrix."""

import numpy as np

from fracwr import dnwr
from fracwr.iteration import transfer_operator
from fracwr.solver import solve_waveform, tabulate


def march_alone(sub, weights, left, right, flux=False, f=None, u0=None, **kwargs):
    """The field (N+1, n_nodes) of ``sub`` marched as ``[sub]`` with one member.

    ``f`` and ``u0`` are tabulated on the nodes of ``sub`` (``tabulate``), and
    each end is None or its values (N,) at t_1..t_N.
    """
    f, u0 = tabulate(weights, f, u0, sub.nodes)
    ends = [None if end is None else np.asarray(end, dtype=float)[None] for end in (left, right)]
    (field,) = solve_waveform([sub], weights, ends[:1], ends[1:], 1, flux=flux, f=[f], u0=[u0],
                              **kwargs)
    return field[0]


def transfer_matrix(partition, weights):
    """The matrix ``S`` of the error-equation DNWR sweep ``h -> theta*S h + (1-theta)*h``.

    Column j is the Neumann solve's interface trace answering a unit trace at
    level j with zero data (``iteration.transfer_operator``).  No level
    answers a later impulse, so ``S`` is lower triangular.
    """
    return transfer_operator(dnwr._affine(partition.subdomains, weights))[0, 0]
