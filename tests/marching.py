"""One subdomain marched alone through the one input form of ``solve_waveform``,
and the impulse-march oracle of the assembled sweep operators.

The library builds every sweep operator from the subdomains' interface maps
(``fracwr.maps``).  The oracle here builds it as the library once did: it
marches unit impulses through whole subdomains and reads each column of
``T`` off the answers (``transfer_operator``), so every map build is checked
against marches that share none of its algebra.
"""

import numpy as np

from fracwr import dnwr
from fracwr.solver import solve_waveform, tabulate

def march_alone(sub, weights, left, right, flux=False, f=None, u0=None, **kwargs):
    """The field (N+1, n_nodes) of ``sub`` marched as ``[sub]``.

    ``f`` and ``u0`` are tabulated on the nodes of ``sub`` (``tabulate``), and
    each end is None or its values (N,) at t_1..t_N.
    """
    f, u0 = tabulate(weights, f, u0, sub.nodes)
    ends = [None if end is None else np.asarray(end, dtype=float) for end in (left, right)]
    (field,) = solve_waveform([sub], weights, ends[:1], ends[1:], flux=flux, f=[f], u0=[u0],
                              **kwargs)
    return field


def transfer_operator(phase, reach=0) -> np.ndarray:
    """``T`` of ``phase`` (an ``iteration.AffineSweep``) on any mesh as
    offset-major blocks (2 reach + 1, positions, N, N), the layout of
    ``iteration.apply_operator``: block ``[d, q]`` maps the trace at position
    ``q + d - reach`` to position ``q``, and its column j answers a unit
    trace at level j.  A position answers no input more than ``reach``
    positions away, so the impulse groups (every ``2 reach + 1``-th
    position) march one level after another, each answer read off for the
    positions within reach of the group's sources.
    """
    positions, n = phase.shape
    width = 2 * reach + 1
    blocks = np.zeros((width, positions, n, n))
    for group in range(min(positions, width)):
        for level in range(n):
            x = np.zeros(phase.shape)
            x[group::width, level] = 1.0
            y = phase.march(x, False)
            for q in range(positions):
                d = (group - q + reach) % width
                if 0 <= q + d - reach < positions:
                    blocks[d, q, :, level] = y[q]
    return blocks


def transfer_matrix(partition, weights):
    """The matrix ``S`` of the error-equation DNWR sweep ``h -> theta*S h + (1-theta)*h``.

    Column j is the Neumann solve's interface trace answering a unit trace at
    level j with zero data (``transfer_operator``).  No level answers a later
    impulse, so ``S`` is lower triangular.
    """
    return transfer_operator(dnwr._affine(partition.subdomains, weights))[0, 0]
