"""One subdomain marched alone through the one input form of ``solve_waveform``."""

import numpy as np

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
