"""One subdomain marched alone through the one input form of ``solve_waveform``,
and the impulse-march oracle of the assembled sweep operators.

The library builds every sweep operator from the subdomains' interface maps
(``fracwr.maps``).  The oracle here builds it as the library once did: it
marches unit impulses through whole subdomains and reads each column of
``T`` off the answers (``_columns``), so every map build is checked against
marches that share none of its algebra.
"""

from dataclasses import dataclass

import numpy as np

from fracwr import dnwr
from fracwr.solver import solve_waveform, tabulate

# Impulse columns marched as one batch: a march's bits do not depend on the
# members beside it, so no column depends on the chunk.
TRANSFER_CHUNK = 16


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


@dataclass(frozen=True)
class Impulses:
    """A phase (``iteration.AffineSweep``) as ``_columns`` probes it: its
    inputs (members, positions, N) are their own layout, and a position
    answers no input more than ``reach`` positions away."""

    march: object
    shape: tuple
    reach: int = 0

    def layout(self, x):
        return x

    @property
    def extent(self) -> tuple:
        """(positions, N) of one member."""
        return self.layout(np.zeros((1,) + self.shape)).shape[1:]


def _columns(affine, levels):
    """The answers to a unit trace at each of ``levels``, in the offset-major
    blocks of ``transfer_operator`` with one column per level, (2 reach + 1,
    positions, N, len(levels)).  The impulse groups (every ``2 reach +
    1``-th position) march one after another, ``TRANSFER_CHUNK`` levels at
    a time as the members of one batch, so no column depends on the chunk.
    """
    positions, n = affine.extent
    width = 2 * affine.reach + 1
    blocks = np.zeros((width, positions, n, len(levels)))
    for group in range(min(positions, width)):
        for j in range(0, len(levels), TRANSFER_CHUNK):
            chunk = levels[j:j + TRANSFER_CHUNK]
            x = np.zeros((len(chunk),) + affine.shape)
            for member, level in zip(affine.layout(x), chunk):
                member[group::width, level] = 1.0
            y = affine.layout(affine.march(x, False))
            # each position answers the one source of the group within reach
            for q in range(positions):
                d = (group - q + affine.reach) % width
                if 0 <= q + d - affine.reach < positions:
                    blocks[d, q, :, j:j + len(chunk)] = y[:, q].T
    return blocks


def transfer_operator(phase, reach=0) -> np.ndarray:
    """``T`` of ``phase`` on any mesh as offset-major blocks (2 reach + 1,
    positions, N, N), the layout of ``iteration.apply_operator``: block
    ``[d, q]`` maps the trace at position ``q + d - reach`` to position
    ``q``, and its column j answers a unit trace at level j."""
    probe = Impulses(phase.march, phase.shape, reach)
    return _columns(probe, range(probe.extent[1]))


def transfer_matrix(partition, weights):
    """The matrix ``S`` of the error-equation DNWR sweep ``h -> theta*S h + (1-theta)*h``.

    Column j is the Neumann solve's interface trace answering a unit trace at
    level j with zero data (``transfer_operator``).  No level answers a later
    impulse, so ``S`` is lower triangular.
    """
    return transfer_operator(dnwr._affine(partition.subdomains, weights))[0, 0]
