"""One subdomain marched alone through the one input form of ``solve_waveform``,
the impulse-march oracle of the assembled sweep operators, and the march in
increment form, the oracle of the level-form march.

The library builds every sweep operator from the subdomains' interface maps
(``fracwr.maps``).  The oracle here builds it as the library once did: it
marches unit impulses through whole subdomains and reads each column of
``T`` off the answers (``transfer_operator``), so every map build is checked
against marches that share none of its algebra.

The library marches the levels themselves, and a level's history term comes
from blocked products of ``CaputoWeights.level_rows`` with them
(``solver.history_plan``).  ``solve_waveform_increments`` is the march as it
was before: it keeps the increments of the levels, forms each level's history
term as one product of the Caputo row with the increments before it, and
cumulates the increments into the fields.
"""

from itertools import accumulate

import numpy as np

from fracwr import dnwr, geometry, kernels, solver
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


def solve_waveform_increments(subs, weights, left, right, flux=False, f=None, u0=None,
                              decay=None, trim=False):
    """``solve_waveform`` as it marched in increment form: the same
    arguments and fields, from the increments of the levels, each level's
    history term one product of its Caputo row with the increments before
    it, and the fields from the cumulated increments."""
    f = [None] * len(subs) if f is None else f
    u0 = [None] * len(subs) if u0 is None else u0
    if not len(left) == len(right) == len(f) == len(u0) == len(subs):
        raise ValueError("give one end, source and initial value per subdomain")
    n_steps = weights.n_steps
    theta_s = weights.implicit_fraction
    shift = None
    if decay is not None:
        decay = np.asarray(decay, dtype=float)
        decay = np.broadcast_to(decay, (len(subs), decay.shape[-1]))  # a row per subdomain
        shift = theta_s * decay.ravel()
    modes = () if decay is None else decay.shape[1:]
    lines = 1 if decay is None else decay.shape[1]  # lines per subdomain
    per_line = lambda x: np.repeat(x, lines)  # noqa: E731

    # an end with values is a flux end under ``flux``; every other end is Dirichlet
    kinds = np.full((2, len(subs)), kernels.DIRICHLET)
    # one row of end values per level: the left ends of all lines, then the right ends
    vals = np.zeros((n_steps, 2, len(subs), lines))
    for i, ends in enumerate(zip(left, right)):
        for k, values in enumerate(ends):
            if values is not None:
                values = solver._table(values, (n_steps,) + modes, "an end")
                kinds[k, i] = kernels.FLUX if flux else kernels.DIRICHLET
                vals[:, k, i] = values.reshape(n_steps, lines)
    vals = vals.reshape(n_steps, 2, -1).transpose(0, 2, 1).copy()  # (N, lines, 2)
    stack = kernels.Stack(
        per_line([s.n_nodes for s in subs]),
        per_line([theta_s * s.kappa / s.dx**2 for s in subs]),
        per_line([s.kappa / (2.0 * s.dx) for s in subs]),
        per_line(kinds[0]), per_line(kinds[1]), shift,
    )
    # subdomain i owns the coefficients bounds[i]:bounds[i+1] of a level, mode by mode
    sizes = [s.n_nodes - 2 for s in subs]
    bounds = list(accumulate([lines * k for k in sizes], initial=0))

    # the coefficients of the last two levels, the end values of every level
    # and, per subdomain, the initial samples and their coefficients
    levels = np.zeros((2, stack.size))
    values = np.zeros((n_steps + 1, stack.lines, 2))
    shapes = [modes + (s.n_nodes,) for s in subs]
    starts = [None if ui is None else solver._table(ui, shape, "initial data")
              for ui, shape in zip(u0, shapes)]
    starts_hat = [None if st is None else kernels.dst(st[..., 1:-1]) for st in starts]
    for i, (st, st_hat) in enumerate(zip(starts, starts_hat)):
        if st is not None:
            levels[0, bounds[i]:bounds[i + 1]] = st_hat.reshape(-1)
            values[0, i * lines:(i + 1) * lines] = st[..., [0, -1]].reshape(-1, 2)
    # one source table per subdomain (zeros for None); each level adds its row
    sources = None
    if any(fi is not None for fi in f):
        sources = [kernels.dst((np.zeros((n_steps,) + shape) if fi is None else
                                solver._table(fi, (n_steps,) + shape, "source"))[..., 1:-1])
                   .reshape(n_steps, -1) for fi, shape in zip(f, shapes)]

    # the increments of every level, level-major, and the history term of one level
    increments = np.empty((n_steps, stack.size))
    hist = np.empty(stack.size)
    # the explicit half of a split level: the diagonal, and the last end values
    explicit = ends_weight = None
    if theta_s < 1.0:
        ratio = (1.0 - theta_s) / theta_s
        explicit, ends_weight = ratio * stack.diag, ratio * stack.s
    stack.prepare(weights.diagonal)
    rhs = np.empty(stack.size)
    added = [(rhs[bounds[j]:bounds[j + 1]], table) for j, table in enumerate(sources or ())]
    for n in range(1, n_steps + 1):
        b_row = weights.rows[n - 1]
        bnn = b_row[n - 1]
        prev = levels[(n - 1) % 2]
        if explicit is None:
            np.multiply(bnn, prev, out=rhs)
        else:
            np.subtract(bnn, explicit, out=rhs)
            rhs *= prev
        for rows, table in added:
            rows += table[n - 1]
        if n > 1:
            np.matmul(b_row[: n - 1], increments[: n - 1], out=hist)
            rhs -= hist
        extra = None if ends_weight is None else ends_weight * values[n - 1]
        values[n] = kernels.step_solve(bnn, stack, rhs, vals[n - 1], extra, out=levels[n % 2])[1]
        np.subtract(levels[n % 2], levels[(n - 1) % 2], out=increments[n - 1])

    return [_increment_field(s, increments[:, bounds[i]:bounds[i + 1]].reshape(n_steps, lines,
                                                                               sizes[i]),
                             values[:, i * lines:(i + 1) * lines], starts[i], starts_hat[i],
                             modes, trim)
            for i, s in enumerate(subs)]


def _increment_field(sub, increments, ends, start, start_hat, modes, trim):
    """The field of one subdomain from its coefficient ``increments`` (N,
    lines, coefficients), as ``solver._field`` makes it from the levels."""
    n_steps, n_modes, size = increments.shape
    last = sub.n_nodes - 1
    nodes = [k % sub.n_nodes for k in geometry.END_NODES]
    rows = tuple(sorted({k - 1 for k in nodes if 0 < k < last}))
    basis = kernels.sine_rows(size, rows)
    # one product, or one per level when the lines have modes: products
    # small enough that BLAS runs them on one thread
    near = np.matmul(increments.reshape(-1, n_modes if n_modes > 1 else n_steps, size), basis.T)
    near = near.reshape(n_steps, n_modes, len(rows))
    np.cumsum(near, axis=0, out=near)
    if start_hat is not None:
        near += start_hat.reshape(n_modes, size) @ basis.T
    if not trim:
        nodes = range(sub.n_nodes)
    field = np.empty((n_steps + 1,) + modes + (len(nodes),))
    out = field.reshape(n_steps + 1, n_modes, len(nodes))  # a view: writes land in field
    if trim:
        inside = [col for col, k in enumerate(nodes) if 0 < k < last]
        out[1:, :, inside] = near[..., [rows.index(nodes[col] - 1) for col in inside]]
    else:
        inner = np.cumsum(increments, axis=0)
        if start_hat is not None:
            inner += start_hat.reshape(n_modes, size)
        out[1:, :, 1:-1] = kernels.dst(inner)
        out[1:, :, np.add(rows, 1)] = near
    out[0] = 0.0 if start is None else start.reshape(n_modes, -1)[:, nodes]
    for col, k in enumerate(nodes):
        if k in (0, last):
            out[1:, :, col] = ends[1:, :, 0 if k == 0 else 1]
    return field
