"""Space-time subdomain solves over a whole time window.

Each solve marches the fully discrete fractional diffusion equation

    sum_j b[n, j] (u^j - u^{j-1}) = kappa * Lap_h u^{eval} + f

over all time levels at once, given Dirichlet traces or outward-flux traces
on the interface ends.  A march takes one input form (``solve_waveform``):
a sequence of subdomains, the member count of a relaxation sweep, per end
None or an array of values, and the data as tables, which a driver makes
once per run (``tabulate``).  The spatial operator is evaluated implicitly
at t_n for the sub-diffusion and classical schemes and averaged between
levels for the wave scheme (whose Caputo weights refer to the half point).
Every level solves the same spatial operator, so a march moves each line
into the sine basis of its interior once, where a level is a division with
a rank-one correction per flux end (``kernels``), and moves back only the
nodes its caller reads.  A monolithic whole-domain reference solver couples
subdomains through the identical one-sided flux-balance row the
substructuring iterations use, so a converged iteration and the monolithic
solve agree to solver precision.  It solves that row as written, in a
five-band system per level, so it shares neither the basis nor the
eliminated flux rows of ``kernels`` with the march it judges.

The march also takes a reaction term per line, which is how a 2D strip is
solved: a sine transform in y turns the 5-point operator into one x-problem
per y-mode, shifted by that mode's eigenvalue (``nnwr.run_nnwr_2d``).
"""

from dataclasses import dataclass
from itertools import accumulate, groupby

import numpy as np
from scipy.linalg import solve_banded

from . import kernels
from .fractional_time import CaputoWeights
from .geometry import END_NODES, Partition1D

__all__ = [
    "tabulate",
    "solve_waveform",
    "solve_dirichlet_waveform",
    "solve_neumann_waveform",
    "MonolithicSolution",
    "solve_monolithic",
]


def _table(values, shape, name) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
    return arr


def tabulate(weights: CaputoWeights, f, u0, *grid):
    """``f(*grid, t)`` at every level's evaluation time t and ``u0(*grid)``,
    on the nodes ``grid``; ``f`` and ``u0`` are callables or None.

    ``grid`` is the node array of a line, or the two coordinate arrays of a
    lattice.  A driver calls this once per run and hands the tables to every
    solve; None stays None.
    """
    shape = np.shape(grid[0])
    return (None if f is None else np.array([np.broadcast_to(f(*grid, t), shape)
                                             for t in weights.eval_times], dtype=float),
            None if u0 is None else np.broadcast_to(np.asarray(u0(*grid), dtype=float), shape))


def solve_waveform(subs, weights: CaputoWeights, left, right, members, flux=False, f=None,
                   u0=None, decay=None, trim=False):
    """March subdomains through all time levels, the members of a relaxation
    sweep at once.

    ``subs`` is a sequence of ``Subdomain1D``, and ``left`` and ``right``
    hold one end per subdomain: None for a physical boundary, where
    u = 0, or an array (members, N) of interface values at t_1..t_N, the
    imposed traces or, with ``flux``, the outward-normal fluxes.  ``f`` and
    ``u0`` are None or hold one entry per subdomain: None, or the table
    that ``tabulate`` makes, (N, n_nodes) and (n_nodes,).  The members share
    the data but have their own end values.  The call returns one field
    (members, N+1, n_nodes) per subdomain, row 0 holding the initial
    samples, each bit for bit the field of a call with that subdomain
    alone.  With ``trim`` a field holds only the nodes
    ``geometry.END_NODES``, the three nearest each end, which is all an
    interface flux or an end value reads.

    With ``decay`` (shape (B,), or one such row per subdomain) each member
    marches B independent problems, problem b solving
    D^nu u = kappa u_xx - decay[b] u + f with the reaction term split
    between levels like the Laplacian.  Then the tables gain a mode axis
    before the nodes, (N, B, n_nodes) and (B, n_nodes), the end arrays a
    trailing one, (members, N, B), and the fields one before the nodes,
    (members, N+1, B, n_nodes).

    Every line of every subdomain, member and mode marches in the sine basis
    of its interior (``kernels``): the data move into it once, every time
    level is one ``kernels.step_solve`` call on a ``kernels.Stack`` built
    once per call, and only the returned nodes move back, from the
    increments of the levels.  Each member's history term is its own product
    of the Caputo row with its increments on one subdomain, of the width a
    call with one member uses, so the members and the subdomains of a
    call do not change one another's bits.  Without ``f`` and ``u0`` the
    field is zero before the first level with a nonzero end value, and the
    march starts there; a subdomain whose end values are zero at every
    level, for every member and mode, stays out of the stack, and its field
    is ``np.zeros``.
    """
    f = [None] * len(subs) if f is None else f
    u0 = [None] * len(subs) if u0 is None else u0
    if not len(left) == len(right) == len(f) == len(u0) == len(subs):
        raise ValueError("give one end, source and initial value per subdomain")
    n_steps = weights.n_steps
    theta_s = weights.implicit_fraction
    if decay is not None:
        decay = np.asarray(decay, dtype=float)
        decay = np.broadcast_to(decay, (len(subs), decay.shape[-1]))  # a row per subdomain
    modes = () if decay is None else decay.shape[1:]
    lines = members * (1 if decay is None else decay.shape[1])  # lines per subdomain
    per_line = lambda x: np.repeat(x, lines)  # noqa: E731

    # an end with values is a flux end under ``flux``; every other end is Dirichlet
    kinds = np.full((2, len(subs)), kernels.DIRICHLET)
    # one row of end values per level: the left ends of all lines, then the right ends
    vals = np.zeros((n_steps, 2, len(subs), lines))
    for i, ends in enumerate(zip(left, right)):
        for k, values in enumerate(ends):
            if values is not None:
                values = _table(values, (members, n_steps) + modes, "an end")
                kinds[k, i] = kernels.FLUX if flux else kernels.DIRICHLET
                vals[:, k, i] = np.moveaxis(values, 1, 0).reshape(n_steps, lines)
    # without data a subdomain whose end values are all zero has the zero field,
    # and only the subdomains ``live`` enter the stack
    live = range(len(subs))
    if all(fi is None for fi in f) and all(ui is None for ui in u0):
        live = np.flatnonzero(vals.any(axis=(0, 1, 3))).tolist()
    fields = [None if i in live else np.zeros((members, n_steps + 1) + modes
                                              + (len(END_NODES) if trim else s.n_nodes,))
              for i, s in enumerate(subs)]
    if not live:
        return fields
    subs, f, u0 = ([x[i] for i in live] for x in (subs, f, u0))
    vals = vals[:, :, live].reshape(n_steps, 2, -1).transpose(0, 2, 1).copy()  # (N, lines, 2)
    shift = None
    if decay is not None:
        shift = theta_s * np.concatenate([np.tile(row, members) for row in decay[live]])
    stack = kernels.Stack(
        per_line([s.n_nodes for s in subs]),
        per_line([theta_s * s.kappa / s.dx**2 for s in subs]),
        per_line([s.kappa / (2.0 * s.dx) for s in subs]),
        per_line(kinds[0, live]), per_line(kinds[1, live]), shift,
    )
    # subdomain i owns the coefficients bounds[i]:bounds[i+1] of a level,
    # member by member, then mode by mode
    sizes = [s.n_nodes - 2 for s in subs]
    bounds = list(accumulate([lines * k for k in sizes], initial=0))

    # the coefficients of the last two levels, the end values of every level
    # and, per subdomain, the initial samples and their coefficients
    levels = np.zeros((2, stack.size))
    values = np.zeros((n_steps + 1, stack.lines, 2))
    shapes = [modes + (s.n_nodes,) for s in subs]
    starts = [None if ui is None else _table(ui, shape, "initial data")
              for ui, shape in zip(u0, shapes)]
    starts_hat = [None if st is None else kernels.dst(st[..., 1:-1]) for st in starts]
    for i, (st, st_hat) in enumerate(zip(starts, starts_hat)):
        if st is not None:
            levels[0, bounds[i]:bounds[i + 1]].reshape(members, -1)[...] = st_hat.reshape(-1)
            values[0, i * lines:(i + 1) * lines] = np.tile(st[..., [0, -1]].reshape(-1, 2),
                                                           (members, 1))
    # one source table per subdomain (zeros for None); each level adds its row to every member
    sources = None
    if any(fi is not None for fi in f):
        sources = [kernels.dst((np.zeros((n_steps,) + shape) if fi is None else
                                _table(fi, (n_steps,) + shape, "source"))[..., 1:-1])
                   .reshape(n_steps, -1) for fi, shape in zip(f, shapes)]

    # Consecutive subdomains with one coefficient count form a run, whose
    # history products, one per member of each subdomain, go through one
    # stacked matmul over member-major increments: each product reads a
    # contiguous (level, width) slab, as a call with one member of one
    # subdomain does (a strided slab changes the bits of narrow products).
    # The increments of every run share one table.
    hist = np.empty(stack.size)
    increments = np.empty(n_steps * stack.size)
    runs = []
    for _, run in groupby(range(len(subs)), lambda i: sizes[i]):
        i, *others = run
        rows = slice(bounds[i], bounds[i + 1 + len(others)])
        width = lines // members * sizes[i]
        products = (rows.stop - rows.start) // width
        runs.append((hist[rows].reshape(products, width),
                     levels[:, rows].reshape(2, products, width),
                     increments[n_steps * rows.start:n_steps * rows.stop]
                     .reshape(products, n_steps, width)))
    # without data the levels before the first nonzero end value are zero: they
    # are written, and the history products keep their length, so bits match
    first = 1
    if sources is None and all(ui is None for ui in u0):
        first = next((n for n, row in enumerate(vals.any(axis=(1, 2)), 1) if row), n_steps + 1)
        for *_, table in runs:
            table[:, : first - 1] = 0.0
    # the explicit half of a split level: the diagonal, and the last end values
    explicit = ends_weight = None
    if theta_s < 1.0:
        ratio = (1.0 - theta_s) / theta_s
        explicit, ends_weight = ratio * stack.diag, ratio * stack.s
    stack.prepare(weights.diagonal[first - 1:])
    rhs = np.empty(stack.size)
    added = [(rhs[bounds[j]:bounds[j + 1]].reshape(members, -1), table)
             for j, table in enumerate(sources or ())]
    for n in range(first, n_steps + 1):
        b_row = weights.rows[n - 1]
        bnn = b_row[n - 1]
        prev = levels[(n - 1) % 2]
        if explicit is None:
            np.multiply(bnn, prev, out=rhs)
        else:
            np.subtract(bnn, explicit, out=rhs)
            rhs *= prev
        for member_rows, table in added:
            member_rows += table[n - 1]
        if n > 1:
            for out, _, table in runs:
                np.matmul(b_row[: n - 1], table[:, : n - 1], out=out)
            rhs -= hist
        extra = None if ends_weight is None else ends_weight * values[n - 1]
        values[n] = kernels.step_solve(bnn, stack, rhs, vals[n - 1], extra, out=levels[n % 2])[1]
        for _, level, table in runs:
            np.subtract(level[n % 2], level[(n - 1) % 2], out=table[:, n - 1])

    for j, (i, s) in enumerate(zip(live, subs)):
        table = increments[n_steps * bounds[j]:n_steps * bounds[j + 1]]
        ends = values[:, j * lines:(j + 1) * lines].reshape(n_steps + 1, members, -1, 2)
        field = _field(s, table.reshape(members, n_steps, -1, sizes[j]),
                       ends.transpose(3, 1, 0, 2), starts[j], starts_hat[j], trim)
        fields[i] = field.reshape((members, n_steps + 1) + modes + (field.shape[-1],))
    return fields


def _field(sub, increments, ends, start, start_hat, trim):
    """The field (members, N+1, modes, nodes) of one subdomain from its
    coefficient ``increments`` (members, N, modes, coefficients), its end
    values (2, members, N+1, modes) and its initial samples ``start`` and
    their coefficients (modes, ...; None for zero), at every node or, with
    ``trim``, at ``END_NODES``.  Row 0 is ``start`` as given.  The interior
    nodes among ``END_NODES`` come from their rows of the sine basis over the
    cumulated increments, in a whole field too, so that they have the same
    bits trimmed or not; the other nodes come from one inverse transform.
    """
    members, n_steps, n_modes, size = increments.shape
    last = sub.n_nodes - 1
    nodes = [k % sub.n_nodes for k in END_NODES]
    rows = tuple(sorted({k - 1 for k in nodes if 0 < k < last}))
    basis = kernels.sine_rows(size, rows)
    # one product per member, or per level of each member when the lines have
    # modes: products small enough that BLAS runs them on one thread
    near = np.matmul(increments.reshape(-1, n_modes if n_modes > 1 else n_steps, size), basis.T)
    near = near.reshape(members, n_steps, n_modes, len(rows))
    np.cumsum(near, axis=1, out=near)
    if start_hat is not None:
        near += start_hat.reshape(n_modes, size) @ basis.T
    if trim:
        out = np.empty((members, n_steps + 1, n_modes, len(nodes)))
        inside = [col for col, k in enumerate(nodes) if 0 < k < last]
        out[:, 1:, :, inside] = near[..., [rows.index(nodes[col] - 1) for col in inside]]
    else:
        nodes = range(sub.n_nodes)
        out = np.empty((members, n_steps + 1, n_modes, sub.n_nodes))
        inner = np.cumsum(increments, axis=1)
        if start_hat is not None:
            inner += start_hat.reshape(n_modes, size)
        out[:, 1:, :, 1:-1] = kernels.dst(inner)
        out[:, 1:, :, np.add(rows, 1)] = near
    out[:, 0] = 0.0 if start is None else start.reshape(n_modes, -1)[:, nodes]
    for col, k in enumerate(nodes):
        if k in (0, last):
            out[:, 1:, :, col] = ends[0 if k == 0 else 1, :, 1:]
    return out


def solve_dirichlet_waveform(subs, weights, left, right, members, f=None, u0=None, decay=None,
                             trim=False):
    """Dirichlet half-step: ``solve_waveform`` with the ends' values as traces."""
    return solve_waveform(subs, weights, left, right, members, False, f, u0, decay, trim)


def solve_neumann_waveform(subs, weights, left, right, members, f=None, u0=None, decay=None,
                           trim=False):
    """Neumann half-step: ``solve_waveform`` with the ends' values as outward fluxes."""
    return solve_waveform(subs, weights, left, right, members, True, f, u0, decay, trim)


# ---------------------------------------------------------------------------
# Monolithic reference over a whole partition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonolithicSolution:
    field: np.ndarray  # (N+1, n_global_nodes)
    nodes: np.ndarray
    interface_indices: tuple

    def interface_traces(self) -> np.ndarray:
        """Trace values at t_1..t_N per interface, shape (n_interfaces, N)."""
        return np.array([self.field[1:, g] for g in self.interface_indices])


def _global_grid(partition: Partition1D):
    nodes = [partition.subdomains[0].nodes]
    interface_indices = []
    offset = len(partition.subdomains[0].nodes) - 1
    for sub in partition.subdomains[1:]:
        interface_indices.append(offset)
        nodes.append(sub.nodes[1:])
        offset += len(sub.nodes) - 1
    return np.concatenate(nodes), tuple(interface_indices)


def solve_monolithic(partition: Partition1D, weights: CaputoWeights, f=None, u0=None):
    """Single global solve with interface rows matching the iteration coupling.

    The source ``f(x, t)`` and the initial condition ``u0(x)`` are callables
    or None, sampled on the nodes as the drivers sample them (``tabulate``).

    At every interface node g the PDE row is replaced by the balance of the
    one-sided outward fluxes of both neighbours,
    c_l (u[g-2] - 4 u[g-1] + 3 u[g]) + c_r (3 u[g] - 4 u[g+1] + u[g+2]) = 0 with
    c = kappa / (2 dx) of each side, which is exactly the fixed-point
    condition of the substructuring iterations.  Each level is the five-band
    system as written, solved by ``scipy.linalg.solve_banded`` (LAPACK
    ``gbsv``), with neither the sine bases nor the eliminated flux rows of
    ``kernels``.
    """
    nodes, ifc = _global_grid(partition)
    ntot = len(nodes)
    n_steps = weights.n_steps
    theta_s = weights.implicit_fraction

    # kappa / dx**2 per node; an interface node's row is rebuilt below
    lap = np.empty(ntot)
    pos = 0
    for sub in partition.subdomains:
        lap[pos:pos + sub.n_nodes] = sub.kappa / sub.dx**2
        pos += sub.n_nodes - 1
    s = theta_s * lap
    # band[2 - k, i + k] multiplies u[i + k] in row i, the layout of solve_banded;
    # the PDE rows are (-s, bnn + 2s, -s), and only their diagonal changes per level
    band = np.zeros((5, ntot))
    band[3, :-2] = band[1, 2:] = -s[1:-1]
    for g, left, right in zip(ifc, partition.subdomains, partition.subdomains[1:]):
        cl, cr = left.kappa / (2.0 * left.dx), right.kappa / (2.0 * right.dx)
        band[[4, 3, 2, 1, 0], range(g - 2, g + 3)] = cl, -4.0 * cl, 3.0 * (cl + cr), -4.0 * cr, cr
    pde = np.setdiff1d(np.arange(1, ntot - 1), ifc)

    ftab, start = tabulate(weights, f, u0, nodes)
    u = np.zeros((n_steps + 1, ntot))
    u[0] = 0.0 if start is None else start
    du = np.zeros((n_steps, ntot))
    for n in range(1, n_steps + 1):
        b_row = weights.rows[n - 1]
        bnn = b_row[n - 1]
        prev = u[n - 1]
        rhs = bnn * prev if ftab is None else bnn * prev + ftab[n - 1]
        if n > 1:
            rhs -= b_row[: n - 1] @ du[: n - 1]
        if theta_s < 1.0:
            rhs[1:-1] += (1.0 - theta_s) * lap[1:-1] * (prev[:-2] - 2.0 * prev[1:-1] + prev[2:])
        rhs[list(ifc)] = 0.0
        band[2, pde] = bnn + 2.0 * s[pde]
        # physical ends: homogeneous Dirichlet, so only the rows between them
        # are solved and u[n] keeps its zero end values
        u[n, 1:-1] = solve_banded((2, 2), band[:, 1:-1], rhs[1:-1])
        du[n - 1] = u[n] - u[n - 1]
    return MonolithicSolution(field=u, nodes=nodes, interface_indices=ifc)
