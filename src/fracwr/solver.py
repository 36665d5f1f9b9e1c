"""Space-time subdomain solves over a whole time window.

Each solve marches the fully discrete fractional diffusion equation

    sum_j b[n, j] (u^j - u^{j-1}) = kappa * Lap_h u^{eval} + f

over all time levels at once, given Dirichlet traces or outward-flux traces
on the interface ends.  A march takes one input form (``solve_waveform``):
a sequence of subdomains, per end None or an array of values, and the
data as tables, which a driver makes once per run (``tabulate``).  The
spatial operator is evaluated implicitly at t_n for the sub-diffusion and
classical schemes and averaged between levels for the wave scheme (whose
Caputo weights refer to the half point).
Every level solves the same spatial operator, so a march moves each line
into the sine basis of its interior once, where a level is a division with
a rank-one correction per flux end (``kernels``), and moves back only the
nodes its caller reads.  A march keeps the levels themselves, so a level's
history term is the Caputo operator in level form over the levels before it
(``CaputoWeights.level_rows``), and those terms come in blocks of ``BLOCK``
levels: one product gives the part of every level of a block that reads the
levels before the block, and each level adds the part that reads the levels
of its block before it (``history_plan``).  A monolithic whole-domain
reference solver couples subdomains through the identical one-sided
flux-balance row the substructuring iterations use, so a converged
iteration and the monolithic solve agree to solver precision.  It solves
that row as written, in a five-band system per level, so it shares neither
the basis, nor the eliminated flux rows of ``kernels``, nor the level form
with the march it judges.

The march also takes a reaction term per line, which is how a 2D strip is
solved: a sine transform in y turns the 5-point operator into one x-problem
per y-mode, shifted by that mode's eigenvalue (``nnwr.run_nnwr_2d``).
"""

from dataclasses import dataclass
from itertools import accumulate

import numpy as np
from scipy.linalg import solve_banded

from . import kernels
from .fractional_time import CaputoWeights
from .geometry import END_NODES, Partition1D

__all__ = [
    "history_plan",
    "tabulate",
    "solve_waveform",
    "solve_dirichlet_waveform",
    "solve_neumann_waveform",
    "MonolithicSolution",
    "solve_monolithic",
]

BLOCK = 16  # levels whose far history terms one product gives
PRODUCT_SIZE = 2**18  # the most multiply-adds of a product OpenBLAS keeps on one thread


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
    table = None
    if f is not None:
        table = np.empty((weights.n_steps,) + shape)
        for n, t in enumerate(weights.eval_times):
            table[n] = f(*grid, t)
    return (table,
            None if u0 is None else np.broadcast_to(np.asarray(u0(*grid), dtype=float), shape))


def solve_waveform(subs, weights: CaputoWeights, left, right, flux=False, f=None, u0=None,
                   decay=None, trim=False):
    """March subdomains through all time levels.

    ``subs`` is a sequence of ``Subdomain1D``, and ``left`` and ``right``
    hold one end per subdomain: None for a physical boundary, where
    u = 0, or an array (N,) of interface values at t_1..t_N, the imposed
    traces or, with ``flux``, the outward-normal fluxes.  ``f`` and ``u0``
    are None or hold one entry per subdomain: None, or the table that
    ``tabulate`` makes, (N, n_nodes) and (n_nodes,).  The call returns one
    field (N+1, n_nodes) per subdomain, row 0 holding the initial samples.
    With ``trim`` a field holds only the nodes ``geometry.END_NODES``, the
    three nearest each end, which is all an interface flux or an end value
    reads.

    With ``decay`` (shape (B,), or one such row per subdomain) the call
    marches B independent problems, problem b solving
    D^nu u = kappa u_xx - decay[b] u + f with the reaction term split
    between levels like the Laplacian.  Then the tables gain a mode axis
    before the nodes, (N, B, n_nodes) and (B, n_nodes), the end arrays a
    trailing one, (N, B), and the fields one before the nodes,
    (N+1, B, n_nodes).

    Every line of every subdomain and mode marches in the sine basis of its
    interior (``kernels``): the data move into it once, every time level is
    one ``kernels.step_solve`` call on a ``kernels.Stack`` built once per
    call, and only the returned nodes move back, from the levels.  The
    levels are kept, row 0 the initial coefficients, and the history terms
    of a block of ``BLOCK`` levels are one product with the levels before
    the block and, per level, one with the levels of the block before it,
    each split by columns so that BLAS runs it on one thread
    (``history_plan``).
    """
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
                values = _table(values, (n_steps,) + modes, "an end")
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

    # the coefficients of every level, level-major, the end values of every
    # level and, per subdomain, the initial samples; row 0 holds the initial
    # coefficients
    levels = np.empty((n_steps + 1, stack.size))  # every row but row 0 is written once
    levels[0] = 0.0
    values = np.zeros((n_steps + 1, stack.lines, 2))
    shapes = [modes + (s.n_nodes,) for s in subs]
    starts = [None if ui is None else _table(ui, shape, "initial data")
              for ui, shape in zip(u0, shapes)]
    for i, st in enumerate(starts):
        if st is not None:
            levels[0, bounds[i]:bounds[i + 1]] = kernels.dst(st[..., 1:-1]).reshape(-1)
            values[0, i * lines:(i + 1) * lines] = st[..., [0, -1]].reshape(-1, 2)
    # one source table per subdomain (zeros for None); each block of levels adds its rows
    sources = None
    if any(fi is not None for fi in f):
        sources = [kernels.dst((np.zeros((n_steps,) + shape) if fi is None else
                                _table(fi, (n_steps,) + shape, "source"))[..., 1:-1])
                   .reshape(n_steps, -1) for fi, shape in zip(f, shapes)]

    # the history rows (minus the operator on the levels before each level),
    # the right-hand sides of one block of levels and the near part of one
    history = np.negative(weights.level_rows[:, :-1])
    block = np.empty((min(BLOCK, n_steps), stack.size))
    near = np.empty(stack.size)
    # the explicit half of a split level: the diagonal, and the last end values
    explicit = ends_weight = None
    if theta_s < 1.0:
        ratio = (1.0 - theta_s) / theta_s
        explicit, ends_weight = ratio * stack.diag, ratio * stack.s
    stack.prepare(weights.diagonal)
    bnns = weights.diagonal.tolist()
    for lo, hi, far_columns, near_columns in history_plan(n_steps, stack.size):
        rhs = block[:hi - lo]
        for cols in far_columns:
            np.matmul(history[lo:hi, :lo + 1], levels[:lo + 1, cols], out=rhs[:, cols])
        for j, table in enumerate(sources or ()):
            rhs[:, bounds[j]:bounds[j + 1]] += table[lo:hi]
        for n in range(lo + 1, hi + 1):
            row = rhs[n - 1 - lo]
            if n - 1 > lo:
                for cols in near_columns:
                    np.matmul(history[n - 1, lo + 1:n], levels[lo + 1:n, cols], out=near[cols])
                row += near
            if explicit is not None:
                row -= np.multiply(explicit, levels[n - 1], out=near)
            extra = None if ends_weight is None else ends_weight * values[n - 1]
            values[n] = kernels.step_solve(bnns[n - 1], stack, row, vals[n - 1], extra,
                                           out=levels[n])[1]

    return [_field(s, levels[1:, bounds[i]:bounds[i + 1]].reshape(n_steps, lines, sizes[i]),
                   values[:, i * lines:(i + 1) * lines], starts[i], modes, trim)
            for i, s in enumerate(subs)]


def history_plan(n_steps, size):
    """The history products of a march of ``n_steps`` levels over ``size``
    coefficients, one entry ``(lo, hi, far, near)`` per block of ``BLOCK``
    levels lo+1..hi.

    One product gives the far part of every level of the block, from the
    levels 0..lo; each level adds its near part, one product over the levels
    of the block before it.  ``far`` and ``near`` split each product by
    columns so that none exceeds ``PRODUCT_SIZE`` multiply-adds (rows x inner
    x columns), the size up to which OpenBLAS runs it on one thread.
    """
    def split(rows, inner):
        width = max(1, PRODUCT_SIZE // (rows * inner))
        return [slice(c, c + width) for c in range(0, size, width)]

    near = split(1, BLOCK - 1)
    return [(lo, min(lo + BLOCK, n_steps), split(min(BLOCK, n_steps - lo), lo + 1), near)
            for lo in range(0, n_steps, BLOCK)]


def _field(sub, coefficients, ends, start, modes, trim):
    """The field (N+1, [modes,] nodes) of one subdomain from its
    ``coefficients`` (N, lines, coefficients) at t_1..t_N, its end values
    (N+1, lines, 2) and its initial samples ``start`` (modes, ...; None for
    zero), at every node or, with ``trim``, at ``END_NODES``.  Row 0 is
    ``start`` as given.  The interior nodes among ``END_NODES`` come from
    their rows of the sine basis, in a whole field too, so that they have the
    same bits trimmed or not; the other nodes come from one inverse transform.
    """
    n_steps, n_modes, size = coefficients.shape
    last = sub.n_nodes - 1
    nodes = [k % sub.n_nodes for k in END_NODES]
    rows = tuple(sorted({k - 1 for k in nodes if 0 < k < last}))
    basis = kernels.sine_rows(size, rows)
    # one product, or one per level when the lines have modes: products
    # small enough that BLAS runs them on one thread
    near = np.matmul(coefficients.reshape(-1, n_modes if n_modes > 1 else n_steps, size),
                     basis.T)
    near = near.reshape(n_steps, n_modes, len(rows))
    if not trim:
        nodes = range(sub.n_nodes)
    field = np.empty((n_steps + 1,) + modes + (len(nodes),))
    out = field.reshape(n_steps + 1, n_modes, len(nodes))  # a view: writes land in field
    if trim:
        inside = [col for col, k in enumerate(nodes) if 0 < k < last]
        out[1:, :, inside] = near[..., [rows.index(nodes[col] - 1) for col in inside]]
    else:
        out[1:, :, 1:-1] = kernels.dst(coefficients)
        out[1:, :, np.add(rows, 1)] = near
    out[0] = 0.0 if start is None else start.reshape(n_modes, -1)[:, nodes]
    for col, k in enumerate(nodes):
        if k in (0, last):
            out[1:, :, col] = ends[1:, :, 0 if k == 0 else 1]
    return field


def solve_dirichlet_waveform(subs, weights, left, right, f=None, u0=None, decay=None,
                             trim=False):
    """Dirichlet half-step: ``solve_waveform`` with the ends' values as traces."""
    return solve_waveform(subs, weights, left, right, False, f, u0, decay, trim)


def solve_neumann_waveform(subs, weights, left, right, f=None, u0=None, decay=None,
                           trim=False):
    """Neumann half-step: ``solve_waveform`` with the ends' values as outward fluxes."""
    return solve_waveform(subs, weights, left, right, True, f, u0, decay, trim)


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
