"""Space-time subdomain solves over a whole time window.

Each solve marches the fully discrete fractional diffusion equation

    sum_j b[n, j] (u^j - u^{j-1}) = kappa * Lap_h u^{eval} + f

over all time levels at once, given Dirichlet traces or outward-flux traces
on the interface ends.  The spatial operator is evaluated implicitly at t_n
for the sub-diffusion and classical schemes and averaged between levels for
the wave scheme (whose Caputo weights refer to the half point).  A monolithic
whole-domain reference solver couples subdomains through the identical
one-sided flux-balance row the substructuring iterations use, so a converged
iteration and the monolithic solve agree to solver precision.  It solves that
row as written, in a five-band system per level, so it shares neither the
condensed rows of ``kernels`` nor their LAPACK path with the march it judges.

The march also takes a reaction term per line, which is how a 2D strip is
solved: a sine transform in y turns the 5-point operator into one x-problem
per y-mode, shifted by that mode's eigenvalue (``nnwr.run_nnwr_2d``).
"""

from dataclasses import dataclass, replace
from itertools import accumulate, groupby

import numpy as np
from scipy.linalg import solve_banded

from . import kernels
from .fractional_time import CaputoWeights
from .geometry import Partition1D, Subdomain1D, laplacian_apply

__all__ = [
    "tabulate",
    "solve_waveform",
    "solve_dirichlet_waveform",
    "solve_neumann_waveform",
    "MonolithicSolution",
    "solve_monolithic",
]


def _expand_trace(values, shape) -> np.ndarray:
    if values is None:
        return np.zeros(shape)
    if np.isscalar(values):
        return np.full(shape, float(values))
    arr = np.asarray(values, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"trace has shape {arr.shape}, expected {shape}")
    return arr


def _initial_samples(u0, grid, shape) -> np.ndarray:
    if u0 is None:
        return np.zeros(shape)
    if callable(u0):
        return np.broadcast_to(np.asarray(u0(*grid), dtype=float), shape)
    arr = np.asarray(u0, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"initial data has shape {arr.shape}, expected {shape}")
    return arr


def _source_table(f, grid, eval_times, shape) -> np.ndarray:
    n = len(eval_times)
    if f is None:
        return np.zeros((n,) + shape)
    if callable(f):
        return np.array([np.broadcast_to(f(*grid, t), shape) for t in eval_times], dtype=float)
    arr = np.asarray(f, dtype=float)
    if arr.shape == shape:
        return np.broadcast_to(arr, (n,) + shape).copy()
    if arr.shape == (n,) + shape:
        return arr
    raise ValueError(f"source has shape {arr.shape}, expected {shape} or {(n,) + shape}")


def tabulate(weights: CaputoWeights, f, u0, *grid):
    """``f`` at every level's evaluation time and ``u0`` on the nodes ``grid``.

    ``grid`` is the node array of a line, or the two coordinate arrays of a
    lattice.  A driver calls this once per run and hands the tables to every
    solve; None stays None.
    """
    shape = np.shape(grid[0])
    return (None if f is None else _source_table(f, grid, weights.eval_times, shape),
            None if u0 is None else _initial_samples(u0, grid, shape))


def solve_waveform(
    sub, weights: CaputoWeights, left, right, f=None, u0=None, decay=None, members=None,
):
    """March subdomains through all time levels with mixed end conditions.

    ``left`` and ``right`` are ('dirichlet', values) or ('flux', values) where
    values is None, a scalar, or a length-N array of the imposed trace /
    outward-normal flux at t_1..t_N; None stands for ('dirichlet', None).
    Returns the field u[n, node] with row 0 holding the initial samples.

    ``sub`` is one ``Subdomain1D`` or a sequence of them.  With a sequence,
    ``left`` and ``right`` hold one end condition per subdomain, ``f`` and
    ``u0`` are None, a callable, or one entry per subdomain, and the call
    returns one field per subdomain, each bit for bit the field of a call
    with that subdomain alone.

    With ``decay`` (shape (B,)) the call marches B independent problems at
    once, problem b solving D^nu u = kappa u_xx - decay[b] u + f with the
    reaction term split between levels like the Laplacian; with a sequence
    of subdomains ``decay`` may also hold one such row per subdomain.  Then
    ``u0`` and a time-independent ``f`` have shape (B, n_nodes), a time table
    ``f`` (N, B, n_nodes), trace arrays (N, B), and the field
    (N+1, B, n_nodes).

    With ``members`` = M the call marches M problems that share ``f``, ``u0``
    and ``decay`` but have their own end values, the members of a relaxation
    sweep.  Trace arrays then gain a leading member axis, (M, N) or
    (M, N, B), and so does the field, (M, N+1, n_nodes) or
    (M, N+1, B, n_nodes).

    Every time level is one ``kernels.step_solve`` call on a
    ``kernels.Stack`` built once per call, whose blocks are the lines of
    every subdomain, member and mode.  Each member's history term is its own
    product of the Caputo row with its increments on one subdomain, of the
    width a call without ``members`` uses, so the members and the subdomains
    of a call do not change one another's bits.
    """
    single = isinstance(sub, Subdomain1D)
    subs = (sub,) if single else tuple(sub)
    if single:
        left, right, f, u0 = [left], [right], [f], [u0]
    else:
        f = [f] * len(subs) if f is None or callable(f) else f
        u0 = [u0] * len(subs) if u0 is None or callable(u0) else u0
        if not len(left) == len(right) == len(f) == len(u0) == len(subs):
            raise ValueError("give one end condition, source and initial value per subdomain")
    n_steps = weights.n_steps
    theta_s = weights.implicit_fraction
    m = 1 if members is None else members
    if decay is not None:
        decay = np.asarray(decay, dtype=float)
        decay = np.broadcast_to(decay, (len(subs), decay.shape[-1]))  # a row per subdomain
    modes = () if decay is None else decay.shape[1:]
    lines = m * (1 if decay is None else decay.shape[1])  # blocks per subdomain
    per_block = lambda x: [v for v in x for _ in range(lines)]  # noqa: E731

    # subdomain i owns the columns bounds[i]:bounds[i+1] of a level, member by
    # member, then mode by mode
    bounds = list(accumulate([lines * s.n_nodes for s in subs], initial=0))
    kinds = ([], [])
    # one row of end values per level: the left ends of all blocks, then the right ends
    vals = np.empty((n_steps, 2, len(subs) * lines))
    for i, ends in enumerate(zip(left, right)):
        for k, side in enumerate(ends):
            kind, values = ("dirichlet", None) if side is None else side
            if kind not in ("dirichlet", "flux"):
                raise ValueError(f"boundary kind must be 'dirichlet' or 'flux', got {kind!r}")
            kinds[k].append(kernels.DIRICHLET if kind == "dirichlet" else kernels.FLUX)
            trace = _expand_trace(values, (() if members is None else (m,)) + (n_steps,) + modes)
            vals[:, k, i * lines:(i + 1) * lines] = trace.reshape(m, n_steps, -1).swapaxes(
                0, 1).reshape(n_steps, lines)
    vals = vals.reshape(n_steps, -1)
    if decay is not None:
        decay = np.concatenate([np.tile(row, m) for row in decay])
    stack = kernels.Stack(
        per_block([s.n_nodes for s in subs]),
        per_block([theta_s * s.kappa / s.dx**2 for s in subs]),
        per_block([s.kappa / (2.0 * s.dx) for s in subs]),
        per_block(kinds[0]), per_block(kinds[1]),
        None if decay is None else theta_s * decay,
    )
    if decay is not None:
        decay = np.repeat(decay, per_block([s.n_nodes for s in subs]))

    u = np.empty((n_steps + 1, stack.size))
    for i, s in enumerate(subs):
        shape = modes + (s.n_nodes,)
        u[0, bounds[i]:bounds[i + 1]].reshape(m, -1)[...] = _initial_samples(
            u0[i], (s.nodes,), shape).reshape(-1)
    # one source table per subdomain; each level concatenates its rows for the members
    sources = None
    if any(fi is not None for fi in f):
        sources = [_source_table(fi, (s.nodes,), weights.eval_times, modes + (s.n_nodes,))
                   .reshape(n_steps, -1) for fi, s in zip(f, subs)]

    # Consecutive subdomains on one grid (node count and dx) form a run.  A
    # run's lines go through one Laplacian call with a coefficient per line,
    # and its history products, one per member of each subdomain, through one
    # stacked matmul over member-major increments: each product reads a
    # contiguous (level, width) slab, as a call with one member of one
    # subdomain does (a strided slab changes the bits of narrow products).
    hist = np.empty(stack.size)
    runs = []
    for _, run in groupby(range(len(subs)), lambda i: (subs[i].n_nodes, subs[i].dx)):
        i, *others = run
        rows = slice(bounds[i], bounds[i + 1 + len(others)])
        s = subs[i]
        if others:
            s = replace(s, kappa=np.repeat([subs[j].kappa for j in (i, *others)], lines)[:, None])
        width = lines * s.n_nodes // m
        products = (rows.stop - rows.start) // width
        runs.append((rows, s, hist[rows].reshape(products, width),
                     u[:, rows].reshape(n_steps + 1, products, width),
                     np.empty((products, n_steps, width))))
    explicit = np.empty(stack.size) if theta_s < 1.0 else None
    for n in range(1, n_steps + 1):
        b_row = weights.rows[n - 1]
        bnn = b_row[n - 1]
        prev = u[n - 1]
        rhs = bnn * prev
        if sources is not None:
            rhs += np.concatenate([table[n - 1] for table in sources for _ in range(m)])
        if n > 1:
            for _, _, out, _, increments in runs:
                np.matmul(b_row[: n - 1], increments[:, : n - 1], out=out)
            rhs -= hist
        if explicit is not None:
            for rows, s, *_ in runs:
                explicit[rows] = laplacian_apply(s, prev[rows].reshape(-1, s.n_nodes)).ravel()
            if decay is not None:
                explicit -= decay * prev
            rhs += (1.0 - theta_s) * explicit
        u[n] = kernels.step_solve(bnn, stack, rhs, vals[n - 1])
        for _, _, _, field, increments in runs:
            np.subtract(field[n], field[n - 1], out=increments[:, n - 1])

    fields = []
    for i, s in enumerate(subs):
        field = u[:, bounds[i]:bounds[i + 1]].reshape((n_steps + 1, m) + modes + (s.n_nodes,))
        fields.append(field[:, 0] if members is None else field.swapaxes(0, 1))
    return fields[0] if single else fields


def _ends(sub, side, left, right):
    """The end conditions ``side(value)`` of one subdomain, or of each of a sequence."""
    if isinstance(sub, Subdomain1D):
        return side(left), side(right)
    return [side(v) for v in left], [side(v) for v in right]


def solve_dirichlet_waveform(sub, weights, left_trace, right_trace, f=None, u0=None,
                             decay=None, members=None):
    """Dirichlet half-step: imposed interface traces (None = physical boundary, g = 0).

    With a sequence of subdomains the traces hold one entry per subdomain.
    """
    left, right = _ends(sub, lambda g: ("dirichlet", g), left_trace, right_trace)
    return solve_waveform(sub, weights, left, right, f=f, u0=u0, decay=decay, members=members)


def solve_neumann_waveform(sub, weights, left_flux, right_flux, f=None, u0=None,
                           decay=None, members=None):
    """Neumann half-step: imposed outward-flux traces.

    A side given as None is a physical boundary, where a homogeneous Dirichlet
    condition replaces the flux condition.  With a sequence of subdomains the
    fluxes hold one entry per subdomain.
    """
    left, right = _ends(sub, lambda q: ("dirichlet", None) if q is None else ("flux", q),
                        left_flux, right_flux)
    return solve_waveform(sub, weights, left, right, f=f, u0=u0, decay=decay, members=members)


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

    At every interface node g the PDE row is replaced by the balance of the
    one-sided outward fluxes of both neighbours,
    c_l (u[g-2] - 4 u[g-1] + 3 u[g]) + c_r (3 u[g] - 4 u[g+1] + u[g+2]) = 0 with
    c = kappa / (2 dx) of each side, which is exactly the fixed-point
    condition of the substructuring iterations.  Each level is the five-band
    system as written, solved by ``scipy.linalg.solve_banded`` (LAPACK
    ``gbsv``), not condensed to the tridiagonal form of ``kernels``.
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

    ftab = _source_table(f, (nodes,), weights.eval_times, (ntot,))
    u = np.zeros((n_steps + 1, ntot))
    u[0] = _initial_samples(u0, (nodes,), (ntot,))
    du = np.zeros((n_steps, ntot))
    for n in range(1, n_steps + 1):
        b_row = weights.rows[n - 1]
        bnn = b_row[n - 1]
        prev = u[n - 1]
        rhs = bnn * prev + ftab[n - 1]
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
