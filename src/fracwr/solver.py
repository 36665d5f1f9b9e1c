"""Space-time subdomain solves over a whole time window.

Each solve marches the fully discrete fractional diffusion equation

    sum_j b[n, j] (u^j - u^{j-1}) = kappa * Lap_h u^{eval} + f

over all time levels at once, given Dirichlet traces or outward-flux traces
on the interface ends.  The spatial operator is evaluated implicitly at t_n
for the sub-diffusion and classical schemes and averaged between levels for
the wave scheme (whose Caputo weights refer to the half point).  A monolithic
whole-domain reference solver couples subdomains through the identical
one-sided flux-balance row the substructuring iterations use, so a converged
iteration and the monolithic solve agree to solver precision.

A 2D strip solve is a batch of such 1D solves: a sine transform in y turns
the 5-point operator into one x-problem per y-mode, shifted by that mode's
eigenvalue, and all modes march together through one batched tridiagonal
solve per time level.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .fractional_time import CaputoWeights
from .geometry import Partition1D, Subdomain1D, Subdomain2D, laplacian_apply

__all__ = [
    "solve_waveform",
    "solve_dirichlet_waveform",
    "solve_neumann_waveform",
    "MonolithicSolution",
    "solve_monolithic",
    "solve_dirichlet_waveform_2d",
    "solve_neumann_waveform_2d",
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


def _initial_samples(u0, nodes, shape) -> np.ndarray:
    if u0 is None:
        return np.zeros(shape)
    if callable(u0):
        return np.asarray(u0(nodes), dtype=float)
    arr = np.asarray(u0, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"initial data has shape {arr.shape}, expected {shape}")
    return arr


def _source_table(f, nodes, eval_times, shape) -> np.ndarray:
    n = len(eval_times)
    if f is None:
        return np.zeros((n,) + shape)
    if callable(f):
        return np.array([np.broadcast_to(f(nodes, t), shape) for t in eval_times], dtype=float)
    arr = np.asarray(f, dtype=float)
    if arr.shape == shape:
        return np.broadcast_to(arr, (n,) + shape).copy()
    if arr.shape == (n,) + shape:
        return arr
    raise ValueError(f"source has shape {arr.shape}, expected {shape} or {(n,) + shape}")


def solve_waveform(
    sub: Subdomain1D, weights: CaputoWeights, left, right, f=None, u0=None, decay=None,
    members=None,
):
    """March one subdomain through all time levels with mixed end conditions.

    ``left`` and ``right`` are ('dirichlet', values) or ('flux', values) where
    values is None, a scalar, or a length-N array of the imposed trace /
    outward-normal flux at t_1..t_N.  Returns the field u[n, node] with row 0
    holding the initial samples.

    With ``decay`` (shape (B,)) the call marches B independent problems at
    once, problem b solving D^nu u = kappa u_xx - decay[b] u + f with the
    reaction term split between levels like the Laplacian.  Then ``u0`` and
    a time-independent ``f`` have shape (B, n_nodes), a time table ``f``
    (N, B, n_nodes), trace arrays (N, B), and the field (N+1, B, n_nodes).

    With ``members`` = M the call marches M problems that share ``f``, ``u0``
    and ``decay`` but have their own end values, the members of a relaxation
    sweep.  Trace arrays then gain a leading member axis, (M, N) or
    (M, N, B), and so does the field, (M, N+1, n_nodes) or
    (M, N+1, B, n_nodes).  Each member's history term is its own product of
    the Caputo row with its increments (one stacked ``matmul`` over
    member-major increments), so a member's field is bit for bit the one a
    call without ``members`` gives.  Every time level is one
    ``kernels.step_solve`` call over all members and modes.
    """
    n_steps = weights.n_steps
    theta_s = weights.implicit_fraction
    m = 1 if members is None else members
    shape = (sub.n_nodes,) if decay is None else (len(decay), sub.n_nodes)
    # each level stacks the systems of all members (and modes); a lone 1D
    # system goes as a flat row, whose end updates kernels.step_solve runs on scalars
    n_sys = m * (1 if decay is None else len(decay))
    level = (n_sys, sub.n_nodes) if n_sys > 1 or decay is not None else shape
    if decay is None:
        shift = 0.0
    else:
        decay = np.tile(np.asarray(decay, dtype=float), m)[:, None]
        shift = theta_s * decay[:, 0]
    specs = []
    for side in (left, right):
        if side is None:
            side = ("dirichlet", None)
        kind, values = side
        if kind not in ("dirichlet", "flux"):
            raise ValueError(f"boundary kind must be 'dirichlet' or 'flux', got {kind!r}")
        code = kernels.DIRICHLET if kind == "dirichlet" else kernels.FLUX
        trace_shape = (n_steps,) + shape[:-1]
        vals = _expand_trace(values, trace_shape if members is None else (m,) + trace_shape)
        # one row of end values per level, across the stacked systems
        vals = vals.reshape(m, n_steps, -1).swapaxes(0, 1).reshape((n_steps,) + level[:-1])
        specs.append((code, vals))
    (code_l, vals_l), (code_r, vals_r) = specs
    if (code_l == kernels.FLUX or code_r == kernels.FLUX) and sub.n_nodes < 3:
        raise ValueError("flux conditions need at least 3 nodes")

    s = theta_s * sub.kappa / sub.dx**2
    c = sub.kappa / (2.0 * sub.dx)
    rows = weights.rows
    ftab = None
    if f is not None:  # shared by the members
        ftab = np.empty((n_steps,) + level)
        ftab.reshape((n_steps, m) + shape)[...] = _source_table(
            f, sub.nodes, weights.eval_times, shape)[:, None]

    u = np.empty((n_steps + 1,) + level)
    u[0].reshape((m,) + shape)[...] = _initial_samples(u0, sub.nodes, shape)
    # member-major increments, so each member's history is one product
    du = np.zeros((m, n_steps, u[0].size // m))
    for n in range(1, n_steps + 1):
        b_row = rows[n - 1]
        bnn = b_row[n - 1]
        prev = u[n - 1]
        rhs = bnn * prev
        if ftab is not None:
            rhs += ftab[n - 1]
        if n > 1:
            rhs -= np.matmul(b_row[: n - 1], du[:, : n - 1]).reshape(level)
        if theta_s < 1.0:
            explicit = laplacian_apply(sub, prev)
            if decay is not None:
                explicit -= decay * prev
            rhs += (1.0 - theta_s) * explicit
        u[n] = kernels.step_solve(
            bnn + shift, s, rhs, code_l, vals_l[n - 1], code_r, vals_r[n - 1], c, c
        )
        du[:, n - 1] = (u[n] - prev).reshape(m, -1)
    u = u.reshape((n_steps + 1, m) + shape)
    return u[:, 0] if members is None else u.swapaxes(0, 1)


def solve_dirichlet_waveform(sub, weights, left_trace, right_trace, f=None, u0=None,
                             members=None):
    """Dirichlet half-step: imposed interface traces (None = physical boundary, g = 0)."""
    return solve_waveform(
        sub, weights, ("dirichlet", left_trace), ("dirichlet", right_trace), f=f, u0=u0,
        members=members,
    )


def solve_neumann_waveform(sub, weights, left_flux, right_flux, f=None, u0=None,
                           members=None):
    """Neumann half-step: imposed outward-flux traces.

    A side given as None is a physical boundary, where a homogeneous Dirichlet
    condition replaces the flux condition.
    """
    left = ("dirichlet", None) if left_flux is None else ("flux", left_flux)
    right = ("dirichlet", None) if right_flux is None else ("flux", right_flux)
    return solve_waveform(sub, weights, left, right, f=f, u0=u0, members=members)


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

    At every interface node the PDE row is replaced by the algebraic balance
    of one-sided outward fluxes from both neighbors, which is exactly the
    fixed-point condition of the substructuring iterations.
    """
    nodes, ifc = _global_grid(partition)
    ntot = len(nodes)
    n_steps = weights.n_steps
    theta_s = weights.implicit_fraction

    s_arr = np.empty(ntot)
    kap = np.empty(ntot)
    dxs = np.empty(ntot)
    pos = 0
    for sub in partition.subdomains:
        hi = pos + sub.n_nodes
        s_arr[pos:hi] = theta_s * sub.kappa / sub.dx**2
        kap[pos:hi] = sub.kappa
        dxs[pos:hi] = sub.dx
        pos = hi - 1
    # interface nodes keep the left subdomain's values in the arrays above;
    # their rows are rebuilt from both sides below.
    ifc_coef = []
    for m, g in enumerate(ifc):
        sl = partition.subdomains[m]
        sr = partition.subdomains[m + 1]
        ifc_coef.append((sl.kappa / (2.0 * sl.dx), sr.kappa / (2.0 * sr.dx)))

    ftab = _source_table(f, nodes, weights.eval_times, (ntot,))
    u = np.zeros((n_steps + 1, ntot))
    u[0] = _initial_samples(u0, nodes, (ntot,))
    du = np.zeros((n_steps, ntot))

    interior = np.ones(ntot, dtype=bool)
    interior[0] = interior[-1] = False
    for g in ifc:
        interior[g] = False

    lap_prev = np.zeros(ntot)
    for n in range(1, n_steps + 1):
        b_row = weights.rows[n - 1]
        bnn = b_row[n - 1]
        rhs = bnn * u[n - 1] + ftab[n - 1]
        if n > 1:
            rhs -= b_row[: n - 1] @ du[: n - 1]
        if theta_s < 1.0:
            lap_prev[1:-1] = (
                kap[1:-1] * (u[n - 1, :-2] - 2.0 * u[n - 1, 1:-1] + u[n - 1, 2:]) / dxs[1:-1] ** 2
            )
            lap_prev[~interior] = 0.0
            rhs = rhs + (1.0 - theta_s) * lap_prev

        lower = -s_arr.copy()
        diag = bnn + 2.0 * s_arr
        upper = -s_arr.copy()
        for (cl, cr), g in zip(ifc_coef, ifc):
            row_lm = -4.0 * cl
            row_c = 3.0 * cl + 3.0 * cr
            row_rp = -4.0 * cr
            r_val = 0.0
            fac = cl / lower[g - 1]
            row_lm -= fac * diag[g - 1]
            row_c -= fac * upper[g - 1]
            r_val -= fac * rhs[g - 1]
            fac = cr / upper[g + 1]
            row_rp -= fac * diag[g + 1]
            row_c -= fac * lower[g + 1]
            r_val -= fac * rhs[g + 1]
            lower[g] = row_lm
            diag[g] = row_c
            upper[g] = row_rp
            rhs[g] = r_val
        # physical ends: homogeneous Dirichlet, so only the rows between them
        # are solved and u[n] keeps its zero end values
        u[n, 1:-1] = kernels.tridiag_solve(lower[1:-1], diag[1:-1], upper[1:-1], rhs[1:-1])
        du[n - 1] = u[n] - u[n - 1]
    return MonolithicSolution(field=u, nodes=nodes, interface_indices=ifc)


# ---------------------------------------------------------------------------
# 2D strip solves (two subdomains sharing a vertical interface)
# ---------------------------------------------------------------------------

def _solve_waveform_2d(sub: Subdomain2D, weights, side: str, kind: str, values, f, u0, members):
    """Strip solve as a batch of 1D problems, one per sine mode in y.

    The strip has homogeneous Dirichlet data on its y-boundary rows, a uniform
    dy, one kappa and an interface condition that acts along x alone, so the
    orthonormal DST-I over the ny-1 interior y nodes diagonalises the 5-point
    operator exactly: mode k is a 1D problem with the extra reaction
    coefficient kappa * lambda_k / dy**2, lambda_k = 4 sin(k pi / (2 ny))**2
    (Buzbee, Golub & Nielson, SIAM J. Numer. Anal. 1970).  ``members`` works
    as in ``solve_waveform``: the interface rows and the field gain a leading
    member axis, and all members' modes march together.
    """
    if side not in ("left", "right"):
        raise ValueError(f"interface side must be 'left' or 'right', got {side!r}")
    nx, ny = sub.nx, sub.ny
    n_steps = weights.n_steps
    theta_s = weights.implicit_fraction
    lead = () if members is None else (members,)
    vals = _expand_trace(values, lead + (n_steps, ny + 1))
    xg, yg = np.meshgrid(sub.xs, sub.ys, indexing="ij")
    if callable(u0):
        u_init = np.broadcast_to(np.asarray(u0(xg, yg), dtype=float), xg.shape)
    elif u0 is None:
        u_init = np.zeros(xg.shape)
    else:
        u_init = np.asarray(u0, dtype=float)
        if u_init.size != xg.size:
            raise ValueError("initial data does not match the lattice")
        u_init = u_init.reshape(xg.shape)

    # the transform matrix is symmetric and its own inverse
    k = np.arange(1, ny)
    sine = np.sqrt(2.0 / ny) * np.sin(np.pi * np.outer(k, k) / ny)
    decay = sub.kappa * (2.0 * np.sin(0.5 * np.pi * k / ny) / sub.dy) ** 2

    # mode tables have the x nodes last, as the 1D march stores its fields;
    # the source table is built only when there is a source
    edge_source = theta_s < 1.0 and u0 is not None
    f_hat = None
    if f is not None or edge_source:
        f_hat = np.zeros((n_steps, ny - 1, nx + 1))
    if f is not None:
        for n, t in enumerate(weights.eval_times):
            fv = f(xg, yg, t) if callable(f) else f
            f_hat[n] = sine @ np.broadcast_to(fv, xg.shape)[:, 1:-1].T
    if edge_source:
        # the explicit half of the first level reads u0 on the y-boundary rows
        edge = (1.0 - theta_s) * sub.kappa / sub.dy**2
        f_hat[0] += edge * (np.outer(sine[0], u_init[:, 0]) + np.outer(sine[-1], u_init[:, -1]))

    interface = (kind, vals[..., 1:-1] @ sine)
    left, right = (interface, None) if side == "left" else (None, interface)
    line = Subdomain1D(sub.x_left, sub.x_right, sub.kappa, sub.dx, sub.xs)
    u_hat = solve_waveform(
        line, weights, left, right, f=f_hat, u0=sine @ u_init[:, 1:-1].T, decay=decay,
        members=members,
    )

    # physical boundary values stay zero after the initial level
    out = np.zeros(lead + (n_steps + 1, nx + 1, ny + 1))
    np.matmul(np.swapaxes(u_hat, -1, -2), sine, out=out[..., 1:-1])
    out[..., 0, :, :] = u_init
    if kind == "dirichlet":
        out[..., 1:, 0 if side == "left" else nx, 1:-1] = vals[..., 1:-1]
    return out


def solve_dirichlet_waveform_2d(sub, weights, side, trace, f=None, u0=None, members=None):
    """Dirichlet solve on a strip subdomain; ``trace`` has shape (N, ny+1)."""
    return _solve_waveform_2d(sub, weights, side, "dirichlet", trace, f, u0, members)


def solve_neumann_waveform_2d(sub, weights, side, flux, f=None, u0=None, members=None):
    """Neumann solve on a strip subdomain; ``flux`` holds outward-flux rows (N, ny+1)."""
    return _solve_waveform_2d(sub, weights, side, "flux", flux, f, u0, members)


def interface_flux_series_2d(fields, side: str, sub: Subdomain2D) -> np.ndarray:
    """Outward flux kappa * d_n u along the interface column, per time level."""
    u = np.asarray(fields, dtype=float)
    c = sub.kappa / (2.0 * sub.dx)
    if side == "right":
        return c * (3.0 * u[..., -1, :] - 4.0 * u[..., -2, :] + u[..., -3, :])
    if side == "left":
        return c * (3.0 * u[..., 0, :] - 4.0 * u[..., 1, :] + u[..., 2, :])
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")
