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
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

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


def _expand_trace(values, n_steps: int) -> np.ndarray:
    if values is None:
        return np.zeros(n_steps)
    if np.isscalar(values):
        return np.full(n_steps, float(values))
    arr = np.asarray(values, dtype=float)
    if arr.shape != (n_steps,):
        raise ValueError(f"trace has shape {arr.shape}, expected ({n_steps},)")
    return arr


def _initial_samples(u0, nodes) -> np.ndarray:
    if u0 is None:
        return np.zeros(len(nodes))
    if callable(u0):
        return np.asarray(u0(nodes), dtype=float)
    arr = np.asarray(u0, dtype=float)
    if arr.shape != nodes.shape:
        raise ValueError(f"initial data has shape {arr.shape}, expected {nodes.shape}")
    return arr


def _source_table(f, nodes, eval_times) -> np.ndarray:
    n, nx = len(eval_times), len(nodes)
    if f is None:
        return np.zeros((n, nx))
    if callable(f):
        return np.array([np.broadcast_to(f(nodes, t), (nx,)) for t in eval_times], dtype=float)
    arr = np.asarray(f, dtype=float)
    if arr.shape == (nx,):
        return np.broadcast_to(arr, (n, nx)).copy()
    if arr.shape == (n, nx):
        return arr
    raise ValueError(f"source has shape {arr.shape}, expected ({nx},) or ({n}, {nx})")


def solve_waveform(sub: Subdomain1D, weights: CaputoWeights, left, right, f=None, u0=None):
    """March one subdomain through all time levels with mixed end conditions.

    ``left`` and ``right`` are ('dirichlet', values) or ('flux', values) where
    values is None, a scalar, or a length-N array of the imposed trace /
    outward-normal flux at t_1..t_N.  Returns the field u[n, node] with row 0
    holding the initial samples.
    """
    n_steps = weights.n_steps
    specs = []
    for side in (left, right):
        if side is None:
            side = ("dirichlet", None)
        kind, values = side
        if kind not in ("dirichlet", "flux"):
            raise ValueError(f"boundary kind must be 'dirichlet' or 'flux', got {kind!r}")
        code = kernels.DIRICHLET if kind == "dirichlet" else kernels.FLUX
        specs.append((code, _expand_trace(values, n_steps)))
    (code_l, vals_l), (code_r, vals_r) = specs
    if (code_l == kernels.FLUX or code_r == kernels.FLUX) and sub.n_nodes < 3:
        raise ValueError("flux conditions need at least 3 nodes")

    theta_s = weights.implicit_fraction
    s = theta_s * sub.kappa / sub.dx**2
    c = sub.kappa / (2.0 * sub.dx)
    rows = weights.rows
    ftab = _source_table(f, sub.nodes, weights.eval_times)

    u = np.zeros((n_steps + 1, sub.n_nodes))
    u[0] = _initial_samples(u0, sub.nodes)
    du = np.zeros((n_steps, sub.n_nodes))
    for n in range(1, n_steps + 1):
        b_row = rows[n - 1]
        bnn = b_row[n - 1]
        rhs = bnn * u[n - 1] + ftab[n - 1]
        if n > 1:
            rhs -= b_row[: n - 1] @ du[: n - 1]
        if theta_s < 1.0:
            rhs += (1.0 - theta_s) * laplacian_apply(sub, u[n - 1])
        u[n] = kernels.step_solve(
            bnn, s, rhs, code_l, vals_l[n - 1], code_r, vals_r[n - 1], c, c
        )
        du[n - 1] = u[n] - u[n - 1]
    return u


def solve_dirichlet_waveform(sub, weights, left_trace, right_trace, f=None, u0=None):
    """Dirichlet half-step: imposed interface traces (None = physical boundary, g = 0)."""
    return solve_waveform(
        sub, weights, ("dirichlet", left_trace), ("dirichlet", right_trace), f=f, u0=u0
    )


def solve_neumann_waveform(sub, weights, left_flux, right_flux, f=None, u0=None):
    """Neumann half-step: imposed outward-flux traces.

    A side given as None is a physical boundary, where a homogeneous Dirichlet
    condition replaces the flux condition.
    """
    left = ("dirichlet", None) if left_flux is None else ("flux", left_flux)
    right = ("dirichlet", None) if right_flux is None else ("flux", right_flux)
    return solve_waveform(sub, weights, left, right, f=f, u0=u0)


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

    ftab = _source_table(f, nodes, weights.eval_times)
    u = np.zeros((n_steps + 1, ntot))
    u[0] = _initial_samples(u0, nodes)
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

def _interface_table(values, n_steps, ny1):
    if values is None:
        return np.zeros((n_steps, ny1))
    arr = np.asarray(values, dtype=float)
    if arr.shape != (n_steps, ny1):
        raise ValueError(f"interface data has shape {arr.shape}, expected ({n_steps}, {ny1})")
    return arr


def _solve_waveform_2d(sub: Subdomain2D, weights, side: str, kind: str, values, f, u0):
    if side not in ("left", "right"):
        raise ValueError(f"interface side must be 'left' or 'right', got {side!r}")
    nx, ny = sub.nx, sub.ny
    n_steps = weights.n_steps
    theta_s = weights.implicit_fraction
    kappa = sub.kappa
    sx = theta_s * kappa / sub.dx**2
    sy = theta_s * kappa / sub.dy**2
    ntot = (nx + 1) * (ny + 1)

    def gid(ix, iy):
        return ix * (ny + 1) + iy

    ifc_ix = 0 if side == "left" else nx
    xg, yg = np.meshgrid(sub.xs, sub.ys, indexing="ij")

    vals = _interface_table(values, n_steps, ny + 1)
    # node classification
    node_type = np.full((nx + 1, ny + 1), 1, dtype=np.int8)  # 1 = interior
    node_type[:, 0] = node_type[:, -1] = 0  # outer Dirichlet
    node_type[0, :] = node_type[-1, :] = 0
    node_type[ifc_ix, 1:-1] = 2  # interface rows (corners stay Dirichlet)

    interior = (node_type == 1).ravel()
    ifc_mask = (node_type == 2).ravel()

    # static sparse pattern: interior 5-point rows + identity rows + interface rows
    ixs, iys = np.nonzero(node_type == 1)
    g0 = gid(ixs, iys)
    stride = ny + 1
    offsets = (0, stride, -stride, 1, -1)
    off_coefs = (0.0, -sx, -sx, -sy, -sy)  # diagonal filled per step
    rows_i = [g0] * len(offsets)
    cols_i = [g0 + off for off in offsets]
    base_i = [np.full(len(g0), coef) for coef in off_coefs]
    diag_slot = 0

    rows_b = np.nonzero(node_type.ravel() == 0)[0]
    ifc_nodes = np.nonzero(ifc_mask)[0]

    sgn = 1 if side == "left" else -1
    c = kappa / (2.0 * sub.dx)
    inner1 = gid(1, 0) * sgn
    # flux row: c * (3 u_ifc - 4 u_ifc+1 + u_ifc+2) = value  (outward normal)

    if callable(u0):
        u_prev = np.asarray(u0(xg, yg), dtype=float).ravel()
    elif u0 is None:
        u_prev = np.zeros(ntot)
    else:
        u_prev = np.asarray(u0, dtype=float).ravel()
        if u_prev.size != ntot:
            raise ValueError("initial data does not match the lattice")

    eval_times = weights.eval_times
    u_hist = np.zeros((n_steps + 1, ntot))
    u_hist[0] = u_prev
    du = np.zeros((n_steps, ntot))

    lap_idx = np.nonzero(interior)[0]
    for n in range(1, n_steps + 1):
        b_row = weights.rows[n - 1]
        bnn = b_row[n - 1]

        rhs = np.zeros(ntot)
        if f is not None:
            fv = f(xg, yg, eval_times[n - 1]) if callable(f) else np.asarray(f, dtype=float)
            rhs[interior] = np.broadcast_to(fv, (nx + 1, ny + 1)).ravel()[interior]
        rhs[interior] += bnn * u_prev[interior]
        if n > 1:
            rhs[interior] -= (b_row[: n - 1] @ du[: n - 1])[interior]
        if theta_s < 1.0:
            up = u_prev
            lap = (
                kappa
                * (up[lap_idx + (ny + 1)] - 2.0 * up[lap_idx] + up[lap_idx - (ny + 1)])
                / sub.dx**2
            )
            lap += kappa * (up[lap_idx + 1] - 2.0 * up[lap_idx] + up[lap_idx - 1]) / sub.dy**2
            rhs[lap_idx] += (1.0 - theta_s) * lap

        data = []
        rr = []
        cc = []
        for blk, (rws, cls, base) in enumerate(zip(rows_i, cols_i, base_i)):
            rr.append(rws)
            cc.append(cls)
            data.append(
                np.full(len(rws), bnn + 2.0 * sx + 2.0 * sy) if blk == diag_slot else base
            )
        rr.append(rows_b)
        cc.append(rows_b)
        data.append(np.ones(len(rows_b)))
        if kind == "dirichlet":
            rr.append(ifc_nodes)
            cc.append(ifc_nodes)
            data.append(np.ones(len(ifc_nodes)))
            rhs[ifc_nodes] = vals[n - 1][1:-1]
        else:
            for off, coef in ((0, 3.0 * c), (inner1, -4.0 * c), (2 * inner1, c)):
                rr.append(ifc_nodes)
                cc.append(ifc_nodes + off)
                data.append(np.full(len(ifc_nodes), coef))
            rhs[ifc_nodes] = vals[n - 1][1:-1]

        mat = sp.csc_matrix(
            (np.concatenate(data), (np.concatenate(rr), np.concatenate(cc))),
            shape=(ntot, ntot),
        )
        u_new = splu(mat).solve(rhs)
        resid = np.abs(mat @ u_new - rhs).max()
        if not resid <= 1e-10 * max(1.0, np.abs(rhs).max()):
            raise ArithmeticError(f"step {n}: linear solve residual {resid:.3e}")
        u_hist[n] = u_new
        du[n - 1] = u_new - u_prev
        u_prev = u_new
    return u_hist.reshape(n_steps + 1, nx + 1, ny + 1)


def solve_dirichlet_waveform_2d(sub, weights, side, trace, f=None, u0=None):
    """Dirichlet solve on a strip subdomain; ``trace`` has shape (N, ny+1)."""
    return _solve_waveform_2d(sub, weights, side, "dirichlet", trace, f, u0)


def solve_neumann_waveform_2d(sub, weights, side, flux, f=None, u0=None):
    """Neumann solve on a strip subdomain; ``flux`` holds outward-flux rows (N, ny+1)."""
    return _solve_waveform_2d(sub, weights, side, "flux", flux, f, u0)


def interface_flux_series_2d(fields, side: str, sub: Subdomain2D) -> np.ndarray:
    """Outward flux kappa * d_n u along the interface column, per time level."""
    u = np.asarray(fields, dtype=float)
    c = sub.kappa / (2.0 * sub.dx)
    if side == "right":
        return c * (3.0 * u[..., -1, :] - 4.0 * u[..., -2, :] + u[..., -3, :])
    if side == "left":
        return c * (3.0 * u[..., 0, :] - 4.0 * u[..., 1, :] + u[..., 2, :])
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")
