"""Subdomain geometry, discrete Laplacians and interface-flux extraction.

Domains are partitioned into non-overlapping subdomains that share exactly
their interface points; every subdomain carries its own constant diffusion
coefficient and grid step, so neighbors may be resolved differently.  Fluxes
are one-sided second-order three-point derivatives signed as outward-normal
values, the same stencil the solvers use to impose Neumann data, which keeps
the substructuring coupling and the monolithic reference discretization in
exact agreement.  The 2D strip is a two-subdomain partition along x times
one uniform y lattice (``axis_nodes``) that both subdomains share.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Subdomain1D",
    "Partition1D",
    "build_subdomain",
    "build_partition",
    "axis_nodes",
    "laplacian_apply",
    "interface_flux_series",
]

_DIV_TOL = 1e-8


@dataclass(frozen=True)
class Subdomain1D:
    x_left: float
    x_right: float
    kappa: float
    dx: float
    nodes: np.ndarray

    @property
    def length(self) -> float:
        return self.x_right - self.x_left

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def scaled_length(self) -> float:
        """Length divided by sqrt(kappa), the natural convergence variable."""
        return self.length / math.sqrt(self.kappa)


def build_subdomain(x_left: float, x_right: float, kappa: float, dx: float) -> Subdomain1D:
    if not x_left < x_right:
        raise ValueError(f"empty interval [{x_left}, {x_right}]")
    if not kappa > 0.0:
        raise ValueError(f"diffusion coefficient must be positive, got {kappa}")
    nodes = axis_nodes(x_left, x_right, dx)
    dx = (x_right - x_left) / (len(nodes) - 1)
    if not math.isfinite(kappa / dx / dx):  # then kappa / (2 * dx) is finite too
        raise ValueError(f"kappa {kappa} at step {dx} gives a non-finite stencil coefficient")
    return Subdomain1D(x_left, x_right, kappa, dx, nodes)


@dataclass(frozen=True)
class Partition1D:
    subdomains: tuple

    @property
    def n_subdomains(self) -> int:
        return len(self.subdomains)

    @property
    def interfaces(self) -> tuple:
        return tuple(s.x_right for s in self.subdomains[:-1])

    @property
    def kappas(self) -> tuple:
        return tuple(s.kappa for s in self.subdomains)


def build_partition(domain, breakpoints, kappas, dxs) -> Partition1D:
    """Tile ``domain`` at ``breakpoints`` into conforming subdomains."""
    x0, x1 = float(domain[0]), float(domain[1])
    if not x0 < x1:
        raise ValueError(f"empty domain {domain}")
    breaks = [float(b) for b in breakpoints]
    if any(not x0 < b < x1 for b in breaks):
        raise ValueError(f"breakpoints {breaks} must lie strictly inside {domain}")
    if sorted(breaks) != breaks or len(set(breaks)) != len(breaks):
        raise ValueError(f"breakpoints must be strictly increasing, got {breaks}")
    edges = [x0] + breaks + [x1]
    n_sub = len(edges) - 1
    kappas = _per_subdomain(kappas, n_sub, "kappa")
    dxs = _per_subdomain(dxs, n_sub, "dx")
    subs = tuple(
        build_subdomain(edges[i], edges[i + 1], kappas[i], dxs[i]) for i in range(n_sub)
    )
    return Partition1D(subdomains=subs)


def _per_subdomain(values, n_sub, name):
    if np.isscalar(values):
        return [float(values)] * n_sub
    values = [float(v) for v in values]
    if len(values) != n_sub:
        raise ValueError(f"{name} list has {len(values)} entries for {n_sub} subdomains")
    return values


def laplacian_apply(sub: Subdomain1D, field_row) -> np.ndarray:
    """kappa * (u_{i-1} - 2 u_i + u_{i+1}) / dx**2 at interior nodes, 0 at ends.

    The stencil runs along the last axis, so a stack of rows is applied at once.
    ``sub.kappa`` may also be a column with one coefficient per row, for the
    lines of several subdomains that share the node count and ``dx``.
    """
    u = np.asarray(field_row, dtype=float)
    if u.shape[-1] != sub.n_nodes:
        raise ValueError(f"field has {u.shape[-1]} values for {sub.n_nodes} nodes")
    out = np.zeros_like(u)
    out[..., 1:-1] = sub.kappa * (u[..., :-2] - 2.0 * u[..., 1:-1] + u[..., 2:]) / sub.dx**2
    return out


def interface_flux_series(fields, side: str, sub: Subdomain1D) -> np.ndarray:
    """Outward flux at one end for every row of a space-time field."""
    u = np.asarray(fields, dtype=float)
    if u.shape[-1] != sub.n_nodes or sub.n_nodes < 3:
        raise ValueError("field width does not match subdomain nodes")
    c = sub.kappa / (2.0 * sub.dx)
    if side == "right":
        return c * (3.0 * u[..., -1] - 4.0 * u[..., -2] + u[..., -3])
    if side == "left":
        return c * (3.0 * u[..., 0] - 4.0 * u[..., 1] + u[..., 2])
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def axis_nodes(lo, hi, step):
    """The nodes of [lo, hi] at spacing ``step``, which must tile it in at least two cells."""
    if not (step > 0.0 and math.isfinite(step)):
        raise ValueError(f"step must be positive and finite, got {step}")
    cells = (hi - lo) / step
    if not math.isfinite(cells):
        raise ValueError(f"step {step} gives a non-finite cell count on [{lo}, {hi}]")
    n = int(round(cells))
    if n < 2 or abs(cells - n) > _DIV_TOL * max(1.0, cells):
        raise ValueError(f"step {step} does not tile [{lo}, {hi}]")
    return np.linspace(lo, hi, n + 1)
