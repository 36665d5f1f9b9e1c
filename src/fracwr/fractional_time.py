"""Time meshes and discrete Caputo-derivative convolution weights.

One builder, ``caputo_weights``, covers the full order range 2*nu in (0, 2)
with three schemes:

* ``l1``        -- orders in (0, 1), piecewise-linear quadrature on a possibly
                   graded mesh t_n = T * (n/N)**r; exact on linear functions.
* ``classical`` -- order exactly 1, plain backward Euler differences: the L1
                   rows at order 1, which are 1/dt on the diagonal bit for bit.
* ``wave``      -- orders in (1, 2) on a uniform mesh, built from the
                   coefficient sequence a_j = (j+1)**(2-a) - j**(2-a) acting on
                   first-difference velocities with zero initial velocity
                   baked in; the operator value approximates the derivative at
                   the half point t_{n-1/2} with accuracy 3 - a.

Every scheme is stored in one common form: lower-triangular rows b[n, j] such
that the discrete operator at level n equals sum_j b[n, j] * (u^j - u^{j-1}).
Constants are therefore annihilated exactly by construction.  Summed by parts,
the same rows act on the levels themselves (``CaputoWeights.level_rows``).
"""

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "TimeMesh",
    "CaputoWeights",
    "build_graded_mesh",
    "default_grading",
    "caputo_weights",
    "caputo_apply",
]


@dataclass(frozen=True)
class TimeMesh:
    """Strictly increasing time levels t_0 = 0 .. t_N = T."""

    points: np.ndarray
    grading: float
    horizon: float

    def __post_init__(self):
        object.__setattr__(self, "points", np.asarray(self.points, dtype=float))

    @property
    def n_steps(self) -> int:
        return len(self.points) - 1

    @property
    def spacings(self) -> np.ndarray:
        return np.diff(self.points)

    @property
    def is_uniform(self) -> bool:
        dt = self.spacings
        return bool(np.all(np.abs(dt - dt[0]) <= 1e-12 * self.horizon))


def default_grading(order: float) -> float:
    """Mesh grading exponent giving the optimal L1 rate: (2-a)/a for a < 1."""
    if 0.0 < order < 1.0:
        return (2.0 - order) / order
    return 1.0


def build_graded_mesh(horizon: float, n_steps: int, grading: float = 1.0) -> TimeMesh:
    """Mesh with t_n = T * (n/N)**r; r = 1 gives uniform spacing."""
    if not (horizon > 0.0 and math.isfinite(horizon)):
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    if isinstance(n_steps, bool) or not isinstance(n_steps, numbers.Integral) or n_steps < 1:
        raise ValueError(f"n_steps must be an integer >= 1, got {n_steps!r}")
    if not (grading >= 1.0 and math.isfinite(grading)):
        raise ValueError(f"grading exponent must be finite and >= 1, got {grading}")
    n = np.arange(n_steps + 1, dtype=float)
    points = horizon * (n / n_steps) ** grading
    points[-1] = horizon
    if not np.all(np.diff(points) > 0.0):  # a steep grading underflows the first levels to 0
        raise ValueError(f"grading {grading} makes some of the {n_steps} time steps zero")
    return TimeMesh(points=points, grading=float(grading), horizon=float(horizon))


@dataclass(frozen=True)
class CaputoWeights:
    """Lower-triangular first-difference weights of a discrete Caputo operator.

    ``rows[n-1, j-1]`` multiplies (u^j - u^{j-1}) in the operator at level n,
    n = 1..N.  ``implicit_fraction`` tells a PDE solver how to couple the
    spatial operator: 1.0 means fully implicit at t_n, 0.5 means averaged
    between levels (the wave scheme evaluates at the half point).
    """

    order: float
    rows: np.ndarray
    scheme: str
    mesh: TimeMesh

    @property
    def n_steps(self) -> int:
        return self.mesh.n_steps

    @property
    def diagonal(self) -> np.ndarray:
        return np.diag(self.rows)

    @cached_property
    def level_rows(self) -> np.ndarray:
        """The operator in level form, (N, N+1): ``level_rows[n-1, j]``
        multiplies u^j in the operator at level n, j = 0..n.

        Row n holds -b[n, 1], then b[n, j] - b[n, j+1], then b[n, n] (the
        rows times the first difference), and zeros beyond.  Columns 1..N are
        the operator on u^1..u^N, and minus the first n columns of row n give
        that level's history term.  Computed once per weights; read-only.
        """
        n = self.n_steps
        level = np.zeros((n, n + 1))
        level[:, 1:] = self.rows
        level[:, :-1] -= self.rows
        level.setflags(write=False)
        return level

    @property
    def implicit_fraction(self) -> float:
        return 0.5 if self.scheme == "wave" else 1.0

    @property
    def eval_times(self) -> np.ndarray:
        """Times the operator value at level n refers to (t_n or midpoint)."""
        t = self.mesh.points
        if self.scheme == "wave":
            return 0.5 * (t[1:] + t[:-1])
        return t[1:]


def _l1_rows(points: np.ndarray, alpha: float) -> np.ndarray:
    """Rows of the L1 scheme on an arbitrary strictly increasing mesh.

    b[n, j] = ((t_n - t_{j-1})**p - (t_n - t_j)**p) / (Gamma(2-a) * dt_j) with
    p = 1 - a.  The power difference is evaluated through expm1/log1p so that
    strongly graded meshes (dt_1 ~ 1e-17 * T) keep full relative accuracy.
    """
    p = 1.0 - alpha
    n_steps = len(points) - 1
    dt = np.diff(points)
    g = math.gamma(2.0 - alpha)
    rows = np.zeros((n_steps, n_steps))
    for n in range(1, n_steps + 1):
        y = points[n] - points[1 : n + 1]  # t_n - t_j, j = 1..n
        num = np.empty(n)
        if n > 1:
            yj = y[: n - 1]
            num[: n - 1] = yj**p * np.expm1(p * np.log1p(dt[: n - 1] / yj))
        num[n - 1] = dt[n - 1] ** p
        rows[n - 1, :n] = num / (g * dt[:n])
    return rows


def wave_coefficients(order: float, count: int) -> np.ndarray:
    """a_j = (j+1)**(2-a) - j**(2-a), positive and strictly decreasing."""
    j = np.arange(count, dtype=float)
    return (j + 1.0) ** (2.0 - order) - j ** (2.0 - order)


def _wave_rows(mesh: TimeMesh, order: float) -> np.ndarray:
    """Rows of the wave scheme on a uniform mesh, zero initial velocity.

    With velocities V^j = (u^j - u^{j-1})/dt and V^0 = 0, the operator is
    (dt**(1-a)/Gamma(3-a)) * [a_0 V^n + sum_{j<n} (a_{n-j} - a_{n-j-1}) V^j],
    an approximation of the Caputo derivative at t_{n-1/2}.
    """
    n_steps = mesh.n_steps
    a = wave_coefficients(order, n_steps + 1)
    coef = (mesh.horizon / n_steps) ** (-order) / math.gamma(3.0 - order)
    rows = np.zeros((n_steps, n_steps))
    for n in range(1, n_steps + 1):
        rows[n - 1, n - 1] = coef * a[0]
        if n > 1:
            j = np.arange(1, n)
            rows[n - 1, : n - 1] = coef * (a[n - j] - a[n - j - 1])
    return rows


def caputo_weights(mesh: TimeMesh, order: float) -> CaputoWeights:
    """The weights of ``order`` on ``mesh``: L1 below 1, backward Euler at 1,
    the wave scheme above 1 (which needs a uniform mesh)."""
    if not 0.0 < order < 2.0:
        raise ValueError(f"order must lie in (0, 2), got {order}")
    if order <= 1.0:
        rows = _l1_rows(mesh.points, order)
        scheme = "l1" if order < 1.0 else "classical"
    elif mesh.is_uniform:
        rows, scheme = _wave_rows(mesh, order), "wave"
    else:
        raise ValueError("the wave scheme supports uniform meshes only")
    return CaputoWeights(order=float(order), rows=rows, scheme=scheme, mesh=mesh)


def caputo_apply(weights: CaputoWeights, history) -> float:
    """Discrete Caputo operator value at level n = len(history) - 1.

    ``history`` holds samples u^0 .. u^n; pure function of its arguments.
    """
    h = np.asarray(history, dtype=float)
    n = len(h) - 1
    if not 1 <= n <= weights.n_steps:
        raise ValueError(
            f"history of length {len(h)} does not match any level 1..{weights.n_steps}"
        )
    return float(weights.rows[n - 1, :n] @ np.diff(h))
