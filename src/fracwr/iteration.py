"""The interface iteration shared by every waveform-relaxation driver.

Seen from the interface, DNWR and NNWR (1D and 2D) are the same relaxed
fixed-point iteration on the interface traces: only the sweep that maps the
current traces to the next ones differs.  This module holds what the drivers
share: the run configuration (time mesh, stopping rule, mode, the weight of
each interface), the report, the result, and the loop that applies a sweep
until the sup norm of the interface error meets the tolerance, for every
member of a relaxation-weight sweep at once.  In
``error_equation`` mode all problem data are zero, so the trace iterate is
itself the error; ``forced`` mode stops on the size of the last update.
"""

import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from .fractional_time import build_graded_mesh, caputo_weights, default_grading

__all__ = ["IterationConfig", "IterationReport", "RunResult", "iterate"]


@dataclass(frozen=True)
class IterationReport:
    """Per-sweep interface error norms and run metadata."""

    errors: np.ndarray  # (iterations, n_interfaces)
    converged: bool
    theta: np.ndarray
    wall_time: float

    @property
    def iterations(self) -> int:
        return self.errors.shape[0]

    @property
    def sup_errors(self) -> np.ndarray:
        """Max over interfaces per sweep."""
        return self.errors.max(axis=1)


@dataclass(frozen=True)
class RunResult:
    """What a driver returns: the report, the last traces and, on request, the last fields."""

    report: IterationReport
    traces: np.ndarray  # DNWR (N,), NNWR-1D (n_interfaces, N), NNWR-2D (N, ny+1)
    fields: tuple = field(default=None, repr=False)


@dataclass(frozen=True, kw_only=True)
class IterationConfig:
    """Time mesh, stopping rule, relaxation weights and data of one interface iteration.

    ``theta`` is ``"optimal"``, one weight for every interface, or one weight
    per interface; a driver config supplies ``optimal_theta()``.
    """

    order: float
    horizon: float
    n_steps: int
    tolerance: float = 1e-8
    max_iter: int = 50
    mode: str = "error_equation"
    initial_guess: object = 1.0
    theta: object = "optimal"
    grading: object = "auto"
    source: object = None
    initial_condition: object = None

    def __post_init__(self):
        if self.mode not in ("error_equation", "forced"):
            raise ValueError(f"mode must be 'error_equation' or 'forced', got {self.mode!r}")
        tol = self.tolerance
        if not (isinstance(tol, numbers.Real) and math.isfinite(tol) and tol > 0.0):
            raise ValueError(f"tolerance must be a positive finite number, got {tol!r}")
        n = self.max_iter
        if not (isinstance(n, numbers.Integral) and not isinstance(n, bool) and n >= 1):
            raise ValueError(f"max_iter must be a positive integer, got {n!r}")

    @property
    def error_mode(self) -> bool:
        return self.mode == "error_equation"

    def optimal_theta(self):
        """The optimal weight of each interface."""
        raise NotImplementedError("only a driver config knows its interfaces")

    def resolve_theta(self, theta=None) -> np.ndarray:
        """The weight of each interface under ``theta`` (default ``self.theta``),
        checked to lie in (0, 1]."""
        theta = self.theta if theta is None else theta
        optimal = np.array(self.optimal_theta(), dtype=float)
        if isinstance(theta, str) and theta == "optimal":
            return optimal
        th = np.array(theta, dtype=float)
        if th.ndim == 0:
            th = np.full(optimal.shape, th)
        if th.shape != optimal.shape:
            raise ValueError(f"theta has {th.size} weights for {optimal.size} interfaces")
        if not np.all((th > 0.0) & (th <= 1.0)):  # NaN fails both
            raise ValueError(f"theta must lie in (0, 1], got {th}")
        return th

    def member_thetas(self, members=None) -> np.ndarray:
        """One row of interface weights per sweep member, shape (members, interfaces).

        Each member takes a form ``theta`` takes; ``None`` stands for the one
        member ``self.theta``.
        """
        if members is None:
            members = [self.theta]
        elif isinstance(members, str) or not len(members):
            raise ValueError(f"members must be a non-empty sequence, got {members!r}")
        return np.array([self.resolve_theta(m) for m in members])

    def time_mesh(self):
        """The configured (graded) time mesh."""
        r = default_grading(self.order) if self.grading == "auto" else float(self.grading)
        return build_graded_mesh(self.horizon, self.n_steps, r)

    def build_weights(self):
        """Caputo weights on ``time_mesh()``."""
        return caputo_weights(self.time_mesh(), self.order)

    def initial_traces(self, shape) -> np.ndarray:
        """The first trace iterate: the guess broadcast to, or checked against, ``shape``."""
        if np.isscalar(self.initial_guess):
            return np.full(shape, float(self.initial_guess))
        h = np.asarray(self.initial_guess, dtype=float)
        if h.shape != shape:
            raise ValueError(f"initial guess has shape {h.shape}, expected {shape}")
        return h.copy()


def iterate(cfg: IterationConfig, sweep, h0, thetas, t_start, keep_fields=False) -> list:
    """Apply ``sweep`` from ``h0`` until each member's interface error meets the tolerance.

    The members of a sweep march in lock-step: ``thetas`` holds one row of
    interface weights per member, and ``sweep(h, theta)`` maps the active
    members' traces, stacked along a leading member axis, and their rows of
    ``thetas`` to ``(h_new, change, fields)``, each with the same leading
    axis (``fields`` is a tuple of such arrays).  The error of a sweep is, per
    member and interface, the sup norm of ``h_new`` in error-equation mode and
    of ``change`` in forced mode; the traces of a member's interfaces are
    stacked along its first axis, one block per weight.  A member leaves the
    batch once its error meets the tolerance, or at ``max_iter``.

    A non-finite error raises ``ArithmeticError``: the iteration diverged.
    The raise comes at the first sweep where any member is non-finite, for
    every member.  In a marched sweep the batch's tridiagonal solves also
    carry a NaN across the zero couplings between members; a sweep that
    applies an assembled operator (DNWR in error-equation mode) keeps the
    members' values apart.

    Returns one ``RunResult`` per member, with the traces and, under
    ``keep_fields``, the fields of the member's last sweep.
    """
    thetas = np.asarray(thetas, dtype=float)
    n_ifc = thetas.shape[1]
    active = np.arange(len(thetas))
    h = np.repeat(h0[None], len(thetas), axis=0)
    errors = [[] for _ in thetas]
    results = [None] * len(thetas)
    for k in range(1, cfg.max_iter + 1):
        # an overflow shows as the non-finite error checked below, not as a numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            h_new, change, fields = sweep(h, thetas[active])
            err = np.abs((h_new if cfg.error_mode else change).reshape(len(active), n_ifc, -1))
            err = err.max(axis=2)
        if not np.all(np.isfinite(err)):
            raise ArithmeticError(f"the iteration diverged: sweep {k} has interface errors "
                                  f"{err.tolist()}")
        converged = err.max(axis=1) <= cfg.tolerance
        for j, i in enumerate(active):
            errors[i].append(err[j])
            if converged[j] or k == cfg.max_iter:
                report = IterationReport(errors=np.array(errors[i]), converged=bool(converged[j]),
                                         theta=thetas[i], wall_time=time.perf_counter() - t_start)
                # copies, so that a result does not hold the whole batch alive
                results[i] = RunResult(report=report, traces=h_new[j].copy(),
                                       fields=tuple(u[j].copy() for u in fields)
                                       if keep_fields else None)
        active, h = active[~converged], h_new[~converged]
        del fields  # so that the next sweep does not hold this one's fields while it runs
        if not len(active):
            break
    return results
