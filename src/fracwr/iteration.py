"""The interface iteration shared by every waveform-relaxation driver.

Seen from the interface, DNWR and NNWR (1D and 2D) are the same relaxed
fixed-point iteration on the interface traces: only the sweep that maps the
current traces to the next ones differs.  This module holds what the drivers
share: the run configuration (time mesh, stopping rule, mode), the report,
and the loop that applies a sweep until the sup norm of the interface error
meets the tolerance.  In ``error_equation`` mode all problem data are zero,
so the trace iterate is itself the error; ``forced`` mode stops on the size
of the last update.
"""

import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from .fractional_time import build_graded_mesh, caputo_weights, default_grading

__all__ = ["IterationConfig", "IterationReport", "iterate"]


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


@dataclass(frozen=True, kw_only=True)
class IterationConfig:
    """Time mesh, stopping rule and data of one interface iteration."""

    order: float
    horizon: float
    n_steps: int
    tolerance: float = 1e-8
    max_iter: int = 50
    mode: str = "error_equation"
    initial_guess: object = 1.0
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

    def build_weights(self):
        """Caputo weights on the configured (graded) time mesh."""
        r = default_grading(self.order) if self.grading == "auto" else float(self.grading)
        return caputo_weights(build_graded_mesh(self.horizon, self.n_steps, r), self.order)

    def initial_traces(self, shape) -> np.ndarray:
        """The first trace iterate: the guess broadcast to, or checked against, ``shape``."""
        if np.isscalar(self.initial_guess):
            return np.full(shape, float(self.initial_guess))
        h = np.asarray(self.initial_guess, dtype=float)
        if h.shape != shape:
            raise ValueError(f"initial guess has shape {h.shape}, expected {shape}")
        return h.copy()


def iterate(cfg: IterationConfig, sweep, h0, theta, t_start):
    """Apply ``sweep`` from ``h0`` until the interface error meets the tolerance.

    ``sweep(h)`` returns ``(h_new, change, fields)``.  The error of a sweep
    is, per interface, the sup norm of ``h_new`` in error-equation mode and
    of ``change`` in forced mode; the traces of the interfaces are stacked
    along the first axis, one block per entry of ``theta``.  A non-finite
    error raises ``ArithmeticError``: the iteration diverged.  Returns the
    report, the last traces and the last sweep's fields.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    h, fields, errors, converged = h0, None, [], False
    for k in range(1, cfg.max_iter + 1):
        h_new, change, fields = sweep(h)
        err = np.abs((h_new if cfg.error_mode else change).reshape(len(theta), -1)).max(axis=1)
        if not np.all(np.isfinite(err)):
            raise ArithmeticError(f"the iteration diverged: sweep {k} has interface errors {err}")
        errors.append(err)
        h = h_new
        if err.max() <= cfg.tolerance:
            converged = True
            break
    report = IterationReport(errors=np.array(errors), converged=converged, theta=theta,
                             wall_time=time.perf_counter() - t_start)
    return report, h, fields
