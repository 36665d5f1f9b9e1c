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

Every driver's sweep is a relaxation of a part that is affine in the traces,
``x -> T x + c``, given as a sequence of phases (``AffineSweep``s) applied in
turn, and the loop decides, once before the first sweep, whether the phases
are marched in every sweep or are products with their assembled ``T`` in
every sweep.  A phase's ``T`` is block lower triangular in time, and its
blocks couple positions (interfaces or sine modes) at most ``reach`` apart.
On a uniform time mesh every Caputo row is a shift of the first (L1 and wave
alike; Lubich, Numer. Math. 1988), so ``T`` is block Toeplitz: one impulse
at the first level per group of positions ``2 reach + 1`` apart gives all of
it (``toeplitz_operator``).  On a graded mesh a driver may let an
error-equation run build ``T`` from an impulse at every level
(``transfer_operator``).  The operators are built only where the marches of
``max_iter`` sweeps, one per phase, exceed the build's cost in phase marches
(``_affine_part``).
"""

import math
import numbers
import time
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .fractional_time import build_graded_mesh, caputo_weights, default_grading

__all__ = [
    "AffineSweep",
    "IterationConfig",
    "IterationReport",
    "RunResult",
    "apply_operator",
    "iterate",
    "toeplitz_operator",
    "transfer_operator",
]

# Impulse columns marched as one batch when an operator is built: a wider
# batch raises the peak memory of a run and saves no time.
TRANSFER_CHUNK = 16


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
    """What a driver returns: the report, the last traces and, on request, the
    fields at the traces the last sweep started from."""

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


@dataclass(frozen=True)
class AffineSweep:
    """A phase of a driver's sweep that is affine in its input, ``x -> T x + c``.

    ``march(x, data)`` marches it for inputs ``x`` of shape (members,) +
    ``shape``, with the problem data or (``data=False``) without them, and
    returns ``y`` shaped like ``x``.  ``layout(x)`` views such an array as
    (members, positions, N); a position answers no input more than ``reach``
    positions away.  A phase without ``data`` is linear (``c`` = 0).  With
    ``graded`` an error-equation run on a graded mesh builds ``T`` too
    (``transfer_operator``).
    """

    march: object
    layout: object
    shape: tuple
    reach: int = 0
    data: bool = True
    graded: bool = False

    @property
    def extent(self) -> tuple:
        """(positions, N) of one member."""
        return self.layout(np.zeros((1,) + self.shape)).shape[1:]


def _columns(affine, levels):
    """The answers to a unit trace at each of ``levels``, in the offset-major
    blocks of ``toeplitz_operator`` with one column per level, (2 reach + 1,
    positions, N, len(levels)).  The impulse groups (every ``2 reach +
    1``-th position) march one after another, ``TRANSFER_CHUNK`` levels at
    a time as the members of one batch, so no column depends on the chunk.
    """
    positions, n = affine.extent
    width = 2 * affine.reach + 1
    blocks = np.zeros((width, positions, n, len(levels)))
    for group in range(min(positions, width)):
        for j in range(0, len(levels), TRANSFER_CHUNK):
            chunk = levels[j:j + TRANSFER_CHUNK]
            x = np.zeros((len(chunk),) + affine.shape)
            for member, level in zip(affine.layout(x), chunk):
                member[group::width, level] = 1.0
            y = affine.layout(affine.march(x, False))
            # each position answers the one source of the group within reach
            for q in range(positions):
                d = (group - q + affine.reach) % width
                if 0 <= q + d - affine.reach < positions:
                    blocks[d, q, :, j:j + len(chunk)] = y[:, q].T
    return blocks


def toeplitz_operator(affine, mesh) -> np.ndarray:
    """``T`` on a uniform ``mesh`` as offset-major blocks (2 reach + 1, positions, N, N).

    Block ``[d, q]`` maps the trace at position ``q + d - reach`` to position
    ``q``; it is the lower-triangular Toeplitz matrix of the answer to a
    unit trace at the first level (``_columns``).
    """
    if not mesh.is_uniform:
        raise ValueError("a Toeplitz operator needs a uniform time mesh")
    columns = _columns(affine, range(1))[..., 0]
    n = columns.shape[-1]
    lag = np.subtract.outer(np.arange(n), np.arange(n))
    return np.where(lag >= 0, columns[..., np.maximum(lag, 0)], 0.0)


def transfer_operator(affine) -> np.ndarray:
    """``T`` on any mesh, in the blocks of ``toeplitz_operator``: column j of
    a block answers a unit trace at level j (``_columns``)."""
    return _columns(affine, range(affine.extent[1]))


def apply_operator(blocks, c, x) -> np.ndarray:
    """``T x + c`` for one member's traces ``x`` (positions, N); ``c`` may be None.

    One batched product per offset: the blocks of offset d over the positions
    it reaches, each a matrix-vector product, added in the order of the
    offsets to a sum that starts at -0.0, which adds to any float exactly.
    """
    width, positions = blocks.shape[:2]
    reach = width // 2
    y = np.full_like(x, -0.0)
    for d in range(width):
        lo, hi = max(0, reach - d), min(positions, positions + reach - d)
        if lo < hi:
            y[lo:hi] += np.matmul(blocks[d, lo:hi],
                                  x[lo + d - reach:hi + d - reach, :, None])[..., 0]
    return y if c is None else y + c


def _affine_part(cfg, phases):
    """``part(x)``: the affine part of a sweep at the traces ``x``, its
    ``phases`` (sharing one shape and layout) marched in turn, or in turn the
    products with their ``T`` plus ``c`` (one more march, with the data and
    zero input, for each phase with data) where the phase marches of
    ``max_iter`` marched sweeps exceed the build's cost.  A phase costs
    ``min(positions, 2 reach + 1)`` impulse marches on a uniform mesh, plus
    one for ``c`` in forced mode if it has data, or ``ceil(N/4)`` for
    ``transfer_operator``.  The rule reads config values alone and each
    member's product is its own, so a member's bits do not depend on its
    companions.
    """
    mesh = cfg.time_mesh()
    cost, builds = 0, []
    for phase in phases:
        if mesh.is_uniform:
            cost += min(phase.extent[0], 2 * phase.reach + 1) + (phase.data and not cfg.error_mode)
            builds.append(partial(toeplitz_operator, phase, mesh))
        elif phase.graded and cfg.error_mode:
            cost += -(-cfg.n_steps // 4)
            builds.append(partial(transfer_operator, phase))
        else:
            cost = math.inf

    def marched(x):
        for phase in phases:
            x = phase.march(x, True)
        return x

    if cfg.max_iter * len(phases) <= cost:
        return marched
    operators = [(None if cfg.error_mode or not phase.data else phase.layout(
        phase.march(np.zeros((1,) + phase.shape), True))[0], build())
        for phase, build in zip(phases, builds)]
    layout = phases[0].layout

    def part(x):
        y = np.empty_like(x)
        for xm, ym in zip(layout(x), layout(y)):
            for c, blocks in operators:
                xm = apply_operator(blocks, c, xm)
            ym[...] = xm
        return y

    return part


def iterate(cfg: IterationConfig, sweep, h0, thetas, t_start, phases, fields=None) -> list:
    """Apply ``sweep`` from ``h0`` until each member's interface error meets the tolerance.

    The members of a sweep march in lock-step: ``thetas`` holds one row of
    interface weights per member, and ``sweep(h, theta, part)`` maps the
    active members' traces, stacked along a leading member axis, and their
    rows of ``thetas`` to ``(h_new, change)``, both with the same leading
    axis.  The sweep gets its affine part as ``part(x) -> y``: the
    ``phases`` (a sequence of ``AffineSweep``s) marched in turn in every
    sweep, or in every sweep their products with the operators assembled
    before the first (``_affine_part``).  The error of a sweep is, per member
    and interface, the sup norm of ``h_new`` in error-equation mode and of
    ``change`` in forced mode; the traces of a member's interfaces are
    stacked along its first axis, one block per weight.  A member leaves the
    batch once its error meets the tolerance, or at ``max_iter``.

    A non-finite error raises ``ArithmeticError``: the iteration diverged.
    The raise comes at the first sweep where any member is non-finite, for
    every member.

    Returns one ``RunResult`` per member, with the traces of the member's
    last sweep.  With ``fields`` the loop keeps the trace each member's last
    sweep started from, and after the last sweep one call ``fields(x)`` on
    those traces stacked, a tuple of arrays with the same leading axis,
    gives each member its ``RunResult.fields``; the report's ``wall_time``
    leaves that call out.
    """
    thetas = np.asarray(thetas, dtype=float)
    n_ifc = thetas.shape[1]
    active = np.arange(len(thetas))
    h = np.repeat(h0[None], len(thetas), axis=0)
    errors = [[] for _ in thetas]
    results, starts = [None] * len(thetas), [None] * len(thetas)
    part = _affine_part(cfg, phases)
    for k in range(1, cfg.max_iter + 1):
        # an overflow shows as the non-finite error checked below, not as a numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            h_new, change = sweep(h, thetas[active], part)
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
                # a copy, so that a result does not hold the whole batch alive
                results[i] = RunResult(report=report, traces=h_new[j].copy())
                starts[i] = h[j]
        active, h = active[~converged], h_new[~converged]
        if not len(active):
            break
    if fields is None:
        return results
    kept = fields(np.stack(starts))
    return [replace(r, fields=tuple(u[i].copy() for u in kept)) for i, r in enumerate(results)]
