"""The kernel lemmas behind the convergence envelopes, as test oracles.

The inverse transform of exp(-l*s^a), the numerical positivity check of the
sinh ('phi') and cosh ('psi') ratio kernels, and the L1 masses of powers of
cosech and of sinh ratios and of a geometric sum of exponentials, each as a
series of ``fracwr.theory.exp_kernel_mass`` terms, beside the closed-form
bounds the envelopes are built from.  Only the tests call them; the package
keeps the envelopes and the oracles of ``fracwr --seed-check``.

Conventions as in ``fracwr.theory``: ``alpha`` is half the equation order.
"""

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from fracwr.theory import (
    _rate,
    _scaled_rate,
    _shifted_root,
    _window_rate,
    exp_kernel_mass,
    mwright,
    talbot_invert,
)


def invlap_exp(alpha: float, l: float, t: float) -> float:
    """Inverse Laplace transform of exp(-l * s^a): l*a*t^(-a-1) * M_a(l*t^-a)."""
    if not (l > 0.0 and t > 0.0):
        raise ValueError(f"need l > 0 and t > 0, got l={l}, t={t}")
    return l * alpha * t ** (-(alpha + 1.0)) * mwright(alpha, l * t ** (-alpha))


def _ratio_transform(kind: str, alpha: float, l1: float, l2: float):
    """Stable sinh/cosh ratio transforms written with decaying exponentials.

    For alpha <= 1/2 the principal branch keeps Re(s^alpha) > 0 on the whole
    cut plane, so every exp(-2*l*s^alpha) below decays and no overflow occurs
    even far out on the contour.
    """
    if kind == "phi":

        def fhat(s):
            w = s**alpha
            return cmath.exp((l1 - l2) * w) * (1.0 - cmath.exp(-2.0 * l1 * w)) / (
                1.0 - cmath.exp(-2.0 * l2 * w)
            )

    elif kind == "psi":

        def fhat(s):
            w = s**alpha
            return cmath.exp((l1 - l2) * w) * (1.0 + cmath.exp(-2.0 * l1 * w)) / (
                1.0 + cmath.exp(-2.0 * l2 * w)
            )

    else:
        raise ValueError(f"kind must be 'phi' or 'psi', got {kind!r}")
    return fhat


@dataclass(frozen=True)
class PositivityReport:
    kind: str
    alpha: float
    l1: float
    l2: float
    times: np.ndarray
    values: np.ndarray
    min_value: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "min_value", float(np.min(self.values)))


def kernel_positivity_check(kind, alpha, l1, l2, t_grid) -> PositivityReport:
    """Numerically invert a sinh ('phi') or cosh ('psi') ratio on a time grid.

    The inverted kernels are nonnegative for alpha <= 1/2; the report's
    ``min_value`` quantifies how well the numerical inversion confirms it.
    """
    if not 0.0 <= l1 < l2:
        raise ValueError(f"need 0 <= l1 < l2, got l1={l1}, l2={l2}")
    if not 0.0 < alpha <= 0.5:
        raise ValueError(f"positivity range is alpha in (0, 1/2], got {alpha}")
    fhat = _ratio_transform(kind, alpha, l1, l2)
    times = np.asarray(t_grid, dtype=float)
    values = np.array([talbot_invert(fhat, t) for t in times])
    return PositivityReport(kind, alpha, l1, l2, times, values)


# ---------------------------------------------------------------------------
# Series masses of compound kernels and their closed-form bounds
# ---------------------------------------------------------------------------

_SERIES_TOL = 1e-18
_SERIES_MAX = 2000


def cosech_power_mass(alpha: float, l: float, k: int, t: float) -> float:
    """Integral over (0, t) of the inverse transform of cosech^k(l * s^a)."""
    total = 0.0
    for m in range(_SERIES_MAX):
        term = math.comb(m + k - 1, m) * exp_kernel_mass(alpha, (2 * m + k) * l, t)
        total += term
        if term <= _SERIES_TOL * max(total, 1e-300):
            break
    return 2.0**k * total


def cosech_power_mass_bound(alpha: float, l: float, k: int, t: float) -> float:
    """(2 / (1 - e^{-A1*B1}))^k * e^{-A1 * k^{1/(1-a)}} with the standard A1, B1."""
    a1 = _window_rate(alpha, t, l)
    b1 = _shifted_root(2.0, k, alpha)
    return (2.0 / -math.expm1(-a1 * b1)) ** k * math.exp(-a1 * k ** (1.0 / (1.0 - alpha)))


def sinh_ratio_power_mass(alpha: float, l1: float, l2: float, k: int, t: float) -> float:
    """Integral over (0, t) of the inverse of sinh^k((l2-l1)s^a) / sinh^k(l2*s^a).

    The kernel is nonnegative for alpha <= 1/2, so this is also its L1 mass.
    """
    if not 0.0 < l1 < l2:
        raise ValueError(f"need 0 < l1 < l2, got l1={l1}, l2={l2}")
    total = 0.0
    for j in range(k + 1):
        sign = -1.0 if j % 2 else 1.0
        outer = sign * math.comb(k, j)
        inner = 0.0
        for m in range(_SERIES_MAX):
            lam = 2.0 * m * l2 + k * l1 + 2.0 * j * (l2 - l1)
            term = math.comb(m + k - 1, m) * exp_kernel_mass(alpha, lam, t)
            inner += term
            if term <= _SERIES_TOL * max(inner, 1e-300):
                break
        total += outer * inner
    return total


def sinh_ratio_power_mass_bound(alpha, l1, l2, k, t) -> float:
    """((1 + e^{-A2}) / (1 - e^{-B2*C2}))^k * e^{-B2 * k^{1/(1-a)}}."""
    b2 = _window_rate(alpha, t, l1)
    a2 = _window_rate(alpha, t, 2.0 * l2 - 2.0 * l1)
    c2 = _shifted_root(2.0 * l2 / l1, k, alpha)
    return ((1.0 + math.exp(-a2)) / -math.expm1(-b2 * c2)) ** k * math.exp(
        -b2 * k ** (1.0 / (1.0 - alpha))
    )


def geometric_exp_mass(alpha: float, l1: float, l2: float, t: float) -> float:
    """Integral over (0, t) of the inverse of exp(-l1*s^a) / (1 - exp(-l2*s^a))."""
    total = 0.0
    for n in range(_SERIES_MAX):
        term = exp_kernel_mass(alpha, l1 + n * l2, t)
        total += term
        if term <= _SERIES_TOL * max(total, 1e-300):
            break
    return total


def geometric_exp_mass_bound(alpha: float, l1: float, l2: float, t: float) -> float:
    """[1 + t^a * Gamma(2-a) / (l2 * Lam^{1-a})] * exp(-Lam * (l1/t^a)^{1/(1-a)})."""
    front = 1.0 + t**alpha * math.gamma(2.0 - alpha) / (l2 * _rate(alpha) ** (1.0 - alpha))
    return front * math.exp(-_scaled_rate(alpha, l1, t))
