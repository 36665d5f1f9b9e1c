"""Closed-form convergence estimates and the oracles that check their kernels.

This module evaluates the superlinear error envelopes of the
Dirichlet-Neumann and Neumann-Neumann iterations in 1D and 2D, with the
analytic objects ``fracwr --seed-check`` tests against: the M-Wright
function and its phase function, the window mass of the inverse transform of
exp(-l*s^a) with its closed-form bound, and a fixed-contour numerical
Bromwich inversion.

Conventions: ``nu`` always denotes HALF the time-derivative order (the
equation order is 2*nu), matching the scaled subdomain lengths
A = a/sqrt(kappa_1), B = b/sqrt(kappa_2) in which all estimates are stated.
"""

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BoundNotApplicableError",
    "optimal_theta_dnwr",
    "optimal_theta_nnwr",
    "mwright_phase",
    "mwright",
    "exp_kernel_mass",
    "exp_kernel_mass_bound",
    "talbot_invert",
    "DnwrBoundParams",
    "dnwr_error_bound",
    "NnwrBoundParams",
    "nnwr_error_bound",
    "Nnwr2dBoundParams",
    "nnwr2d_error_bound",
]


class BoundNotApplicableError(ValueError):
    """Raised when a convergence estimate is queried outside its validity range."""


def optimal_theta_dnwr(kappa1: float, kappa2: float) -> float:
    """Relaxation weight 1 / (1 + sqrt(kappa1/kappa2)).

    Gives two-sweep convergence for equal scaled lengths and the superlinear
    estimates otherwise.  The convention with the roles of the coefficients
    swapped, sqrt(kappa1)/(sqrt(kappa1)+sqrt(kappa2)), equals
    ``optimal_theta_dnwr(kappa2, kappa1)``.
    """
    if not (kappa1 > 0.0 and kappa2 > 0.0):
        raise ValueError(f"diffusion coefficients must be positive, got {kappa1}, {kappa2}")
    return 1.0 / (1.0 + math.sqrt(kappa1 / kappa2))


def optimal_theta_nnwr(kappa_left: float, kappa_right: float) -> float:
    """Interface weight 1 / (2 + sqrt(ki/kj) + sqrt(kj/ki)); 1/4 for equal kappa."""
    if not (kappa_left > 0.0 and kappa_right > 0.0):
        raise ValueError("diffusion coefficients must be positive")
    r = math.sqrt(kappa_left / kappa_right)
    return 1.0 / (2.0 + r + 1.0 / r)


# ---------------------------------------------------------------------------
# The rates and the shifted root every envelope is written in
# ---------------------------------------------------------------------------

def _rate(alpha: float, t: float = 1.0) -> float:
    """Kernel rate (1-a) * (a/t)^(a/(1-a)); at t = 1 it is (1-a) * a^(a/(1-a))."""
    return (1.0 - alpha) * (alpha / t) ** (alpha / (1.0 - alpha))


def _window_rate(alpha: float, t: float, length: float) -> float:
    """(1-a) * (a/t)^(a/(1-a)) * length^(1/(1-a)): the exponent of a window-mass bound."""
    return _rate(alpha, t) * length ** (1.0 / (1.0 - alpha))


def _scaled_rate(alpha: float, length: float, horizon: float) -> float:
    """(1-a) * a^(a/(1-a)) * (length / T^a)^(1/(1-a)): a rate in scaled length."""
    # in Python floats, where an overflow raises (numpy scalars would warn and give inf)
    return _rate(alpha) * (float(length) / horizon**alpha) ** (1.0 / (1.0 - alpha))


def _shifted_root(x: float, k: int, alpha: float) -> float:
    """((x + k)^c - k^c)^(1/(c(1-a))) with c = floor(1/(1-a))."""
    c = math.floor(1.0 / (1.0 - alpha))
    return ((x + k) ** c - float(k) ** c) ** (1.0 / (c * (1.0 - alpha)))


def _envelope(bound):
    """The envelope ``bound(params, k)`` of sweeps k >= 1, extended by 1 at k = 0.

    It raises ``BoundNotApplicableError`` where the estimate leaves double
    precision (near order 2).
    """
    @functools.wraps(bound)
    def checked(params, k):
        if k < 0:
            raise ValueError(f"iteration index must be >= 0, got {k}")
        try:
            value = 1.0 if k == 0 else bound(params, k)
            if math.isfinite(value):
                return value
        except OverflowError:
            pass
        raise BoundNotApplicableError(f"the estimate at k={k} overflows double precision")
    return checked


# ---------------------------------------------------------------------------
# M-Wright function via its real integral representation
# ---------------------------------------------------------------------------

def _phase_log(alpha: float, phi: float) -> float:
    """log of the phase function (sin(a*phi)/sin(phi))^(a/(1-a)) * sin((1-a)phi)/sin(phi)."""
    sp = math.sin(phi)
    return (alpha / (1.0 - alpha)) * (math.log(math.sin(alpha * phi)) - math.log(sp)) + (
        math.log(math.sin((1.0 - alpha) * phi)) - math.log(sp)
    )


def mwright_phase(alpha: float, phi: float) -> float:
    """Phase function of the M-Wright integral representation.

    Continuous extension at the endpoints: the finite limit
    (1-a) * a^(a/(1-a)) at phi = 0 and +inf at phi = pi.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if phi < 0.0 or phi > math.pi:
        raise ValueError(f"phi must lie in [0, pi], got {phi}")
    if phi == 0.0:
        return _rate(alpha)
    if phi == math.pi:
        return math.inf
    lu = _phase_log(alpha, phi)
    return math.exp(lu) if lu < 700.0 else math.inf


def _phase_integral(alpha: float, x_scaled: float, with_u: bool) -> float:
    """Integral over (0, pi) of [u(phi)] * exp(-u(phi) * x_scaled)."""
    # imported here, not at the top: it loads scipy.optimize, .special and .sparse (~0.4 s)
    from scipy.integrate import quad

    def integrand(phi):
        lu = _phase_log(alpha, phi)
        if lu > 300.0:
            return 0.0
        u = math.exp(lu)
        arg = u * x_scaled
        if arg - (lu if with_u else 0.0) > 745.0:
            return 0.0
        return math.exp(lu - arg) if with_u else math.exp(-arg)

    val, _ = quad(integrand, 0.0, math.pi, epsabs=1e-14, epsrel=1e-12, limit=200)
    return val


def mwright(alpha: float, x: float) -> float:
    """M-Wright function M_a(x) for a in (0, 1), x > 0, by adaptive quadrature."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if not x > 0.0:
        raise ValueError(f"the integral representation needs x > 0, got {x}")
    xs = x ** (1.0 / (1.0 - alpha))
    pref = x ** (alpha / (1.0 - alpha)) / (math.pi * (1.0 - alpha))
    return pref * _phase_integral(alpha, xs, with_u=True)


def exp_kernel_mass(alpha: float, l: float, t: float) -> float:
    """Exact integral over (0, t) of the inverse transform of exp(-l * s^a).

    Equals (1/pi) * int_0^pi exp(-u(phi) * (l * t^-a)^(1/(1-a))) dphi, which is
    how the closed-form mass bound is derived; used as quadrature oracle.
    """
    if not (l > 0.0 and t > 0.0):
        raise ValueError(f"need l > 0 and t > 0, got l={l}, t={t}")
    xs = (l * t ** (-alpha)) ** (1.0 / (1.0 - alpha))
    return _phase_integral(alpha, xs, with_u=False) / math.pi


def exp_kernel_mass_bound(alpha: float, l: float, t: float) -> float:
    """Closed-form bound exp(-(1-a) * (a/t)^(a/(1-a)) * l^(1/(1-a)))."""
    if not (l >= 0.0 and t > 0.0):
        raise ValueError(f"need l >= 0 and t > 0, got l={l}, t={t}")
    if l == 0.0:
        return 1.0
    return math.exp(-_window_rate(alpha, t, l))


# ---------------------------------------------------------------------------
# Fixed-Talbot numerical Bromwich inversion (an oracle of the self-check)
# ---------------------------------------------------------------------------

_TALBOT_NODES = 32  # M, the nodes of the fixed-Talbot contour


def talbot_invert(transform, t: float) -> float:
    """Evaluate the Bromwich integral of ``transform`` at time t > 0.

    Fixed-Talbot contour (Abate & Valko): M = 32 nodes on the deformed contour
    s_k = (r/t) * theta_k * (cot(theta_k) + i) with r = 2M/5.  Accurate to
    roughly 1e-8 .. 1e-12 for the smooth, branch-cut kernels used here; fails
    loudly on non-finite evaluations.
    """
    if not t > 0.0:
        raise ValueError(f"need t > 0, got {t}")
    m = _TALBOT_NODES
    r = 0.4 * m
    total = 0.0 + 0.0j
    s0 = r / t
    total += 0.5 * cmath.exp(t * s0) * complex(transform(complex(s0)))
    for kk in range(1, m):
        theta = kk * math.pi / m
        cot = math.cos(theta) / math.sin(theta)
        s = (r / t) * theta * complex(cot, 1.0)
        gamma = cmath.exp(t * s) * complex(1.0, theta * (1.0 + cot * cot) - cot)
        total += gamma * complex(transform(s))
    value = (0.4 / t) * total.real
    if not math.isfinite(value):
        raise ArithmeticError("contour inversion produced a non-finite value")
    return value


# ---------------------------------------------------------------------------
# Dirichlet-Neumann convergence envelopes (two subdomains)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DnwrBoundParams:
    """Symbols of the two-subdomain estimates.

    ``nu`` is half the equation order; a, b are the subdomain widths with
    diffusion coefficients kappa1, kappa2, and T the time window.
    """

    nu: float
    a: float
    b: float
    kappa1: float
    kappa2: float
    horizon: float

    @property
    def A(self) -> float:
        return self.a / math.sqrt(self.kappa1)

    @property
    def B(self) -> float:
        return self.b / math.sqrt(self.kappa2)

    @property
    def theta(self) -> float:
        """Relaxation weight cancelling the instantaneous interface response."""
        return optimal_theta_dnwr(self.kappa1, self.kappa2)

    @property
    def gain(self) -> float:
        """Per-sweep kernel coefficient sqrt(kappa1/kappa2) * theta.

        At the optimal weight the error recurrence reads
        w^(k) = -gain * f * w^(k-1): the relaxation weight always enters the
        envelope multiplied by sqrt(kappa1/kappa2).  Using theta alone in the
        constants understates the iteration by that ratio per sweep and is
        numerically violated by the exact dynamics for small orders.
        """
        return math.sqrt(self.kappa1 / self.kappa2) * self.theta

    @property
    def mu1(self) -> float:
        """Superlinear rate constant of both estimates."""
        return _scaled_rate(self.nu, min(self.A, self.B), self.horizon)

    def delta(self) -> float:
        return _scaled_rate(self.nu, 2.0 * abs(self.A - self.B), self.horizon)


@_envelope
def dnwr_error_bound(params: DnwrBoundParams, k: int) -> float:
    """Envelope for ||error at sweep k|| / ||initial error|| at the optimal weight.

    The order picks the estimate: the sub-diffusion one for 2*nu <= 1 (for
    unequal scaled lengths the shrinking side uses the one-step estimate, the
    growing side the even-sweep estimate, extended to odd k by the preceding
    even value), the diffusion-wave one for 1 < 2*nu < 2.
    """
    nu, gain = params.nu, params.gain
    if not 0.0 < nu < 1.0:
        raise BoundNotApplicableError(f"estimate needs 0 < nu < 1, got {nu}")
    A, B, mu, p = params.A, params.B, params.mu1, 1.0 / (1.0 - nu)
    if nu <= 0.5:
        if A == B:
            return 0.0
        if A > B:
            return (2.0 * gain * (A - B) / A) ** k * math.exp(-mu * k**p)
        m = 2 * (k // 2)
        if m == 0:
            return 1.0
        front = 2.0 * math.sqrt(2.0) * gain / -math.expm1(-2.0 * mu)
        return front**m * math.exp(-mu * m**p)
    den1 = -math.expm1(-mu * _shifted_root(2.0 * max(A, B) / min(A, B), k, nu))
    den2 = -math.expm1(-mu * _shifted_root(2.0, k, nu))
    front = 2.0 * gain * (1.0 + math.exp(-params.delta())) / (den1 * den2)
    return front**k * math.exp(-2.0 * mu * k**p)


# ---------------------------------------------------------------------------
# Neumann-Neumann convergence envelope (N subdomains, 1D)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NnwrBoundParams:
    """Symbols of the multi-subdomain estimate.

    ``lengths`` and ``kappas`` are per subdomain (left to right); all length
    symbols inside the weight expressions are the scaled values
    l_i = h_i / sqrt(kappa_i), and the shift length is h_min = min(l_i) / 2.
    """

    nu: float
    lengths: tuple
    kappas: tuple
    horizon: float

    def __post_init__(self):
        object.__setattr__(self, "lengths", tuple(float(h) for h in self.lengths))
        object.__setattr__(self, "kappas", tuple(float(x) for x in self.kappas))
        if len(self.lengths) != len(self.kappas) or len(self.lengths) < 2:
            raise ValueError("need one (length, kappa) pair per subdomain, at least two")

    @property
    def scaled(self) -> np.ndarray:
        return np.array(self.lengths) / np.sqrt(np.array(self.kappas))

    @property
    def h_min(self) -> float:
        return float(np.min(self.scaled)) / 2.0

    @property
    def rate(self) -> float:
        """Unscaled kernel rate (1-nu) * nu^(nu/(1-nu)) of the weight exponents.

        The shifted-weight masses are bounded with this rate and the damping
        length below; folding the extra (h_min/T^nu)^(1/(1-nu)) factor of
        ``mu`` into them (a tempting shorthand) understates the weights
        whenever h_min exceeds T^nu and is numerically violated by the exact
        iteration dynamics.  ``mu`` itself belongs only to the final
        window-escape factor exp(-mu (2k)^(1/(1-nu))).
        """
        return _rate(self.nu)

    @property
    def mu(self) -> float:
        return _scaled_rate(self.nu, self.h_min, self.horizon)

    @property
    def damping(self) -> float:
        """Length-scale prefactor T^nu * Gamma(2-nu) / (2 * rate^(1-nu))."""
        return self.horizon**self.nu * math.gamma(2.0 - self.nu) / (
            2.0 * self.rate ** (1.0 - self.nu)
        )

    def thetas(self) -> np.ndarray:
        ks = self.kappas
        return np.array([optimal_theta_nnwr(a, b) for a, b in zip(ks, ks[1:])])

    def _q(self, x: float) -> float:
        base = x - self.h_min
        if base < -1e-12:
            raise BoundNotApplicableError(
                f"weight exponent has negative base {base}; geometry outside estimate range"
            )
        return _scaled_rate(self.nu, max(base, 0.0), self.horizon)

    def weight_sums(self) -> np.ndarray:
        """c_i = sum of the interface-i weight bounds W_{i,i}, W_{i,i+-1}, W_{i,i+-2}."""
        l = self.scaled
        ks = self.kappas
        n = len(l)  # subdomains; interfaces are 1..n-1 (1-based)
        dmp = self.damping
        q = [self._q(v) for v in l]
        qh = [self._q(v / 2.0) for v in l]

        def qhk(jj, kk):
            return self._q(l[jj] / 2.0 + l[kk])

        def fac(jj):
            return 1.0 + dmp / l[jj]

        out = np.zeros(n - 1)
        for i1 in range(1, n):  # 1-based interface index
            i = i1 - 1  # left subdomain, 0-based
            r = math.sqrt(ks[i] / ks[i + 1])
            w = 2.0 * (r + 1.0 / r) * fac(i) * fac(i + 1) * (
                math.exp(-2.0 * q[i]) + math.exp(-2.0 * q[i + 1])
            )
            if i1 <= n - 2:  # right neighbor trace, W_{i,i+1}
                w += 2.0 * fac(i + 1) * (
                    math.sqrt(ks[i + 2] / ks[i + 1]) * fac(i + 2) * (
                        math.exp(-2.0 * qh[i + 1]) + math.exp(-2.0 * qhk(i + 1, i + 2))
                    )
                    + math.sqrt(ks[i + 1] / ks[i]) * fac(i) * (
                        math.exp(-2.0 * qh[i + 1]) + math.exp(-2.0 * qhk(i + 1, i))
                    )
                )
            if i1 >= 2:  # left neighbor trace, W_{i,i-1}
                w += 2.0 * fac(i) * (
                    math.sqrt(ks[i - 1] / ks[i]) * fac(i - 1) * (
                        math.exp(-2.0 * qh[i]) + math.exp(-2.0 * qhk(i, i - 1))
                    )
                    + math.sqrt(ks[i] / ks[i + 1]) * fac(i + 1) * (
                        math.exp(-2.0 * qh[i]) + math.exp(-2.0 * qhk(i, i + 1))
                    )
                )
            if i1 <= n - 3:  # W_{i,i+2}
                w += 4.0 * math.sqrt(ks[i + 2] / ks[i + 1]) * fac(i + 1) * fac(i + 2) * (
                    math.exp(-(q[i + 1] + q[i + 2]))
                )
            if i1 >= 3:  # W_{i,i-2}
                w += 4.0 * math.sqrt(ks[i - 1] / ks[i]) * fac(i - 1) * fac(i) * (
                    math.exp(-(q[i - 1] + q[i]))
                )
            out[i1 - 1] = w
        return out

    @functools.cached_property
    def contraction(self) -> float:
        """c = max over interfaces of theta_i * c_i."""
        return float(np.max(self.thetas() * self.weight_sums()))


@_envelope
def nnwr_error_bound(params: NnwrBoundParams, k: int) -> float:
    """c^k * exp(-mu * (2k)^(1/(1-nu))) at the optimal per-interface weights."""
    nu = params.nu
    if not 0.0 < nu < 1.0:
        raise BoundNotApplicableError(f"estimate needs 0 < nu < 1, got {nu}")
    return params.contraction**k * math.exp(
        -params.mu * (2.0 * k) ** (1.0 / (1.0 - nu))
    )


# ---------------------------------------------------------------------------
# Neumann-Neumann convergence envelope (two subdomains, 2D strip)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Nnwr2dBoundParams:
    """Symbols of the two-subdomain strip estimate with a shared kappa."""

    nu: float
    a: float
    b: float
    kappa: float
    horizon: float

    @property
    def A(self) -> float:
        return self.a / math.sqrt(self.kappa)

    @property
    def B(self) -> float:
        return self.b / math.sqrt(self.kappa)

    @property
    def rate_p(self) -> float:
        return _rate(self.nu, self.horizon)

    @property
    def rate_e(self) -> float:
        return (2.0 * min(self.A, self.B)) ** (1.0 / (1.0 - self.nu))

    def wave_threshold(self) -> float:
        """Smallest k the wave-case estimate covers: k * min(A,B) must exceed this."""
        nu, t = self.nu, self.horizon
        return nu ** (1.0 - nu) * t**nu / ((1.0 - nu) ** (1.0 - nu) * nu**nu)


@_envelope
def nnwr2d_error_bound(params: Nnwr2dBoundParams, k: int) -> float:
    nu = params.nu
    if not 0.0 < nu < 1.0:
        raise BoundNotApplicableError(f"estimate needs 0 < nu < 1, got {nu}")
    if nu > 0.5 and k * min(params.A, params.B) <= params.wave_threshold():
        raise BoundNotApplicableError(
            f"wave-case estimate starts beyond k={k} for this geometry"
        )
    big, small = max(params.A, params.B), min(params.A, params.B)
    f = _shifted_root(2.0 * big / small, k, nu)
    h = _shifted_root(2.0, k, nu)
    pe = params.rate_p * params.rate_e
    gap = _window_rate(nu, params.horizon, 2.0 * abs(params.B - params.A))
    num = (1.0 + math.exp(-gap)) ** 2
    den = (-math.expm1(-pe * f)) * (-math.expm1(-pe * h))
    return (num / den) ** k * math.exp(-2.0 * pe * k ** (1.0 / (1.0 - nu)))
