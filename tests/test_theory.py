import cmath
import math

import numpy as np
import pytest
from scipy.integrate import quad

from fracwr.theory import (
    BoundNotApplicableError,
    DnwrBoundParams,
    Nnwr2dBoundParams,
    NnwrBoundParams,
    dnwr_error_bound,
    exp_kernel_mass,
    exp_kernel_mass_bound,
    mwright,
    mwright_phase,
    nnwr2d_error_bound,
    nnwr_error_bound,
    talbot_invert,
)
from oracles import (
    cosech_power_mass,
    cosech_power_mass_bound,
    geometric_exp_mass,
    geometric_exp_mass_bound,
    invlap_exp,
    kernel_positivity_check,
    sinh_ratio_power_mass,
    sinh_ratio_power_mass_bound,
)


# ---------------------------------------------------------------------------
# phase function and M-Wright
# ---------------------------------------------------------------------------

def test_phase_value_at_midpoint():
    # (sin(pi/4)/sin(pi/2))^1 * sin(pi/4)/sin(pi/2) = 1/2
    assert mwright_phase(0.5, math.pi / 2) == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_phase_lower_bound(alpha):
    floor = (1 - alpha) * alpha ** (alpha / (1 - alpha))
    for phi in np.linspace(0.01, math.pi - 0.01, 120):
        assert mwright_phase(alpha, phi) >= floor - 1e-12


def test_phase_limit_at_zero():
    # continuity of the endpoint extension
    alpha = 0.37
    lim = mwright_phase(alpha, 0.0)
    assert mwright_phase(alpha, 1e-7) == pytest.approx(lim, rel=1e-5)
    assert lim == pytest.approx((1 - alpha) * alpha ** (alpha / (1 - alpha)), rel=1e-12)
    assert mwright_phase(alpha, math.pi) == math.inf


@pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 2.0, 4.0])
def test_mwright_half_closed_form(x):
    assert mwright(0.5, x) == pytest.approx(math.exp(-x * x / 4) / math.sqrt(math.pi), abs=1e-10)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
def test_mwright_normalization(alpha):
    val, _ = quad(lambda x: mwright(alpha, x), 0.0, np.inf, limit=300)
    assert val == pytest.approx(1.0, abs=1e-6)


def test_mwright_positive():
    # grid kept inside the representable range (the true values decay like
    # exp(-c x^(1/(1-a))) and underflow for large x at high order)
    for alpha in (0.2, 0.5, 0.8):
        for x in (0.05, 0.7, 3.0):
            assert mwright(alpha, x) > 0.0
    assert mwright(0.2, 8.0) > 0.0


def test_mwright_rejects():
    with pytest.raises(ValueError):
        mwright(0.5, 0.0)
    with pytest.raises(ValueError):
        mwright(1.2, 1.0)


# ---------------------------------------------------------------------------
# stretched-exponential kernel
# ---------------------------------------------------------------------------

def test_invlap_exp_half_closed_form():
    # classical pair: exp(-l sqrt(s)) <-> l/(2 sqrt(pi t^3)) exp(-l^2/(4t))
    for l, t in ((1.0, 1.0), (0.5, 0.3), (2.0, 1.7)):
        expected = l / (2 * math.sqrt(math.pi * t**3)) * math.exp(-(l**2) / (4 * t))
        assert invlap_exp(0.5, l, t) == pytest.approx(expected, rel=1e-10)
    assert invlap_exp(0.5, 1.0, 1.0) == pytest.approx(0.219695644733, rel=1e-9)


def test_invlap_exp_decays():
    assert invlap_exp(0.4, 1.0, 200.0) < invlap_exp(0.4, 1.0, 5.0)


def test_mass_bound_value():
    assert exp_kernel_mass_bound(0.5, 1.0, 1.0) == pytest.approx(math.exp(-0.25), rel=1e-14)
    assert exp_kernel_mass_bound(0.5, 0.0, 1.0) == 1.0


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("l", [0.5, 1.0])
@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_mass_agrees_with_quadrature_and_bound(alpha, l, t):
    direct, _ = quad(lambda tau: invlap_exp(alpha, l, tau), 0.0, t, limit=300)
    fast = exp_kernel_mass(alpha, l, t)
    assert fast == pytest.approx(direct, abs=1e-9)
    assert fast <= exp_kernel_mass_bound(alpha, l, t) * (1 + 1e-9)


# ---------------------------------------------------------------------------
# contour inversion oracle
# ---------------------------------------------------------------------------

def test_talbot_elementary_pairs():
    for t in (0.1, 0.5, 1.0, 2.0):
        assert talbot_invert(lambda s: 1 / s, t) == pytest.approx(1.0, abs=1e-9)
        assert talbot_invert(lambda s: 1 / s**2, t) == pytest.approx(t, abs=1e-8)


def test_talbot_branch_cut_pair():
    got = talbot_invert(lambda s: cmath.exp(-(s**0.5)), 1.0)
    assert got == pytest.approx(math.exp(-0.25) / (2 * math.sqrt(math.pi)), abs=1e-9)


def test_talbot_matches_mwright_kernel():
    for alpha, l, t in ((0.3, 1.0, 0.8), (0.5, 2.0, 1.3)):
        got = talbot_invert(lambda s: cmath.exp(-l * s**alpha), t)
        assert got == pytest.approx(invlap_exp(alpha, l, t), abs=1e-8)


def test_talbot_raises_on_nonfinite():
    with pytest.raises(ArithmeticError):
        talbot_invert(lambda s: complex(np.nan, 0.0), 1.0)


# ---------------------------------------------------------------------------
# ratio-kernel positivity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["phi", "psi"])
@pytest.mark.parametrize("alpha", [0.2, 0.4, 0.5])
@pytest.mark.parametrize("pair", [(0.5, 1.0), (1.0, 2.0)])
def test_ratio_kernels_nonnegative(kind, alpha, pair):
    report = kernel_positivity_check(kind, alpha, *pair, np.linspace(0.01, 1.0, 50))
    assert report.min_value >= -1e-8


def test_ratio_kernel_degenerate_numerator():
    report = kernel_positivity_check("phi", 0.4, 0.0, 1.0, np.linspace(0.01, 1.0, 20))
    assert np.abs(report.values).max() <= 1e-10


def test_ratio_kernel_rejects():
    with pytest.raises(ValueError):
        kernel_positivity_check("phi", 0.7, 0.5, 1.0, [0.5])
    with pytest.raises(ValueError):
        kernel_positivity_check("phi", 0.4, 1.0, 0.5, [0.5])


# ---------------------------------------------------------------------------
# compound-kernel masses vs closed-form bounds
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha", [0.3, 0.5])
@pytest.mark.parametrize("l", [0.5, 1.0])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_cosech_power_mass_bound(alpha, l, k):
    value = cosech_power_mass(alpha, l, k, 1.0)
    assert 0.0 < value <= cosech_power_mass_bound(alpha, l, k, 1.0) * (1 + 1e-6)


@pytest.mark.parametrize("alpha", [0.3, 0.5])
@pytest.mark.parametrize("pair", [(0.5, 1.0), (1.0, 2.0)])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_sinh_ratio_power_mass_bound(alpha, pair, k):
    l1, l2 = pair
    value = sinh_ratio_power_mass(alpha, l1, l2, k, 1.0)
    assert 0.0 < value <= sinh_ratio_power_mass_bound(alpha, l1, l2, k, 1.0) * (1 + 1e-6)


def test_sinh_ratio_mass_matches_contour_integral():
    alpha, l1, l2, k = 0.4, 0.5, 1.0, 2
    fhat = lambda s: (cmath.sinh((l2 - l1) * s**alpha) / cmath.sinh(l2 * s**alpha)) ** k
    ts = np.linspace(1e-4, 1.0, 400)
    vals = [talbot_invert(fhat, t) for t in ts]
    assert np.trapezoid(vals, ts) == pytest.approx(
        sinh_ratio_power_mass(alpha, l1, l2, k, 1.0), abs=1e-6
    )


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("pair", [(0.5, 1.0), (1.0, 2.0)])
def test_geometric_exp_mass_bound(alpha, pair):
    value = geometric_exp_mass(alpha, *pair, 1.0)
    assert 0.0 < value <= geometric_exp_mass_bound(alpha, *pair, 1.0) * (1 + 1e-6)


def test_geometric_exp_mass_matches_contour_integral():
    alpha, l1, l2 = 0.4, 0.5, 1.0
    fhat = lambda s: cmath.exp(-l1 * s**alpha) / (1.0 - cmath.exp(-l2 * s**alpha))
    ts = np.linspace(1e-4, 1.0, 2000)
    vals = [talbot_invert(fhat, t) for t in ts]
    assert np.trapezoid(vals, ts) == pytest.approx(
        geometric_exp_mass(alpha, l1, l2, 1.0), abs=1e-6
    )


# ---------------------------------------------------------------------------
# Dirichlet-Neumann estimates
# ---------------------------------------------------------------------------

def _params(nu):
    return DnwrBoundParams(nu=nu, a=1.5, b=0.5, kappa1=1.0, kappa2=0.25, horizon=1.0)


def test_dnwr_symbols():
    p = _params(0.25)
    assert (p.A, p.B) == (1.5, 1.0)
    assert p.theta == pytest.approx(1 / 3)
    assert p.gain == pytest.approx(2 / 3)
    assert p.mu1 == pytest.approx(0.4724703937, rel=1e-9)


def test_dnwr_bound_values():
    p = _params(0.25)
    assert dnwr_error_bound(p, 0) == 1.0
    # frozen: 2*gain*(A-B)/A * exp(-mu1) with gain = sqrt(kappa1/kappa2)*theta
    expected = (2 * (2 / 3) * (0.5 / 1.5)) * math.exp(-0.4724703937105774)
    assert dnwr_error_bound(p, 1) == pytest.approx(expected, rel=1e-12)


def test_dnwr_bound_swapped_orientation_even_sweeps():
    p = DnwrBoundParams(nu=0.25, a=0.5, b=1.5, kappa1=0.25, kappa2=1.0, horizon=1.0)
    assert p.A < p.B
    assert dnwr_error_bound(p, 1) == 1.0  # preceding even sweep is 0
    v2 = dnwr_error_bound(p, 2)
    assert dnwr_error_bound(p, 3) == v2
    front = 2 * math.sqrt(2) * p.gain / -math.expm1(-2 * p.mu1)
    assert v2 == pytest.approx(front**2 * math.exp(-p.mu1 * 2 ** (4 / 3)), rel=1e-12)


def test_dnwr_bound_equal_lengths_vanishes():
    p = DnwrBoundParams(nu=0.25, a=1.0, b=2.0, kappa1=1.0, kappa2=4.0, horizon=1.0)
    assert p.A == p.B
    assert dnwr_error_bound(p, 3) == 0.0


def test_dnwr_bound_decreasing_beyond_first():
    p = _params(0.25)
    vals = [dnwr_error_bound(p, k) for k in range(1, 12)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    pw = _params(0.75)
    wvals = [dnwr_error_bound(pw, k) for k in range(2, 10)]
    assert all(a >= b for a, b in zip(wvals, wvals[1:]))
    assert all(a > b for a, b in zip(wvals, wvals[1:]) if a > 1e-300)


def test_dnwr_bound_regime_guards():
    for nu in (0.0, 1.0):  # the order picks the estimate; these orders have none
        with pytest.raises(BoundNotApplicableError):
            dnwr_error_bound(_params(nu), 1)


def test_dnwr_wave_bound_duplicate_evaluation():
    # straight-line re-transcription of the wave estimate (two-person rule)
    p = _params(0.75)
    nu, T = 0.75, 1.0
    A, B = 1.5, 1.0
    gain = math.sqrt(1.0 / 0.25) / (1.0 + math.sqrt(1.0 / 0.25))
    c = math.floor(1 / (1 - nu))
    scale = (1 - nu) * nu ** (nu / (1 - nu))
    mu2 = scale * (min(A, B) / T**nu) ** (1 / (1 - nu))
    delta = scale * (2 * abs(A - B) / T**nu) ** (1 / (1 - nu))
    for k in (1, 2, 5):
        b1 = ((2 * max(A, B) / min(A, B) + k) ** c - k**c) ** (1 / (c * (1 - nu)))
        b2 = ((2 + k) ** c - k**c) ** (1 / (c * (1 - nu)))
        front = 2 * gain * (1 + math.exp(-delta))
        front /= (1 - math.exp(-mu2 * b1)) * (1 - math.exp(-mu2 * b2))
        expected = front**k * math.exp(-2 * mu2 * k ** (1 / (1 - nu)))
        assert dnwr_error_bound(p, k) == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# Neumann-Neumann estimates
# ---------------------------------------------------------------------------

def _nnwr_duplicate(nu, lengths, kappas, T, k):
    """Independent straight-line evaluation of the multi-subdomain estimate."""
    n = len(lengths)
    l = [lengths[i] / math.sqrt(kappas[i]) for i in range(n)]
    hmin = min(l) / 2
    lam = (1 - nu) * nu ** (nu / (1 - nu))
    mu = lam * (hmin / T**nu) ** (1 / (1 - nu))
    D = T**nu * math.gamma(2 - nu) / (2 * lam ** (1 - nu))

    def q(x):
        return lam * ((x - hmin) / T**nu) ** (1 / (1 - nu))

    def f(j):
        return 1 + D / l[j]

    cs = []
    for i in range(n - 1):  # interface between subdomains i and i+1 (0-based)
        r = math.sqrt(kappas[i] / kappas[i + 1])
        w = 2 * (r + 1 / r) * f(i) * f(i + 1) * (
            math.exp(-2 * q(l[i])) + math.exp(-2 * q(l[i + 1]))
        )
        if i <= n - 3:
            w += 2 * f(i + 1) * (
                math.sqrt(kappas[i + 2] / kappas[i + 1]) * f(i + 2)
                * (math.exp(-2 * q(l[i + 1] / 2)) + math.exp(-2 * q(l[i + 1] / 2 + l[i + 2])))
                + math.sqrt(kappas[i + 1] / kappas[i]) * f(i)
                * (math.exp(-2 * q(l[i + 1] / 2)) + math.exp(-2 * q(l[i + 1] / 2 + l[i])))
            )
        if i >= 1:
            w += 2 * f(i) * (
                math.sqrt(kappas[i - 1] / kappas[i]) * f(i - 1)
                * (math.exp(-2 * q(l[i] / 2)) + math.exp(-2 * q(l[i] / 2 + l[i - 1])))
                + math.sqrt(kappas[i] / kappas[i + 1]) * f(i + 1)
                * (math.exp(-2 * q(l[i] / 2)) + math.exp(-2 * q(l[i] / 2 + l[i + 1])))
            )
        if i <= n - 4:
            w += 4 * math.sqrt(kappas[i + 2] / kappas[i + 1]) * f(i + 1) * f(i + 2) * math.exp(
                -(q(l[i + 1]) + q(l[i + 2]))
            )
        if i >= 2:
            w += 4 * math.sqrt(kappas[i - 1] / kappas[i]) * f(i - 1) * f(i) * math.exp(
                -(q(l[i - 1]) + q(l[i]))
            )
        theta = 1 / (2 + math.sqrt(kappas[i] / kappas[i + 1]) + math.sqrt(kappas[i + 1] / kappas[i]))
        cs.append(theta * w)
    return max(cs) ** k * math.exp(-mu * (2 * k) ** (1 / (1 - nu)))


@pytest.mark.parametrize(
    "lengths, kappas",
    [
        ((1.0, 1.0), (1.0, 1.0)),
        ((4.0, 4.0, 4.0, 4.0), (1.0, 0.25, 0.25, 1.0)),
        ((3.5, 2.0, 4.5, 2.0, 4.0), (0.25, 1.0, 0.25, 4.0, 1.0)),
    ],
)
def test_nnwr_bound_duplicate_evaluation(lengths, kappas):
    p = NnwrBoundParams(nu=0.25, lengths=lengths, kappas=kappas, horizon=1.0)
    for k in (1, 2, 4):
        assert nnwr_error_bound(p, k) == pytest.approx(
            _nnwr_duplicate(0.25, lengths, kappas, 1.0, k), rel=1e-12
        )


def test_nnwr_bound_basics():
    p = NnwrBoundParams(nu=0.25, lengths=(4, 4, 4, 4), kappas=(1, 0.25, 0.25, 1), horizon=1.0)
    assert nnwr_error_bound(p, 0) == 1.0
    assert p.contraction > 0.0
    assert np.all(p.weight_sums() >= 0.0)
    assert np.all(p.thetas() > 0.0)
    vals = [nnwr_error_bound(p, k) for k in range(1, 8)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_nnwr_bound_sequence_computes_its_contraction_once(monkeypatch):
    sums, calls = NnwrBoundParams.weight_sums, []
    monkeypatch.setattr(NnwrBoundParams, "weight_sums",
                        lambda self: calls.append(self) or sums(self))
    p = NnwrBoundParams(nu=0.25, lengths=(4, 4, 4, 4), kappas=(1, 0.25, 0.25, 1), horizon=1.0)
    bounds = [nnwr_error_bound(p, k) for k in range(1, 13)]
    assert len(calls) == 1
    # the cached constant is the one a fresh evaluation gives
    c = float(np.max(p.thetas() * sums(p)))
    assert bounds == [c**k * math.exp(-p.mu * (2.0 * k) ** (1.0 / 0.75)) for k in range(1, 13)]


def test_nnwr_theta_values():
    p = NnwrBoundParams(nu=0.25, lengths=(1, 1), kappas=(1.0, 1.0), horizon=1.0)
    assert p.thetas()[0] == pytest.approx(0.25)
    p2 = NnwrBoundParams(nu=0.25, lengths=(1, 1), kappas=(1.0, 4.0), horizon=1.0)
    assert p2.thetas()[0] == pytest.approx(1 / 4.5)


# ---------------------------------------------------------------------------
# 2D estimate
# ---------------------------------------------------------------------------

def test_nnwr2d_duplicate_evaluation():
    nu, a, b, T = 0.25, 0.5, 1.5, 1.0
    p = Nnwr2dBoundParams(nu=nu, a=a, b=b, kappa=1.0, horizon=T)
    c = math.floor(1 / (1 - nu))
    P = (1 - nu) * (nu / T) ** (nu / (1 - nu))
    E = (2 * min(a, b)) ** (1 / (1 - nu))
    for k in (1, 2, 4):
        F = ((2 * max(a, b) / min(a, b) + k) ** c - k**c) ** (1 / (c * (1 - nu)))
        H = ((2 + k) ** c - k**c) ** (1 / (c * (1 - nu)))
        gap = P * (2 * abs(b - a)) ** (1 / (1 - nu))
        expected = ((1 + math.exp(-gap)) ** 2 / ((1 - math.exp(-P * E * F)) * (1 - math.exp(-P * E * H)))) ** k
        expected *= math.exp(-2 * P * E * k ** (1 / (1 - nu)))
        assert nnwr2d_error_bound(p, k) == pytest.approx(expected, rel=1e-12)


def test_nnwr2d_equal_lengths_constant():
    p = Nnwr2dBoundParams(nu=0.25, a=1.0, b=1.0, kappa=1.0, horizon=1.0)
    k = 1
    val = nnwr2d_error_bound(p, k)
    # |B - A| = 0 makes the numerator (1 + 1)^2 = 4
    den = (1 - math.exp(-p.rate_p * p.rate_e * ((2 + k) - k) ** (4 / 3))) ** 2
    assert val == pytest.approx(4.0 / den * math.exp(-2 * p.rate_p * p.rate_e), rel=1e-12)


def test_nnwr2d_wave_threshold_flag():
    p = Nnwr2dBoundParams(nu=0.75, a=0.5, b=1.5, kappa=1.0, horizon=1.0)
    # k * min(A, B) must exceed the threshold; k = 1 is below it here
    assert 1 * min(p.A, p.B) <= p.wave_threshold()
    with pytest.raises(BoundNotApplicableError):
        nnwr2d_error_bound(p, 1)
    big_k = int(p.wave_threshold() / min(p.A, p.B)) + 1
    assert nnwr2d_error_bound(p, big_k) > 0.0


def test_bound_k0_is_one():
    assert nnwr2d_error_bound(
        Nnwr2dBoundParams(nu=0.25, a=0.5, b=1.5, kappa=1.0, horizon=1.0), 0
    ) == 1.0
