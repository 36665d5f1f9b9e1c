import numpy as np
import pytest

import fracwr.iteration as iteration
from fracwr.dnwr import DnwrConfig, optimal_theta_dnwr, run_dnwr
from fracwr.fractional_time import build_graded_mesh, caputo_weights, default_grading
from fracwr.geometry import build_partition, interface_flux_series
from fracwr.iteration import transfer_operator
from fracwr.nnwr import NnwrConfig, _affine_1d
from fracwr.solver import solve_monolithic
from fracwr.theory import DnwrBoundParams
from marching import march_alone, transfer_matrix


def test_optimal_theta_values():
    assert optimal_theta_dnwr(1.0, 0.25) == pytest.approx(1 / 3)
    assert optimal_theta_dnwr(1.0, 1.0) == pytest.approx(0.5)
    assert optimal_theta_dnwr(0.25, 1.0) == pytest.approx(2 / 3)
    # the swapped convention is the same formula with arguments exchanged
    assert optimal_theta_dnwr(0.25, 1.0) == pytest.approx(1 - optimal_theta_dnwr(1.0, 0.25))
    with pytest.raises(ValueError):
        optimal_theta_dnwr(0.0, 1.0)


def _config(**overrides):
    base = dict(
        partition=build_partition((0, 2), [1.0], 1.0, 0.05),
        order=0.5,
        horizon=1.0,
        n_steps=24,
        theta=0.5,
        tolerance=1e-10,
        max_iter=20,
        mode="error_equation",
    )
    base.update(overrides)
    return DnwrConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        _config(partition=build_partition((0, 3), [1.0, 2.0], 1.0, 0.05))
    with pytest.raises(ValueError):
        _config(theta=1.5)
    with pytest.raises(ValueError):
        _config(mode="relaxed")
    with pytest.raises(ValueError):
        _config(tolerance=0.0)


def test_update_identity():
    # the driver's first iterate equals the hand-assembled half steps exactly
    cfg = _config(theta=0.37, max_iter=1, tolerance=1e-30)
    res = run_dnwr(cfg)
    weights = cfg.build_weights()
    sub1, sub2 = cfg.partition.subdomains
    h0 = np.ones(cfg.n_steps)
    u1 = march_alone(sub1, weights, None, h0)
    flux = interface_flux_series(u1[1:], "right", sub1)
    u2 = march_alone(sub2, weights, -flux, None, flux=True)
    expected = 0.37 * u2[1:, 0] + (1 - 0.37) * h0
    np.testing.assert_array_equal(res.traces, expected)


@pytest.mark.parametrize("order", [0.5, 1.5])
def test_iterates_past_the_switch_match_marched_half_steps(order, monkeypatch):
    # the driver applies the assembled matrix from the first sweep, on the
    # graded mesh (order 0.5) because max_iter 10 exceeds ceil(N/4) = 4 and
    # on the uniform one (order 1.5) because it exceeds one impulse march;
    # its iterates must still be those of marching every half step by hand
    part = build_partition((0, 2), [1.2], [1.0, 0.3], [0.1, 0.04])
    cfg = _config(partition=part, order=order, n_steps=16, tolerance=1e-300, max_iter=10)
    builds = []
    for name in ("toeplitz_operator", "transfer_operator"):
        monkeypatch.setattr(iteration, name, lambda *a, name=name, build=getattr(iteration, name):
                            builds.append(name) or build(*a))
    members = [0.2, "optimal", 0.7]
    results = run_dnwr(cfg, members=members)
    # all 10 sweeps use the matrix
    assert builds == ["transfer_operator" if order < 1 else "toeplitz_operator"]
    assert cfg.max_iter > 4
    weights = cfg.build_weights()
    sub1, sub2 = part.subdomains
    for member, res in zip(members, results):
        theta = cfg.resolve_theta(member)[0]
        h, errs = np.ones(cfg.n_steps), []
        for _ in range(cfg.max_iter):
            u1 = march_alone(sub1, weights, None, h)
            flux = interface_flux_series(u1[1:], "right", sub1)
            u2 = march_alone(sub2, weights, -flux, None, flux=True)
            h = theta * u2[1:, 0] + (1 - theta) * h
            errs.append(np.abs(h).max())
        np.testing.assert_allclose(res.report.sup_errors, errs, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(res.traces, h, rtol=1e-12, atol=1e-15)


def test_transfer_matrix_is_causal_and_independent_of_the_chunk(monkeypatch):
    part = build_partition((0, 2), [0.9], [1.0, 0.5], [0.05, 0.1])
    weights = _config(partition=part, n_steps=21).build_weights()
    s = transfer_matrix(part, weights)
    assert s.shape == (21, 21)
    assert np.all(np.triu(s, 1) == 0.0)
    assert np.all(np.diag(s) != 0.0)
    phases = _affine_1d(NnwrConfig(partition=build_partition((0, 2), [0.5, 0.9, 1.4],
                                                             [1.0, 0.5, 2.0, 0.7], 0.1),
                                   order=0.5, horizon=1.0, n_steps=21), weights)
    blocks = [transfer_operator(phase) for phase in phases]  # three positions, reach 1
    for chunk in (1, 5, 21):
        monkeypatch.setattr("fracwr.iteration.TRANSFER_CHUNK", chunk)
        assert np.array_equal(transfer_matrix(part, weights), s)
        for phase, t in zip(phases, blocks):
            assert np.array_equal(transfer_operator(phase), t)


def test_contraction_is_the_largest_diagonal_entry_of_the_transfer_matrix():
    # the perfbench envelope breach (κ = (1, 0.2), breakpoint 1.42): the error
    # shrinks by the constant max|diag(T)|, T = θS + (1-θ)I, which lies above
    # the envelope's per-sweep factor 2·gain·(A-B)/A
    part = build_partition((0, 2), [1.42], [1.0, 0.2], 0.02)
    cfg = _config(partition=part, n_steps=64, theta="optimal", tolerance=1e-300, max_iter=24)
    errs = run_dnwr(cfg).report.sup_errors
    theta = cfg.resolve_theta()[0]
    s = transfer_matrix(part, cfg.build_weights())
    rate = np.abs(np.diag(theta * s + (1 - theta) * np.eye(64))).max()
    np.testing.assert_allclose(errs[1:] / errs[:-1], rate, rtol=1e-12)
    assert rate == pytest.approx(0.12904, abs=1e-5)
    p = DnwrBoundParams(nu=0.25, a=1.42, b=0.58, kappa1=1.0, kappa2=0.2, horizon=1.0)
    envelope = 2 * p.gain * (p.A - p.B) / p.A
    assert envelope == pytest.approx(0.120, abs=1e-3)
    assert rate > envelope


def test_two_sweep_convergence_symmetric():
    cfg = _config(theta=0.5, max_iter=2, tolerance=1e-30)
    res = run_dnwr(cfg)
    assert res.report.sup_errors[-1] <= 1e-12


def test_flux_sign_convention():
    # imposing the transmitted flux reproduces the transmission condition:
    # outward flux of u2 equals minus the outward flux of u1 at the interface
    cfg = _config(theta="optimal", mode="forced", max_iter=40,
                  source=lambda x, t: np.sin(np.pi * x / 2))
    res = run_dnwr(cfg, keep_fields=True)
    u1, u2 = res.fields
    sub1, sub2 = cfg.partition.subdomains
    f1 = interface_flux_series(u1[1:], "right", sub1)
    f2 = interface_flux_series(u2[1:], "left", sub2)
    assert np.abs(f1 + f2).max() <= 1e-8


def test_linear_rate_suboptimal_theta():
    cfg = _config(theta=0.2, max_iter=12, tolerance=1e-14)
    errs = run_dnwr(cfg).report.sup_errors
    ratios = errs[2:10] / errs[1:9]
    np.testing.assert_allclose(ratios, 0.6, atol=0.05)


def test_error_equation_mode_ignores_data():
    cfg = _config(max_iter=3, source=lambda x, t: np.sin(x), initial_condition=lambda x: x * (2 - x))
    res = run_dnwr(cfg)
    # unit guess with zero data: first-iterate size is that of the pure error run
    cfg0 = _config(max_iter=3)
    res0 = run_dnwr(cfg0)
    np.testing.assert_array_equal(res.report.errors, res0.report.errors)


def test_forced_mode_converges_to_monolithic_trace():
    f = lambda x, t: np.sin(np.pi * x / 2)
    cfg = _config(partition=build_partition((0, 2), [1.5], [1.0, 0.25], 0.02),
                  theta="optimal", mode="forced", tolerance=1e-11, max_iter=60, source=f)
    res = run_dnwr(cfg)
    assert res.report.converged
    mono = solve_monolithic(cfg.partition, cfg.build_weights(), f=cfg.source,
                            u0=cfg.initial_condition)
    assert np.abs(res.traces - mono.interface_traces()[0]).max() <= 1e-9


def test_forced_wave_run_whose_u0_breaks_the_flux_row_matches_the_monolithic_solve():
    # the wave scheme's first level reads u0 in its explicit half, and this
    # u0 satisfies no flux row at the interface (nor is it zero at the outer
    # ends), so the Neumann half's first level cannot assume one; the
    # converged fields must still glue into the monolithic solve
    f = lambda x, t: np.sin(np.pi * x / 2) * (1.0 + t)  # noqa: E731
    u0 = lambda x: np.cos(3.0 * x) + x  # noqa: E731
    cfg = _config(partition=build_partition((0, 2), [1.3], [1.0, 0.25], 0.02), order=1.5,
                  grading=1.0, theta="optimal", mode="forced", tolerance=1e-12, max_iter=80,
                  source=f, initial_condition=u0)
    res = run_dnwr(cfg, keep_fields=True)
    assert res.report.converged
    mono = solve_monolithic(cfg.partition, cfg.build_weights(), f=cfg.source,
                            u0=cfg.initial_condition)
    u1, u2 = res.fields
    glued = np.concatenate([u1, u2[:, 1:]], axis=1)
    assert np.abs(glued - mono.field).max() <= 1e-9 * np.abs(mono.field).max()


def test_fixed_point_invariance_any_theta():
    # started at the monolithic interface trace, one sweep leaves it unchanged
    f = lambda x, t: np.sin(np.pi * x / 2)
    for theta in (0.3, 0.7):
        cfg = _config(partition=build_partition((0, 2), [1.5], [1.0, 0.25], 0.02),
                      theta=theta, mode="forced", tolerance=1e-30, max_iter=1, source=f)
        mono = solve_monolithic(cfg.partition, cfg.build_weights(), f=cfg.source,
                                u0=cfg.initial_condition)
        trace = mono.interface_traces()[0]
        cfg2 = _config(partition=cfg.partition, theta=theta, mode="forced",
                       tolerance=1e-30, max_iter=1, source=f, initial_guess=trace)
        res = run_dnwr(cfg2)
        assert res.report.sup_errors[0] <= 1e-12


def test_iterates_match_continuous_transfer():
    # independent oracle: the interface error of sweep k has Laplace transform
    # G(s)^k / s with G = 1 - th - th*sqrt(k1/k2)*tanh(B s^nu)*coth(A s^nu);
    # the discrete iterates must track its contour inversion
    import cmath

    from fracwr.theory import talbot_invert

    nu, kr, theta = 0.25, 2.0, 1 / 3  # kappa = (1, 0.25), A = 1.5, B = 1
    part = build_partition((0, 2), [1.5], [1.0, 0.25], 0.01)
    cfg = _config(partition=part, order=0.5, n_steps=64, theta=theta,
                  tolerance=1e-16, max_iter=3)
    errs = run_dnwr(cfg).report.sup_errors

    def symbol(s):
        w1, w2 = 1.5 * s**nu, 1.0 * s**nu
        tanh2 = (1 - cmath.exp(-2 * w2)) / (1 + cmath.exp(-2 * w2))
        coth1 = (1 + cmath.exp(-2 * w1)) / (1 - cmath.exp(-2 * w1))
        return 1 - theta - theta * kr * tanh2 * coth1

    grid = np.concatenate([np.geomspace(1e-5, 0.1, 25), np.linspace(0.12, 1.0, 30)])
    for k in (1, 2, 3):
        vals = [talbot_invert(lambda s: symbol(s) ** k / s, t) for t in grid]
        continuous = np.abs(vals).max()
        assert errs[k - 1] == pytest.approx(continuous, rel=2e-2)


def test_transmission_jumps_within_driver_tolerance():
    # after convergence both interface jumps sit below 10x the tolerance
    f = lambda x, t: np.sin(np.pi * x / 2)
    tol = 1e-10
    cfg = _config(partition=build_partition((0, 2), [1.5], [1.0, 0.25], 0.02),
                  theta="optimal", mode="forced", tolerance=tol, max_iter=60, source=f)
    res = run_dnwr(cfg, keep_fields=True)
    assert res.report.converged
    u1, u2 = res.fields
    sub1, sub2 = cfg.partition.subdomains
    value_jump = np.abs(u1[1:, -1] - u2[1:, 0]).max()
    flux_jump = np.abs(
        interface_flux_series(u1[1:], "right", sub1)
        + interface_flux_series(u2[1:], "left", sub2)
    ).max()
    assert value_jump <= 10 * tol
    assert flux_jump <= 10 * tol


def test_heterogeneous_grid_coupling():
    # differently resolved neighbors: converged iteration still matches the
    # monolithic reference on the shared interface trace
    f = lambda x, t: np.sin(np.pi * x / 2)
    part = build_partition((0, 2), [1.0], [1.0, 0.25], [0.02, 0.01])
    cfg = _config(partition=part, theta="optimal", mode="forced",
                  tolerance=1e-11, max_iter=60, source=f)
    res = run_dnwr(cfg)
    assert res.report.converged
    mono = solve_monolithic(cfg.partition, cfg.build_weights(), f=cfg.source,
                            u0=cfg.initial_condition)
    assert np.abs(res.traces - mono.interface_traces()[0]).max() <= 1e-9


def test_nonconvergence_reported_not_raised():
    cfg = _config(theta=0.2, max_iter=3, tolerance=1e-14)
    res = run_dnwr(cfg)
    assert not res.report.converged
    assert res.report.iterations == 3


def test_wave_order_runs():
    cfg = _config(order=1.5, theta=0.5, max_iter=2, tolerance=1e-30)
    res = run_dnwr(cfg)
    assert res.report.sup_errors[-1] <= 1e-12


def test_report_wall_time_positive():
    res = run_dnwr(_config(max_iter=2, tolerance=1e-30))
    assert res.report.wall_time > 0.0
