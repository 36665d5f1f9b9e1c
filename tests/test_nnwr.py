from dataclasses import replace
from functools import partial

import numpy as np
import pytest

import fracwr.iteration as iteration
from fracwr import nnwr
from fracwr.geometry import axis_nodes, build_partition
from fracwr.nnwr import (
    Nnwr2dConfig,
    NnwrConfig,
    optimal_theta_nnwr,
    run_nnwr_1d,
    run_nnwr_2d,
)
from fracwr.solver import solve_monolithic


def test_optimal_theta_values():
    assert optimal_theta_nnwr(1.0, 1.0) == pytest.approx(0.25)
    assert optimal_theta_nnwr(1.0, 4.0) == pytest.approx(1 / 4.5)
    assert optimal_theta_nnwr(4.0, 1.0) == pytest.approx(optimal_theta_nnwr(1.0, 4.0))
    with pytest.raises(ValueError):
        optimal_theta_nnwr(-1.0, 1.0)


def _config(**overrides):
    base = dict(
        partition=build_partition((0, 4), [1.0, 2.0, 3.0], 1.0, 0.1),
        order=0.5,
        horizon=1.0,
        n_steps=16,
        theta="optimal",
        tolerance=1e-10,
        max_iter=25,
        mode="error_equation",
    )
    base.update(overrides)
    return NnwrConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        _config(theta=1.5)
    with pytest.raises(ValueError):
        _config(theta=[0.25, 0.25])  # wrong length for 3 interfaces


def test_resolve_thetas_per_interface():
    part = build_partition((0, 3), [1.0, 2.0], [1.0, 4.0, 1.0], 0.1)
    cfg = _config(partition=part)
    np.testing.assert_allclose(cfg.resolve_theta(), [1 / 4.5, 1 / 4.5])


def test_zero_guess_zero_data_stays_zero():
    cfg = _config(initial_guess=0.0, max_iter=3, tolerance=1e-30)
    res = run_nnwr_1d(cfg)
    assert np.all(res.report.errors == 0.0)
    assert np.all(res.traces == 0.0)


def test_superlinear_at_optimal_weight():
    part = build_partition((0, 16), [3.2, 6.4, 9.6, 12.8], 1.0, 0.05)
    cfg = _config(partition=part, horizon=4.0, n_steps=48, max_iter=8, tolerance=1e-13)
    errs = run_nnwr_1d(cfg).report.sup_errors
    useful = errs[errs > 1e-13]
    dlog = np.diff(np.log(useful))
    assert np.all(np.diff(dlog) < 0.0)  # log-error curve concave down


def test_fixed_point_from_monolithic_traces():
    # the second partition's two-cell subdomains put an interface row's c_l
    # term on the physical end and on the previous interface
    cases = [
        (build_partition((0, 16), [3.5, 5.5, 10, 12], [0.25, 1.0, 0.25, 4.0, 1.0], 0.1), 0.5,
         lambda x, t: np.sin(np.pi * x / 16), lambda x: x * (16 - x) / 64),
        *[(build_partition((0, 0.4), [0.1, 0.2], [1.0, 2.0, 0.5], 0.05), order,
           lambda x, t: np.sin(np.pi * x / 0.4), lambda x: x * (0.4 - x) / 0.04)
          for order in (0.5, 1.5)],
    ]
    for part, order, source, initial in cases:
        cfg = _config(partition=part, order=order, horizon=2.0, n_steps=20, mode="forced",
                      source=source, initial_condition=initial, max_iter=1, tolerance=1e-30)
        mono = solve_monolithic(cfg.partition, cfg.build_weights(), f=cfg.source,
                                u0=cfg.initial_condition)
        res = run_nnwr_1d(replace(cfg, initial_guess=mono.interface_traces()))
        assert res.report.errors[0].max() <= 1e-12


def test_two_subdomain_case_runs():
    part = build_partition((0, 2), [1.0], 1.0, 0.05)
    cfg = _config(partition=part, max_iter=20, tolerance=1e-10)
    res = run_nnwr_1d(cfg)
    assert res.report.converged


def test_wave_order_converges():
    part = build_partition((0, 16), [3.2, 6.4, 9.6, 12.8], 1.0, 0.05)
    cfg = _config(partition=part, order=1.5, horizon=4.0, n_steps=48,
                  max_iter=10, tolerance=1e-10)
    res = run_nnwr_1d(cfg)
    assert res.report.converged
    assert res.report.iterations <= 4


def _marched(phases, xs):
    """One marched sweep's affine part: the phases marched in turn, with the
    data, for each member's traces ``xs[i]``."""
    ys = []
    for x in xs:
        for phase in phases:
            x = phase.march(x, True)
        ys.append(x)
    return np.array(ys)


def test_each_phase_is_one_march_over_all_subdomains(monkeypatch):
    # one Dirichlet march and one Neumann march per marched sweep, each over
    # all five subdomains, whatever the subdomain count; in 2D each phase
    # marches the x-lines of both strips (with all their sine modes) at once.
    # Runs this long would build their operators, so every sweep is marched
    monkeypatch.setattr(iteration, "_affine_part", lambda cfg, phases: partial(_marched, phases))
    calls = {"solve_dirichlet_waveform": [], "solve_neumann_waveform": []}
    for name, seen in calls.items():
        solve = getattr(nnwr, name)

        def counted(sub, *args, _solve=solve, _seen=seen, **kwargs):
            _seen.append(len(sub))
            return _solve(sub, *args, **kwargs)

        monkeypatch.setattr(nnwr, name, counted)
    part = build_partition((0, 5), [1.0, 2.0, 3.0, 4.0], [1.0, 0.5, 2.0, 1.0, 0.25], 0.125)
    sweeps = 3
    runs = [(lambda: run_nnwr_1d(_config(partition=part, max_iter=sweeps, tolerance=1e-30)), 5),
            (lambda: run_nnwr_2d(_config_2d(max_iter=sweeps, tolerance=1e-30)), 2)]
    for run, lines in runs:
        for seen in calls.values():
            seen.clear()
        assert run().report.iterations == sweeps
        assert calls == {name: [lines] * sweeps for name in calls}


# ---------------------------------------------------------------------------
# 2D driver
# ---------------------------------------------------------------------------

def _config_2d(**overrides):
    base = dict(
        partition=build_partition((0, 2), [0.5], 1.0, 0.05),
        y_extent=(-2.0, 2.0),
        dy=0.25,
        order=0.5,
        horizon=1.0,
        n_steps=12,
        theta=0.25,
        tolerance=1e-9,
        max_iter=10,
        mode="error_equation",
    )
    base.update(overrides)
    return Nnwr2dConfig(**base)


def test_2d_config_validation():
    with pytest.raises(ValueError, match="exactly two subdomains"):
        _config_2d(partition=build_partition((0, 2), [0.5, 1.0], 1.0, 0.05))
    with pytest.raises(ValueError, match="does not tile"):
        _config_2d(dy=0.3)


@pytest.mark.parametrize("theta", [0.0, -0.25, 1.5])
def test_2d_config_rejects_theta_outside_unit_interval(theta):
    with pytest.raises(ValueError, match="theta"):
        _config_2d(theta=theta)


def test_2d_optimal_theta_is_quarter():
    assert _config_2d(theta="optimal").resolve_theta() == pytest.approx(0.25)


def test_2d_zero_guess_stays_zero():
    cfg = _config_2d(initial_guess=0.0, max_iter=2, tolerance=1e-30)
    res = run_nnwr_2d(cfg)
    assert np.all(res.report.errors == 0.0)


@pytest.mark.parametrize("sweeps", [1, 3])
def test_2d_matches_1d_at_mid_strip(sweeps):
    # y-independent guess: the trace iterate at the mid row reproduces the 1D
    # iterate; the strip must be wide enough that the heavy-tailed influence
    # of the truncated y-boundary stays below the comparison tolerance
    cfg = _config_2d(y_extent=(-12.0, 12.0), max_iter=sweeps, tolerance=1e-30)
    res2d = run_nnwr_2d(cfg)
    part = build_partition((0, 2), [0.5], 1.0, 0.05)
    cfg1d = NnwrConfig(partition=part, order=0.5, horizon=1.0, n_steps=12,
                       theta=0.25, tolerance=1e-30, max_iter=sweeps,
                       mode="error_equation")
    res1d = run_nnwr_1d(cfg1d)
    mid = len(axis_nodes(-12.0, 12.0, 0.25)) // 2
    assert np.abs(res2d.traces[:, mid] - res1d.traces[0]).max() < 1e-6


def test_2d_forced_run_starts_each_side_from_the_initial_condition():
    g = lambda x, y: x * (2 - x) * np.exp(-y**2)  # noqa: E731
    cfg = _config_2d(mode="forced", source=lambda x, y, t: np.sin(np.pi * x / 2),
                     initial_condition=g, tolerance=1e-9, max_iter=15)
    res = run_nnwr_2d(cfg, keep_fields=True)
    assert res.report.converged
    ys = axis_nodes(*cfg.y_extent, cfg.dy)
    for sub, u in zip(cfg.partition.subdomains, res.fields):
        xg, yg = np.meshgrid(sub.nodes, ys, indexing="ij")
        np.testing.assert_array_equal(u[0], g(xg, yg))
        assert np.isfinite(u).all()
