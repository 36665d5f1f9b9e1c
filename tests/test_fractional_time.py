import math

import numpy as np
import pytest

from fracwr.fractional_time import (
    CaputoWeights,
    build_graded_mesh,
    caputo_apply,
    caputo_weights,
    default_grading,
    wave_coefficients,
)


def test_graded_mesh_quadratic():
    mesh = build_graded_mesh(1.0, 4, 2.0)
    np.testing.assert_allclose(mesh.points, [0.0, 1 / 16, 1 / 4, 9 / 16, 1.0], rtol=0, atol=0)


def test_graded_mesh_uniform():
    mesh = build_graded_mesh(1.0, 4, 1.0)
    np.testing.assert_allclose(mesh.points, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert mesh.is_uniform


@pytest.mark.parametrize("grading, n", [(1.0, 7), (3.0, 16), (9.0, 64)])
def test_graded_mesh_law(grading, n):
    horizon = 2.5
    mesh = build_graded_mesh(horizon, n, grading)
    expected = horizon * (np.arange(n + 1) / n) ** grading
    assert np.max(np.abs(mesh.points - expected)) <= 1e-14 * horizon
    assert mesh.points[0] == 0.0 and mesh.points[-1] == horizon
    assert np.all(np.diff(mesh.points) > 0)


def test_default_grading_rule():
    assert default_grading(0.5) == 3.0
    assert default_grading(1.0) == 1.0
    assert default_grading(1.5) == 1.0


@pytest.mark.parametrize("bad", [
    (0.0, 4, 1.0), (1.0, 0, 1.0), (1.0, 4, 0.5),
    (math.inf, 4, 1.0), (math.nan, 4, 1.0), (1.0, 2.5, 1.0), (1.0, 4.0, 1.0), (1.0, True, 1.0),
    (1.0, 4, math.inf), (1.0, 4, math.nan),
])
def test_graded_mesh_rejects(bad):
    with pytest.raises(ValueError):
        build_graded_mesh(*bad)


def test_graded_mesh_takes_numpy_integer_steps():
    mesh = build_graded_mesh(1.0, np.int64(4), 2.0)
    assert mesh.n_steps == 4
    assert np.array_equal(mesh.points, build_graded_mesh(1.0, 4, 2.0).points)


def test_l1_single_interval():
    mesh = build_graded_mesh(0.7, 1, 1.0)
    for alpha in (0.25, 0.5, 0.75):
        w = caputo_weights(mesh, alpha)
        expected = 0.7 ** (-alpha) / math.gamma(2.0 - alpha)
        # operator on (u0, u1) is (u1 - u0) * dt**(-alpha) / Gamma(2-alpha)
        assert caputo_apply(w, [1.0, 3.5]) == pytest.approx(2.5 * expected, rel=1e-14)


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 0.9])
@pytest.mark.parametrize("grading", ["optimal", 1.0])
def test_l1_exact_on_linear(alpha, grading):
    r = default_grading(alpha) if grading == "optimal" else grading
    mesh = build_graded_mesh(2.0, 64, r)
    w = caputo_weights(mesh, alpha)
    t = mesh.points
    for n in range(1, 65):
        got = caputo_apply(w, 2.0 * t[: n + 1])
        expected = 2.0 * t[n] ** (1 - alpha) / math.gamma(2 - alpha)
        assert got == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("alpha", [0.2, 0.6])
def test_l1_annihilates_constants(alpha):
    mesh = build_graded_mesh(1.0, 32, 3.0)
    w = caputo_weights(mesh, alpha)
    for n in (1, 7, 32):
        assert caputo_apply(w, np.full(n + 1, 4.2)) == 0.0


def test_l1_diagonal_positive():
    mesh = build_graded_mesh(1.0, 48, 5.0)
    for alpha in (0.1, 0.5, 0.9):
        assert np.all(caputo_weights(mesh, alpha).diagonal > 0)


def test_l1_rejects_bad_order():
    mesh = build_graded_mesh(1.0, 4, 1.0)
    for alpha in (0.0, 2.0, math.nan):
        with pytest.raises(ValueError):
            caputo_weights(mesh, alpha)


def test_classical_weights_are_backward_euler():
    # the L1 rows at order 1 are the backward-Euler rows bit for bit
    mesh = build_graded_mesh(1.0, 5, 2.0)
    w = caputo_weights(mesh, 1.0)
    dt = mesh.spacings
    assert w.scheme == "classical"
    assert np.array_equal(w.rows, np.diag(1.0 / dt))
    assert caputo_apply(w, [0.0, 0.3, 0.5]) == pytest.approx(0.2 / dt[1])
    for grading in (1.0, 2.0, 3.0):
        for n in (1, 7, 64, 96):
            mesh = build_graded_mesh(1.3, n, grading)
            assert np.array_equal(caputo_weights(mesh, 1.0).rows, np.diag(1.0 / mesh.spacings))


def test_wave_coefficients_basic():
    for alpha in (1.2, 1.5, 1.8):
        a = wave_coefficients(alpha, 12)
        assert a[0] == 1.0
        assert np.all(a > 0)
        assert np.all(np.diff(a) < 0)


def test_wave_diag_positive_constants_annihilated():
    w = caputo_weights(build_graded_mesh(10 * 0.1, 10), 1.5)
    assert np.all(w.diagonal > 0)
    for n in (1, 4, 10):
        assert caputo_apply(w, np.full(n + 1, -2.3)) == 0.0


@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
def test_wave_quadratic_accuracy_order(alpha):
    # expected value frozen from the analytic derivative 2 t^(2-a)/Gamma(3-a)
    # at the half-point evaluation time; observed order must reach 3 - alpha
    errs = []
    for n in (32, 64, 128):
        w = caputo_weights(build_graded_mesh(n * (1.0 / n), n), alpha)
        got = caputo_apply(w, w.mesh.points**2)
        exact = 2.0 * w.eval_times[-1] ** (2 - alpha) / math.gamma(3 - alpha)
        errs.append(abs(got - exact))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert orders.min() > (3 - alpha) - 0.3


def test_wave_rejects():
    graded = build_graded_mesh(1.0, 8, 2.0)
    with pytest.raises(ValueError):
        caputo_weights(graded, 1.5)


def test_dispatch_by_order():
    mesh = build_graded_mesh(1.0, 8, 1.0)
    assert caputo_weights(mesh, 0.5).scheme == "l1"
    assert caputo_weights(mesh, 1.0).scheme == "classical"
    w = caputo_weights(mesh, 1.5)
    assert w.scheme == "wave" and w.implicit_fraction == 0.5
    np.testing.assert_allclose(w.eval_times, mesh.points[1:] - 0.5 / 8)


def test_apply_is_linear_and_checks_length():
    mesh = build_graded_mesh(1.0, 6, 2.0)
    w = caputo_weights(mesh, 0.4)
    hist = np.array([0.0, 0.1, 0.7, 0.2])
    assert caputo_apply(w, 3.0 * hist) == pytest.approx(3.0 * caputo_apply(w, hist), rel=1e-14)
    assert caputo_apply(w, np.zeros(4)) == 0.0
    with pytest.raises(ValueError):
        caputo_apply(w, np.zeros(9))
    with pytest.raises(ValueError):
        caputo_apply(w, [1.0])
