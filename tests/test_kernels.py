import numpy as np
import pytest

from fracwr import kernels


def _random_system(n, rng, dominant=True):
    lower = -rng.random(n)
    upper = -rng.random(n)
    diag = rng.random(n) + 0.1
    if dominant:
        diag += np.abs(lower) + np.abs(upper)
    rhs = rng.standard_normal(n)
    return lower, diag, upper, rhs


def _dense(lower, diag, upper):
    n = len(diag)
    a = np.diag(diag)
    a += np.diag(lower[1:], -1)
    a += np.diag(upper[:-1], 1)
    return a


@pytest.mark.parametrize("n", [3, 17, 300])
def test_tridiag_matches_dense_solve(n):
    rng = np.random.default_rng(n)
    lower, diag, upper, rhs = _random_system(n, rng)
    x = kernels.tridiag_solve(lower, diag, upper, rhs)
    expected = np.linalg.solve(_dense(lower, diag, upper), rhs)
    np.testing.assert_allclose(x, expected, rtol=1e-12, atol=1e-12)


def test_tridiag_singular_system_raises():
    # rows (1, 1) and (1, 1): elimination leaves an exact zero pivot
    lower = np.array([0.0, 1.0])
    diag = np.array([1.0, 1.0])
    upper = np.array([1.0, 0.0])
    with pytest.raises(ArithmeticError, match="singular"):
        kernels.tridiag_solve(lower, diag, upper, np.array([1.0, 2.0]))
    with pytest.raises(ArithmeticError, match="singular"):
        kernels.tridiag_solve(np.zeros(1), np.zeros(1), np.zeros(1), np.ones(1))


@pytest.mark.parametrize(
    "n, stiffness",
    [
        pytest.param(n, stiffness, id=str(stiffness) if n == 12 else f"{stiffness}-n{n}")
        for n in (12, 3)
        for stiffness in (1e-3, 1.0, 1e6)
    ],
)
@pytest.mark.parametrize("bcs", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_step_solve_residuals_across_regimes(n, stiffness, bcs):
    # verify the condensed flux rows against a dense assembly of the raw
    # (uncondensed) equations, including very stiff first steps and the
    # smallest subdomain (3 nodes, one unknown between two Dirichlet ends)
    s = 0.7
    bnn = stiffness * s
    c = 0.35
    rng = np.random.default_rng(int(stiffness) + 10 * bcs[0] + bcs[1])
    rhs = rng.standard_normal(n)
    b_in = rhs.copy()
    val_l, val_r = rng.standard_normal(2)
    x = kernels.step_solve(bnn, s, rhs, bcs[0], val_l, bcs[1], val_r, c, c)

    a = np.zeros((n, n))
    b = rhs.copy()
    for i in range(1, n - 1):
        a[i, i - 1] = a[i, i + 1] = -s
        a[i, i] = bnn + 2 * s
    if bcs[0] == kernels.DIRICHLET:
        a[0, 0] = 1.0
        b[0] = val_l
    else:
        a[0, 0], a[0, 1], a[0, 2] = 3 * c, -4 * c, c
        b[0] = val_l
    if bcs[1] == kernels.DIRICHLET:
        a[-1, -1] = 1.0
        b[-1] = val_r
    else:
        a[-1, -1], a[-1, -2], a[-1, -3] = 3 * c, -4 * c, c
        b[-1] = val_r
    resid = np.abs(a @ x - b).max()
    assert resid <= 1e-11 * max(1.0, np.abs(b).max(), np.abs(x).max())
    # Dirichlet values are exact, and the caller's right-hand side is untouched
    if bcs[0] == kernels.DIRICHLET:
        assert x[0] == val_l
    if bcs[1] == kernels.DIRICHLET:
        assert x[-1] == val_r
    np.testing.assert_array_equal(rhs, b_in)


@pytest.mark.parametrize("n", [3, 12])
@pytest.mark.parametrize("bcs", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_step_solve_batch_equals_one_system_at_a_time(n, bcs):
    # stacked systems with their own diagonals and end values solve exactly
    # as they do one by one: the zero couplings leave each block untouched
    rng = np.random.default_rng(n)
    s, c = 0.7, 0.35
    bnn = 0.5 + rng.random(4)
    rhs = rng.standard_normal((4, n))
    vl, vr = rng.standard_normal(4), rng.standard_normal(4)
    before = rhs.copy()
    u = kernels.step_solve(bnn, s, rhs, bcs[0], vl, bcs[1], vr, c, c)
    assert np.array_equal(rhs, before)
    for b in range(4):
        one = kernels.step_solve(bnn[b], s, rhs[b], bcs[0], vl[b], bcs[1], vr[b], c, c)
        np.testing.assert_array_equal(u[b], one)
