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


def _dense_level(bnn, s, c, n, kinds, ends, rhs):
    """The raw (uncondensed) equations of one block: interior rows and end rows."""
    a = np.zeros((n, n))
    b = rhs.copy()
    for i in range(1, n - 1):
        a[i, i - 1] = a[i, i + 1] = -s
        a[i, i] = bnn + 2 * s
    for row, inward, kind, g in ((0, 1, kinds[0], ends[0]), (n - 1, -1, kinds[1], ends[1])):
        if kind == kernels.DIRICHLET:
            a[row, row] = 1.0
        else:
            a[row, row], a[row, row + inward], a[row, row + 2 * inward] = 3 * c, -4 * c, c
        b[row] = g
    return a, b


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
    ends = rng.standard_normal(2)
    stack = kernels.Stack([n], [s], [c], [bcs[0]], [bcs[1]])
    x = kernels.step_solve(bnn, stack, rhs, ends)

    a, b = _dense_level(bnn, s, c, n, bcs, ends, rhs)
    resid = np.abs(a @ x - b).max()
    assert resid <= 1e-11 * max(1.0, np.abs(b).max(), np.abs(x).max())
    # Dirichlet values are exact, and the caller's right-hand side is untouched
    if bcs[0] == kernels.DIRICHLET:
        assert x[0] == ends[0]
    if bcs[1] == kernels.DIRICHLET:
        assert x[-1] == ends[1]
    np.testing.assert_array_equal(rhs, b_in)


@pytest.mark.parametrize("n", [3, 12])
@pytest.mark.parametrize("bcs", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_step_solve_batch_equals_one_system_at_a_time(n, bcs):
    # stacked blocks with their own widths, coefficients, shifts, end kinds
    # and end values solve exactly as they do one by one: the zero couplings
    # leave each block untouched
    rng = np.random.default_rng(n)
    widths = [n, 3, n + 2, 5]
    kinds = [bcs, (bcs[1], bcs[0]), (1, 0), (0, 1)]
    s, c, shift = 0.3 + rng.random(4), 0.1 + rng.random(4), rng.random(4)
    left, right = zip(*kinds)
    stack = kernels.Stack(widths, s, c, left, right, shift)
    rhs = rng.standard_normal(sum(widths))
    ends = rng.standard_normal(8)
    before = rhs.copy()
    u = kernels.step_solve(0.5, stack, rhs, ends)
    assert np.array_equal(rhs, before)
    start = 0
    for k, w in enumerate(widths):
        one = kernels.Stack([w], s[k:k + 1], c[k:k + 1], [left[k]], [right[k]], shift[k:k + 1])
        block = slice(start, start + w)
        x = kernels.step_solve(0.5, one, rhs[block], ends[[k, 4 + k]])
        np.testing.assert_array_equal(u[block], x)
        start += w


def test_identity_row_is_exact_next_to_a_pivoting_flux_row():
    # block 0 ends in a Dirichlet identity row; block 1 starts with a flux row
    # whose diagonal 2c is smaller than the coupling s below it, so dgtsv
    # swaps that row with the next one; the identity row still returns g
    s, c, bnn = 50.0, 0.5, 2.0
    stack = kernels.Stack([4, 5], [s, s], [c, c], [kernels.DIRICHLET, kernels.FLUX],
                          [kernels.DIRICHLET, kernels.DIRICHLET])
    rng = np.random.default_rng(3)
    rhs = rng.standard_normal(9)
    ends = np.array([0.1, -0.7, 1.0 / 3.0, 2.0 ** -40])  # left ends, then right ends
    x = kernels.step_solve(bnn, stack, rhs, ends)
    assert x[3] == ends[2] and x[0] == ends[0] and x[8] == ends[3]
    for block, k in ((slice(0, 4), 0), (slice(4, 9), 1)):
        n = block.stop - block.start
        kinds = ([kernels.DIRICHLET, kernels.FLUX][k], kernels.DIRICHLET)
        a, b = _dense_level(bnn, s, c, n, kinds, ends[[k, 2 + k]], rhs[block])
        np.testing.assert_allclose(a @ x[block], b, rtol=1e-12, atol=1e-12)


def test_stack_rejects_short_blocks_and_unknown_kinds():
    with pytest.raises(ValueError, match="3 rows"):
        kernels.Stack([2], [1.0], [1.0], [0], [0])
    with pytest.raises(ValueError, match="end kinds"):
        kernels.Stack([3], [1.0], [1.0], [2], [0])
