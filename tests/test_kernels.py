import numpy as np
import pytest
from scipy.linalg.lapack import dgtsv

from fracwr import kernels
from fracwr.fractional_time import build_graded_mesh, caputo_weights

D, F = kernels.DIRICHLET, kernels.FLUX


def _second_difference(m):
    return 2.0 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1)


@pytest.mark.parametrize("m", [1, 2, 5, 40, 399])
def test_sine_rows_and_eigenvalues_diagonalise_the_second_difference(m):
    # the DST-I rows and the eigenvalues a stack builds from np.sin against
    # numpy.linalg.eigh of tridiag(-1, 2, -1); the basis is orthonormal and
    # its own inverse, and the FFT transform applies it
    s = kernels.sine_rows(m, range(m))
    lam = kernels.Stack([m + 2], [1.0], [1.0], [D], [D]).diag  # s lambda_k with s = 1
    np.testing.assert_allclose(s @ s, np.eye(m), rtol=0, atol=1e-13)
    np.testing.assert_allclose(s @ _second_difference(m) @ s, np.diag(lam), rtol=0, atol=1e-12)
    values, vectors = np.linalg.eigh(_second_difference(m))
    np.testing.assert_allclose(lam, values, rtol=0, atol=1e-12)
    # eigh's unit eigenvectors are the rows of S up to sign
    np.testing.assert_allclose(np.abs(vectors.T @ s.T), np.eye(m), rtol=0, atol=1e-10)
    x = np.random.default_rng(m).standard_normal((3, m))
    np.testing.assert_allclose(kernels.dst(x), x @ s, rtol=0, atol=1e-13 * max(1.0, m / 40))
    np.testing.assert_allclose(kernels.dst(kernels.dst(x)), x, rtol=0, atol=1e-14 * max(1, m))
    assert np.array_equal(kernels.dst(x)[1], kernels.dst(x[1]))  # a row depends on itself alone


def _quiet_dirichlet_beside_flux(stack, ends):
    """``ends`` with 0 at each Dirichlet end of a line with a flux end, the
    value such an end holds in every march (``kernels``)."""
    ends[~stack.flux & stack.flux.any(axis=1, keepdims=True)] = 0.0
    return ends


def _lines(rhs, widths):
    start = 0
    for w in widths:
        yield slice(start, start + w)
        start += w


def _solve(bnn, stack, widths, rhs, ends, extra=None):
    """One level through ``step_solve``, in physical space: ``rhs`` per node
    (the interior rows of each line are read) and ``ends`` (lines, 2)."""
    rhs_hat = np.concatenate([kernels.dst(rhs[b][1:-1]) for b in _lines(rhs, widths)])
    u_hat, values = kernels.step_solve(bnn, stack, rhs_hat, ends, extra)
    parts, start = [], 0
    for (lo, hi), w in zip(values, widths):
        parts.append(np.concatenate([[lo], kernels.dst(u_hat[start:start + w - 2]), [hi]]))
        start += w - 2
    return np.concatenate(parts), u_hat, values


def test_tridiag_singular_system_raises():
    # a 3-row line between two Dirichlet ends whose shift cancels the middle
    # row's diagonal: its one mode divides by zero
    s, bnn = 0.5, 1.0
    lam = kernels.Stack([3], [1.0], [1.0], [D], [D]).diag[0]
    stack = kernels.Stack([3], [s], [1.0], [D], [D], [-(bnn + s * lam)])
    with pytest.raises(ArithmeticError, match="singular in line 0, mode 1"):
        kernels.step_solve(bnn, stack, np.ones(1), np.zeros((1, 2)))


def _dense_level(bnn, s, c, n, kinds, ends, rhs):
    """The raw (uncondensed) equations of one line: interior rows and end rows."""
    a = np.zeros((n, n))
    b = rhs.copy()
    for i in range(1, n - 1):
        a[i, i - 1] = a[i, i + 1] = -s
        a[i, i] = bnn + 2 * s
    for row, inward, kind, g in ((0, 1, kinds[0], ends[0]), (n - 1, -1, kinds[1], ends[1])):
        if kind == D:
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
    # the level solved in the line's sine basis against a dense assembly of
    # the raw (uncondensed) equations, including very stiff first steps and
    # the smallest line (3 nodes, one unknown, whose flux rows read the other
    # end node)
    s = 0.7
    bnn = stiffness * s
    c = 0.35
    rng = np.random.default_rng(int(stiffness) + 10 * bcs[0] + bcs[1])
    rhs = rng.standard_normal(n)
    b_in = rhs.copy()
    stack = kernels.Stack([n], [s], [c], [bcs[0]], [bcs[1]])
    ends = _quiet_dirichlet_beside_flux(stack, rng.standard_normal((1, 2)))
    x, _, _ = _solve(bnn, stack, [n], rhs, ends)

    a, b = _dense_level(bnn, s, c, n, bcs, ends[0], rhs)
    resid = np.abs(a @ x - b).max()
    assert resid <= 1e-11 * max(1.0, np.abs(b).max(), np.abs(x).max())
    # Dirichlet values are exact, and the caller's right-hand side is untouched
    if bcs[0] == D:
        assert x[0] == ends[0, 0]
    if bcs[1] == D:
        assert x[-1] == ends[0, 1]
    np.testing.assert_array_equal(rhs, b_in)


@pytest.mark.parametrize("n", [3, 12])
@pytest.mark.parametrize("bcs", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_step_solve_batch_equals_one_system_at_a_time(n, bcs):
    # stacked lines with their own widths, coefficients, shifts, end kinds
    # and end values solve exactly as they do one by one: every reduction
    # reads one line's coefficients alone
    rng = np.random.default_rng(n)
    widths = [n, 3, n + 2, 5]
    kinds = [bcs, (bcs[1], bcs[0]), (1, 0), (0, 1)]
    s, c, shift = 0.3 + rng.random(4), 0.1 + rng.random(4), rng.random(4)
    left, right = zip(*kinds)
    stack = kernels.Stack(widths, s, c, left, right, shift)
    rhs = rng.standard_normal(stack.size)
    ends = rng.standard_normal((4, 2))
    extra = rng.standard_normal((4, 2))
    before = rhs.copy()
    u, values = kernels.step_solve(0.5, stack, rhs, ends, extra)
    assert np.array_equal(rhs, before)
    start = 0
    for k, w in enumerate(widths):
        one = kernels.Stack([w], s[k:k + 1], c[k:k + 1], [left[k]], [right[k]], shift[k:k + 1])
        x, v = kernels.step_solve(0.5, one, rhs[start:start + w - 2], ends[k:k + 1],
                                  extra[k:k + 1])
        np.testing.assert_array_equal(u[start:start + w - 2], x)
        np.testing.assert_array_equal(values[k], v[0])
        start += w - 2


def test_identity_row_is_exact_next_to_a_pivoting_flux_row():
    # line 0 ends in Dirichlet rows; line 1 starts with a flux row whose
    # diagonal 2c is far below the coupling s next to it (the regime where an
    # elimination pivots); every Dirichlet end still returns its g, which is
    # 0 beside the flux end, as in every march
    s, c, bnn = 50.0, 0.5, 2.0
    stack = kernels.Stack([4, 5], [s, s], [c, c], [D, F], [D, D])
    rng = np.random.default_rng(3)
    rhs = rng.standard_normal(9)
    ends = np.array([[0.1, 1.0 / 3.0], [-0.7, 0.0]])
    x, _, values = _solve(bnn, stack, [4, 5], rhs, ends)
    assert x[3] == ends[0, 1] and x[0] == ends[0, 0] and x[8] == ends[1, 1]
    assert values[0, 0] == ends[0, 0] and values[1, 1] == ends[1, 1]
    for block, k in ((slice(0, 4), 0), (slice(4, 9), 1)):
        n = block.stop - block.start
        kinds = ([D, F][k], D)
        a, b = _dense_level(bnn, s, c, n, kinds, ends[k], rhs[block])
        np.testing.assert_allclose(a @ x[block], b, rtol=1e-12, atol=1e-12)


def test_stack_rejects_short_blocks_and_unknown_kinds():
    with pytest.raises(ValueError, match="3 rows"):
        kernels.Stack([2], [1.0], [1.0], [0], [0])
    with pytest.raises(ValueError, match="end kinds"):
        kernels.Stack([3], [1.0], [1.0], [2], [0])


# (widths, s, c, left end kinds, right end kinds, shift, bnn) of the level cases
FACTOR_CASES = {
    "dirichlet": ([12], [0.7], [0.35], [D], [D], None, 3.0),
    "flux": ([12], [0.7], [0.35], [F], [F], None, 3.0),
    # line 0 ends in a flux row whose condensed coupling, (c/s) * bnn - 2c,
    # outgrows the diagonal above it when c > s; line 1 opens with a
    # Dirichlet end
    "pivoting-flux-beside-identity": ([6, 5], [0.5, 0.5], [1.0, 1.0], [D, D], [F, D], None, 1e4),
    "three-rows-two-dirichlet": ([3, 5], [0.7, 1.3], [0.35, 0.5], [D, F], [D, D], None, 3.0),
    "decay-shift": ([7, 9], [0.7, 1.3], [0.35, 0.5], [F, D], [D, F], [0.3, 2.0], 3.0),
}


def _stack(case):
    return kernels.Stack(*FACTOR_CASES[case][:-1])


def _level(stack, seed):
    """Basis right-hand sides and end values with a few signed zeros."""
    rng = np.random.default_rng(seed)
    rhs, ends = rng.standard_normal(stack.size), rng.standard_normal((stack.lines, 2))
    rhs[::4], ends[::3, 0] = -0.0, -0.0
    return rhs, _quiet_dirichlet_beside_flux(stack, ends)


def _condensed(bnn, s, c, shift, n, kinds, ends, rhs):
    """One line's condensed tridiagonal level system, as a LAPACK ``dgtsv``
    call takes it: a Dirichlet end is an identity row, and a flux row
    (3c, -4c, c) plus (c/s) times its neighbouring interior row keeps two
    entries."""
    diag = np.full(n, bnn + shift + 2.0 * s)
    upper, lower, b = np.full(n - 1, -s), np.full(n - 1, -s), rhs.copy()
    for row, nbr, slot, side, kind, g in ((0, 1, 0, upper, kinds[0], ends[0]),
                                          (n - 1, n - 2, n - 2, lower, kinds[1], ends[1])):
        if kind == D:
            diag[row], side[slot], b[row] = 1.0, 0.0, g
            b[nbr] += s * g
            (lower if side is upper else upper)[slot] = 0.0
        else:
            diag[row], side[slot] = 2.0 * c, -4.0 * c + (c / s) * (bnn + shift + 2.0 * s)
            b[row] = g + (c / s) * rhs[nbr]
    return lower, diag, upper, b


def _fresh(bnn, case, rhs, ends):
    """Each line of ``case`` solved afresh by ``dgtsv`` on its condensed matrix, in
    physical space, from the interior right-hand sides whose coefficients are ``rhs``."""
    widths, s, c, left, right, shift, _ = FACTOR_CASES[case]
    shift = [0.0] * len(widths) if shift is None else shift
    out, start = [], 0
    for k, w in enumerate(widths):
        full = np.concatenate([[0.0], kernels.dst(rhs[start:start + w - 2]), [0.0]])
        *system, b = _condensed(bnn, s[k], c[k], shift[k], w, (left[k], right[k]), ends[k], full)
        *_, x, info = dgtsv(*system, b)
        assert info == 0
        out.append(x)
        start += w - 2
    return np.concatenate(out)


def _physical(stack, widths, u_hat, values):
    parts, start = [], 0
    for (lo, hi), w in zip(values, widths):
        parts.append(np.concatenate([[lo], kernels.dst(u_hat[start:start + w - 2]), [hi]]))
        start += w - 2
    return np.concatenate(parts)


def _same_bits(x, y):
    return np.array_equal(x, y) and np.array_equal(np.signbit(x), np.signbit(y))


@pytest.mark.parametrize("case", FACTOR_CASES)
def test_factored_level_equals_a_fresh_dgtsv_solve(case):
    # a level solved on the stack's factorisation of each line's operator
    # (its sine basis, built once) against a fresh dgtsv solve of the
    # condensed tridiagonal level matrix that the march solved before the
    # basis: the same to rounding, and a Dirichlet end bit for bit
    bnn = FACTOR_CASES[case][-1]
    widths = FACTOR_CASES[case][0]
    stack = _stack(case)
    for seed in (0, 1):
        rhs, ends = _level(stack, seed)
        u_hat, values = kernels.step_solve(bnn, stack, rhs, ends)
        x = _physical(stack, widths, u_hat, values)
        fresh = _fresh(bnn, case, rhs, ends)
        np.testing.assert_allclose(x, fresh, rtol=1e-12, atol=1e-12 * np.abs(fresh).max())
        dirichlet = np.concatenate([[k == D for k in kinds] for kinds in
                                    zip(FACTOR_CASES[case][3], FACTOR_CASES[case][4])])
        assert _same_bits(values.ravel()[dirichlet], ends.ravel()[dirichlet])


@pytest.mark.parametrize("order", [0.5, 1.0])
@pytest.mark.parametrize("case", FACTOR_CASES)
def test_levels_between_factored_ones_leave_the_factors_intact(case, order):
    # on a uniform mesh of 10 steps over horizon 1 the rounding of t_n - t_{n-1}
    # gives the diagonal weights A, A, A, B, A at levels 5 to 9; levels with
    # either weight on one stack solve bit for bit as on a fresh stack, and
    # leave the stack's basis as it was
    w = caputo_weights(build_graded_mesh(1.0, 10, 1.0), order)
    a, b = w.diagonal[[4, 7]]
    assert a == w.diagonal[5] == w.diagonal[8] and a != b
    stack = _stack(case)
    kept = {name: getattr(stack, name).copy() for name in ("edge", "diag", "gather")}
    for seed, bnn in enumerate([a, a, b, a]):
        level = _level(stack, seed)
        u, values = kernels.step_solve(bnn, stack, *level)
        fresh_u, fresh_values = kernels.step_solve(bnn, _stack(case), *level)
        assert _same_bits(u, fresh_u) and _same_bits(values, fresh_values)
    for name, array in kept.items():
        assert np.array_equal(getattr(stack, name), array)


@pytest.mark.parametrize("explicit", [False, True])
def test_solution_lands_in_out_and_rhs_is_unchanged(explicit):
    stack = _stack("decay-shift")
    rhs, ends = _level(stack, 2)
    extra = np.random.default_rng(4).standard_normal(ends.shape) if explicit else None
    before = rhs.copy()
    out = np.full(stack.size, np.nan)
    x, values = kernels.step_solve(3.0, stack, rhs, ends, extra, out=out)
    assert x is out
    fresh, fresh_values = kernels.step_solve(3.0, _stack("decay-shift"), rhs, ends, extra)
    assert _same_bits(out, fresh) and _same_bits(values, fresh_values)
    assert _same_bits(rhs, before)


def _condensed_interior(bnn, s, c, shift, n, kinds, ends, rhs):
    """The level of one line as a dense system on its interior nodes, each
    flux end's row substituted: next to a flux end s (-1, 2) becomes
    s (-2/3, 2/3), and the end data move to the right-hand side."""
    m = n - 2
    a = (bnn + shift) * np.eye(m) + s * _second_difference(m)
    b = rhs[1:-1].copy()
    for near, nxt, kind, g in ((0, 1, kinds[0], ends[0]), (m - 1, m - 2, kinds[1], ends[1])):
        if kind == D:
            b[near] += s * g
        else:
            a[near, near] -= 4.0 / 3.0 * s
            a[near, nxt] += 1.0 / 3.0 * s
            b[near] += s * g / (3.0 * c)
    return a, b


@pytest.mark.parametrize("kinds", [(D, D), (F, D), (D, F), (F, F)], ids=["DD", "FD", "DF", "FF"])
def test_level_solve_matches_the_condensed_level_matrix(kinds):
    # each end-kind pair at random diagonal weights and with a decay shift,
    # against a dense solve of the line's condensed level matrix; the flux
    # node follows from the flux row, u_L = q/(3c) + (4/3) u_{L-1} - (1/3) u_{L-2}
    rng = np.random.default_rng(sum(kinds) + 7 * kinds[0])
    n, s, c, shift = 17, 2.5, 0.8, 4.0
    stack = kernels.Stack([n, n], [s, s], [c, c], [kinds[0]] * 2, [kinds[1]] * 2, [0.0, shift])
    for bnn in rng.uniform(0.01, 50.0, 4):
        rhs = rng.standard_normal(2 * n)
        ends = _quiet_dirichlet_beside_flux(stack, rng.standard_normal((2, 2)))
        x, _, values = _solve(bnn, stack, [n, n], rhs, ends)
        for k, sh in enumerate((0.0, shift)):
            a, b = _condensed_interior(bnn, s, c, sh, n, kinds, ends[k], rhs[k * n:(k + 1) * n])
            inner = np.linalg.solve(a, b)
            line = x[k * n:(k + 1) * n]
            np.testing.assert_allclose(line[1:-1], inner, rtol=1e-12, atol=1e-13)
            for e, (end, near, nxt) in enumerate(((0, 1, 2), (n - 1, n - 2, n - 3))):
                if kinds[e] == D:
                    assert line[end] == ends[k, e] == values[k, e]
                else:
                    flux_node = ends[k, e] / (3.0 * c) + (4.0 * line[near] - line[nxt]) / 3.0
                    assert line[end] == pytest.approx(flux_node, rel=1e-12, abs=1e-13)
