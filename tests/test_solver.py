import functools
import math
import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from fracwr import kernels
from fracwr.fractional_time import build_graded_mesh, caputo_weights, default_grading
from fracwr.geometry import axis_nodes, build_partition, build_subdomain
from fracwr.nnwr import Nnwr2dConfig, run_nnwr_2d
from fracwr.solver import solve_monolithic, solve_waveform, tabulate
from marching import march_alone


def _weights(order=0.5, n=16, horizon=1.0, grading=None):
    r = default_grading(order) if grading is None else grading
    return caputo_weights(build_graded_mesh(horizon, n, r), order)


def test_zero_data_gives_zero_field():
    sub = build_subdomain(0.0, 1.0, 1.0, 0.1)
    for order in (0.5, 1.0, 1.5):
        u = march_alone(sub, _weights(order), None, None)
        assert np.all(u == 0.0)
        u = march_alone(sub, _weights(order), np.zeros(16), np.zeros(16), flux=True)
        assert np.all(u == 0.0)


def test_rows_satisfy_discrete_equations():
    # residual of every interior row below 1e-12 relative
    sub = build_subdomain(0.0, 1.0, 0.7, 0.05)
    w = _weights(0.5, n=12)
    trace = np.sin(np.arange(1, 13) / 3.0)
    u = march_alone(sub, w, None, trace)
    s = sub.kappa / sub.dx**2
    for n in range(1, 13):
        hist = w.rows[n - 1, :n] @ np.diff(u[: n + 1], axis=0)
        lap = s * (u[n, :-2] - 2 * u[n, 1:-1] + u[n, 2:])
        resid = hist[1:-1] - lap
        assert np.abs(resid).max() <= 1e-12 * max(1.0, np.abs(hist).max())
    np.testing.assert_allclose(u[1:, -1], trace, rtol=0, atol=0)
    np.testing.assert_allclose(u[:, 0], 0.0, rtol=0, atol=0)


def test_steady_state_linear_profile():
    # order 1, constant unit left trace, zero right: u -> linear interpolant
    sub = build_subdomain(0.0, 1.0, 1.0, 0.05)
    w = caputo_weights(build_graded_mesh(40.0, 400, 1.0), 1.0)
    u = march_alone(sub, w, np.ones(400), None)
    expected = 1.0 - sub.nodes
    assert np.abs(u[-1] - expected).max() < 1e-6


def test_symmetric_data_symmetric_field():
    sub = build_subdomain(-1.0, 1.0, 1.0, 0.1)
    w = _weights(0.5, n=10)
    f = lambda x, t: np.cos(np.pi * x / 2)
    u = march_alone(sub, w, None, None, f=f)
    assert np.abs(u - u[:, ::-1]).max() < 1e-12


@pytest.mark.parametrize("order", [0.6, 1.0])
def test_neumann_manufactured_exact(order):
    # u = x^2 t is reproduced exactly: linear in t (first-difference schemes
    # exact), quadratic in x (stencils exact)
    sub = build_subdomain(0.3, 1.1, 0.7, 0.05)
    w = _weights(order, n=12, grading=2.0 if order < 1 else 1.0)
    t = w.mesh.points
    te = w.eval_times
    if order < 1:
        dt_term = lambda x, tt: x**2 * tt ** (1 - order) / math.gamma(2 - order)
    else:
        dt_term = lambda x, tt: x**2
    f = lambda x, tt: dt_term(x, tt) - 2 * sub.kappa * tt
    left = -sub.kappa * 2 * 0.3 * t[1:]
    right = sub.kappa * 2 * 1.1 * t[1:]
    u = march_alone(sub, w, left, right, flux=True, f=f)
    exact = np.outer(t, sub.nodes**2)
    assert np.abs(u - exact).max() < 1e-11


def test_wave_manufactured_quadratic_time():
    # u = x^2 t^2 with zero initial velocity; half-point source evaluation
    order = 1.5
    n = 32
    w = _weights(order, n=n, grading=1.0)
    sub = build_subdomain(0.0, 1.0, 1.0, 0.025)
    te = w.eval_times
    f = lambda x, tt: x**2 * 2 * tt ** (2 - order) / math.gamma(3 - order) - 2 * sub.kappa * tt**2
    t = w.mesh.points
    u = march_alone(sub, w, None, t[1:] ** 2, f=f, u0=None)
    exact = np.outer(t**2, sub.nodes**2)
    e1 = np.abs(u - exact).max()
    assert e1 < 5e-4
    # refine in time: the field error drops by better than first order
    w2 = _weights(order, n=2 * n, grading=1.0)
    u2 = march_alone(sub, w2, None, w2.mesh.points[1:] ** 2, f=f)
    e2 = np.abs(u2 - np.outer(w2.mesh.points**2, sub.nodes**2)).max()
    assert e2 < 0.55 * e1


def _l1_time_order(alpha, grading):
    # manufactured u = (t^a + t) sin(pi x), fine space grid, n_t doubling
    sub = build_subdomain(0.0, 1.0, 1.0, 1.0 / 400)
    phi = np.sin(np.pi * sub.nodes)
    errs = []
    for n in (8, 16, 32, 64):
        w = _weights(alpha, n=n, grading=grading)
        t = w.mesh.points

        def f(x, tt):
            shape = np.sin(np.pi * x)
            dt_part = math.gamma(1 + alpha) + tt ** (1 - alpha) / math.gamma(2 - alpha)
            return shape * (dt_part + np.pi**2 * (tt**alpha + tt))

        u = march_alone(sub, w, None, None, f=f)
        exact = np.outer(t**alpha + t, phi)
        errs.append(np.abs(u - exact).max())  # sup over the whole window
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    return orders.min()


def test_graded_l1_observed_order():
    # optimal grading beats 0.8 and clearly improves on the uniform mesh,
    # whose window rate is capped near alpha by the t -> 0 solution layer
    graded = _l1_time_order(0.5, grading=None)
    uniform = _l1_time_order(0.5, grading=1.0)
    assert graded > 0.8
    assert graded > uniform + 0.3


def test_determinism_bitwise():
    sub = build_subdomain(0.0, 1.0, 0.5, 0.05)
    w = _weights(0.7, n=20)
    trace = np.sin(np.arange(1, 21) / 2)
    u1 = march_alone(sub, w, trace, None)
    u2 = march_alone(sub, w, trace, None)
    assert np.array_equal(u1, u2)


def test_trace_length_mismatch_rejected():
    sub = build_subdomain(0.0, 1.0, 1.0, 0.1)
    w = _weights(0.5, n=16)
    with pytest.raises(ValueError):
        march_alone(sub, w, np.ones(7), None)
    # the ends have a member axis, and the tables one row per level
    with pytest.raises(ValueError, match="an end has shape"):
        solve_waveform([sub], w, [np.ones(16)], [None], 1)
    with pytest.raises(ValueError, match="source"):
        solve_waveform([sub], w, [None], [None], 1, f=[np.ones(sub.n_nodes)])
    with pytest.raises(ValueError, match="initial data"):
        solve_waveform([sub], w, [None], [None], 1, u0=[np.ones(sub.n_nodes - 1)])


@pytest.mark.parametrize("order", [0.6, 1.5])
def test_stacked_march_equals_one_subdomain_marches(order):
    # unequal widths (a 3-node block among them), a run of two subdomains on
    # one grid, and physical ends and interface ends on both sides of a
    # subdomain, the interface ends as traces and as fluxes; three members
    # and a source in time
    subs = [build_subdomain(0.0, 1.0, 1.0, 0.125), build_subdomain(1.0, 1.25, 0.5, 0.125),
            build_subdomain(1.25, 2.25, 2.0, 0.125), build_subdomain(2.25, 3.25, 0.3, 0.125)]
    assert [s.n_nodes for s in subs] == [9, 3, 9, 9]
    w = _weights(order, n=12, grading=1.0 if order > 1 else None)
    rng = np.random.default_rng(5)
    data = rng.standard_normal((6, 3, 12))
    left, right = [None, data[0], data[1], data[2]], [data[3], data[4], data[5], None]
    f, u0 = zip(*(tabulate(w, lambda x, t: np.sin(x) * (1.0 + t), np.cos, s.nodes)
                  for s in subs))

    for flux in (False, True):
        stacked = solve_waveform(subs, w, left, right, 3, flux, f=f, u0=u0)
        assert len(stacked) == len(subs)
        for i, (sub, field) in enumerate(zip(subs, stacked)):
            assert field.shape == (3, 13, sub.n_nodes)
            one = slice(i, i + 1)
            (alone,) = solve_waveform([sub], w, left[one], right[one], 3, flux, f=f[one],
                                      u0=u0[one])
            assert np.array_equal(field, alone)
            for j in range(3):
                ends = [None if end is None else end[j:j + 1] for end in (left[i], right[i])]
                (solo,) = solve_waveform([sub], w, ends[:1], ends[1:], 1, flux, f=f[one],
                                         u0=u0[one])
                assert np.array_equal(field[j], solo[0])

    # two lines on one grid with a decay row each, as the two strips of a 2D
    # sweep march their sine modes: mode tables for the data, traces per mode
    lines = [subs[0], subs[2]]
    decay = np.array([[0.5, 3.0, 40.0], [7.0, 0.25, 1.5]])
    tables = rng.standard_normal((2, 12, 3, 9))
    starts = rng.standard_normal((2, 3, 9))
    ends = rng.standard_normal((2, 2, 2, 12, 3))  # line, side, member, level, mode
    left, right = [ends[0, 0], ends[1, 0]], [ends[0, 1], None]
    for flux in (False, True):
        stacked = solve_waveform(lines, w, left, right, 2, flux, f=tables, u0=starts,
                                 decay=decay)
        for i, field in enumerate(stacked):
            assert field.shape == (2, 13, 3, 9)
            one = slice(i, i + 1)
            (alone,) = solve_waveform(lines[one], w, left[one], right[one], 2, flux,
                                      f=tables[one], u0=starts[one], decay=decay[i])
            assert np.array_equal(field, alone)


@pytest.mark.parametrize("order", [0.6, 1.5])
def test_march_without_data_writes_its_zero_lead_in(order):
    # end values are zero before level 5 (earlier on some ends than others),
    # so a march without data is zero through level 4; it must match bit for
    # bit the march that zero initial data send down the full path.  Trace
    # and flux ends, eight members, and a line with a decay row
    subs = [build_subdomain(0.0, 1.0, 1.0, 0.125), build_subdomain(1.0, 2.0, 0.5, 0.25)]
    w = _weights(order, n=12, grading=1.0 if order > 1 else None)
    rng = np.random.default_rng(7)
    ends = rng.standard_normal((4, 8, 12))
    ends[..., :4] = 0.0
    ends[1:, :, :7] = 0.0
    left, right = [ends[0], ends[1]], [ends[2], ends[3]]
    zeros = [np.zeros(s.n_nodes) for s in subs]
    for flux in (False, True):
        skipped = solve_waveform(subs, w, left, right, 8, flux)
        full = solve_waveform(subs, w, left, right, 8, flux, u0=zeros)
        for a, b in zip(skipped, full):
            assert a.shape == (8, 13, a.shape[-1])
            assert np.all(a[:, :5] == 0.0)
            assert np.array_equal(a, b)
        assert np.any(skipped[0][:, 5] != 0.0)

    decay = np.array([0.5, 3.0, 40.0])
    trace = rng.standard_normal((8, 12, 3))
    trace[:, :6] = 0.0
    for flux in (False, True):
        (skipped,) = solve_waveform(subs[:1], w, [trace], [None], 8, flux, decay=decay)
        (full,) = solve_waveform(subs[:1], w, [trace], [None], 8, flux, u0=[np.zeros((3, 9))],
                                 decay=decay)
        assert np.all(skipped[:, :7] == 0.0)
        assert np.array_equal(skipped, full)


@pytest.mark.parametrize("modes", [0, 2], ids=["lines", "decay-rows"])
def test_march_without_data_skips_its_zero_subdomains(modes, monkeypatch):
    # five subdomains on two grids (9 and 5 nodes); the two that march are
    # 0 and 2, on one grid, with a skipped subdomain of the other grid between
    # them.  Subdomain 0's only nonzero end value is at the last level, and
    # subdomain 2's ends are nonzero for member 1 alone.  The other three have
    # zero ends (one of them a -0.0) and must come back as exact +0.0 fields
    # without entering the stack.  Each marched field must match bit for bit
    # the march that zero initial data send down the full path, with the
    # ends as traces and as fluxes
    a, b = 0.125, 0.25
    subs = [build_subdomain(0.0, 1.0, 1.0, a), build_subdomain(1.0, 2.0, 0.5, b),
            build_subdomain(2.0, 3.0, 2.0, a), build_subdomain(3.0, 4.0, 0.3, a),
            build_subdomain(4.0, 5.0, 1.5, b)]
    assert [s.n_nodes for s in subs] == [9, 5, 9, 9, 5]
    mode = () if not modes else (modes,)
    decay = None if not modes else np.linspace(0.5, 40.0, 5 * modes).reshape(5, modes)
    w = _weights(1.5, n=12, grading=1.0)
    rng = np.random.default_rng(11)
    zero = lambda: np.zeros((3, 12) + mode)  # noqa: E731
    last, member = zero(), zero()
    last[2, -1] = 1.0
    member[1] = rng.standard_normal((12,) + mode)
    negative = zero()
    negative[0, 5] = -0.0
    left = [last, negative, member, None, zero()]
    right = [zero(), zero(), 2.0 * member, None, None]

    widths = []
    stack = kernels.Stack
    monkeypatch.setattr(kernels, "Stack", lambda *a: widths.append(list(a[0])) or stack(*a))
    lines = 3 * max(modes, 1)
    zeros = [np.zeros(mode + (s.n_nodes,)) for s in subs]
    for flux in (False, True):
        widths.clear()
        skipped = solve_waveform(subs, w, left, right, 3, flux, decay=decay)
        assert widths == [[9] * (2 * lines)]
        full = solve_waveform(subs, w, left, right, 3, flux, u0=zeros, decay=decay)
        assert widths[1] == [n for s in subs for n in [s.n_nodes] * lines]

        for i, (sub, field) in enumerate(zip(subs, skipped)):
            assert field.shape == (3, 13) + mode + (sub.n_nodes,)
            assert np.array_equal(field, full[i])
            if i not in (0, 2):
                assert not np.any(field) and not np.any(np.signbit(field))
        assert np.all(skipped[0][:, :12] == 0.0) and np.any(skipped[0][2, 12] != 0.0)
        assert not np.any(skipped[2][[0, 2]]) and np.all(skipped[2][1, 1:, ..., 0] != 0.0)


def _reference_march(sub, w, left, right, f, u0, decay=0.0):
    """One line marched by solving every level afresh: the raw equations of
    all its nodes, interior rows with the Laplacian and the decay split
    between levels by the implicit fraction, end rows as given (a value or
    the one-sided outward-flux row), by a dense solve."""
    n, n_steps, theta = sub.n_nodes, w.n_steps, w.implicit_fraction
    s, c = sub.kappa / sub.dx**2, sub.kappa / (2.0 * sub.dx)
    u = np.zeros((n_steps + 1, n))
    u[0] = u0(sub.nodes)
    inner = np.arange(1, n - 1)
    for lev in range(1, n_steps + 1):
        b_row = w.rows[lev - 1]
        bnn = b_row[lev - 1]
        prev = u[lev - 1]
        a = np.zeros((n, n))
        a[inner, inner - 1] = a[inner, inner + 1] = -theta * s
        a[inner, inner] = bnn + theta * (2.0 * s + decay)
        rhs = bnn * prev - b_row[: lev - 1] @ np.diff(u[:lev], axis=0)
        rhs += f(sub.nodes, w.eval_times[lev - 1])
        rhs[inner] += (1.0 - theta) * (s * (prev[:-2] - 2.0 * prev[1:-1] + prev[2:])
                                       - decay * prev[1:-1])
        for row, inward, (kind, values) in ((0, 1, left), (n - 1, -1, right)):
            a[row] = 0.0
            if kind == "dirichlet":
                a[row, row] = 1.0
            else:
                a[row, [row, row + inward, row + 2 * inward]] = 3.0 * c, -4.0 * c, c
            rhs[row] = values[lev - 1]
        u[lev] = np.linalg.solve(a, rhs)
    return u


@pytest.mark.parametrize("order, n", [(1.5, 12), (0.5, 10), (1.0, 10)])
def test_factored_march_equals_the_march_that_never_factors(order, n):
    # the march in each line's sine basis (the factorisation of its operator,
    # built once) against a march that solves the raw equations of every
    # level afresh.  Two grids, a 3-node line, three members, a decay row per
    # subdomain, physical, trace and flux ends, a source and an initial
    # condition that satisfies no flux row, whose end values the wave
    # scheme's first level reads in its explicit half
    subs = [build_subdomain(0.0, 1.0, 1.0, 0.125), build_subdomain(1.0, 2.0, 0.5, 0.25),
            build_subdomain(2.0, 3.0, 2.0, 0.125), build_subdomain(3.0, 3.5, 0.7, 0.25)]
    assert subs[3].n_nodes == 3
    w = _weights(order, n=n, grading=1.0 if order > 1 else None)
    rng = np.random.default_rng(13)
    data = rng.standard_normal((6, 3, n, 2))
    left, right = [None, data[0], data[1], data[5]], [data[2], data[3], data[4], None]
    decay = np.array([[0.5, 3.0], [40.0, 0.25], [1.5, 7.0], [0.0, 2.0]])

    def f(x, t):
        return np.sin(x) * (1.0 + t)

    def u0(x):
        return np.cos(x) + x

    # the tables of each line, the same in both modes
    tables = [tabulate(w, f, u0, s.nodes) for s in subs]
    f_modes = [np.broadcast_to(ft[:, None], (n, 2, s.n_nodes)) for (ft, _), s in zip(tables, subs)]
    u0_modes = [np.broadcast_to(ut, (2, s.n_nodes)) for (_, ut), s in zip(tables, subs)]
    for flux in (False, True):
        fields = solve_waveform(subs, w, left, right, 3, flux, f=f_modes, u0=u0_modes,
                                decay=decay)
        for i, sub in enumerate(subs):
            kinds = ["flux" if flux and end is not None else "dirichlet"
                     for end in (left[i], right[i])]
            ends = [np.zeros((3, n, 2)) if end is None else end for end in (left[i], right[i])]
            scale = np.abs(fields[i]).max()
            for j in range(3):
                for p in range(2):
                    one = [(kind, values[j, :, p]) for kind, values in zip(kinds, ends)]
                    ref = _reference_march(sub, w, *one, f, u0, decay[i, p])
                    np.testing.assert_allclose(fields[i][j, :, p], ref, rtol=0,
                                               atol=1e-12 * scale)
                    for e, (kind, values) in zip((0, -1), one):  # a Dirichlet end is exact
                        if kind == "dirichlet":
                            assert np.array_equal(fields[i][j, 1:, p, e], values)


def test_stacked_march_takes_one_entry_per_subdomain():
    subs = [build_subdomain(0.0, 1.0, 1.0, 0.25), build_subdomain(1.0, 2.0, 1.0, 0.25)]
    with pytest.raises(ValueError, match="per subdomain"):
        solve_waveform(subs, _weights(0.5, n=4), [None], [None, None], 1)
    tables = [np.ones((4, 5)), np.full((4, 5), 2.0)]
    u = solve_waveform(subs, _weights(0.5, n=4), [None, None], [None, None], 1, f=tables)
    (alone,) = solve_waveform(subs[1:], _weights(0.5, n=4), [None], [None], 1, f=tables[1:])
    assert np.array_equal(u[1], alone)


# ---------------------------------------------------------------------------
# monolithic reference
# ---------------------------------------------------------------------------

def test_monolithic_single_subdomain_equals_dirichlet_solve():
    part = build_partition((0, 1), [], 1.0, 0.05)
    w = _weights(0.5, n=12)
    f = lambda x, t: np.sin(np.pi * x)
    mono = solve_monolithic(part, w, f=f)
    direct = march_alone(part.subdomains[0], w, None, None, f=f)
    assert np.abs(mono.field - direct).max() < 1e-13


def test_monolithic_zero_data():
    part = build_partition((0, 2), [0.7], [1.0, 2.0], 0.05)
    mono = solve_monolithic(part, _weights(1.0, n=8, grading=1.0))
    assert np.all(mono.field == 0.0)


def test_monolithic_two_material_steady_state():
    # order 1, fixed end values via a strong source ramp is awkward; instead
    # drive with constant source and compare against the discrete steady state
    # A u = f of the same operator
    part = build_partition((0, 2), [1.0], [1.0, 0.25], 0.025)
    w = caputo_weights(build_graded_mesh(60.0, 600, 1.0), 1.0)
    f = lambda x, t: np.ones_like(x)
    mono = solve_monolithic(part, w, f=f)
    final = mono.field[-1]
    # steady state: kappa u'' = -1 per subdomain with flux/value continuity
    # solved on the same mesh by a long march; verify time-independence
    drift = np.abs(mono.field[-1] - mono.field[-2]).max()
    assert drift < 1e-10
    # flux continuity at the interface in the converged state
    from fracwr.geometry import interface_flux_series

    g = mono.interface_indices[0]
    left, right = part.subdomains
    fl = interface_flux_series(final[: g + 1], "right", left)
    fr = interface_flux_series(final[g:], "left", right)
    assert abs(fl + fr) < 1e-10


def test_monolithic_interface_rows_balance_fluxes():
    from fracwr.geometry import interface_flux_series

    part = build_partition((0, 16), [3.5, 5.5, 10, 12], [0.25, 1, 0.25, 4, 1], 0.1)
    w = _weights(0.5, n=10, horizon=2.0)
    f = lambda x, t: np.sin(np.pi * x / 16)
    mono = solve_monolithic(part, w, f=f, u0=lambda x: x * (16 - x) / 64)
    bounds = [0]
    for s in part.subdomains:
        bounds.append(bounds[-1] + s.n_nodes - 1)
    for n in (3, 10):
        for m, g in enumerate(mono.interface_indices):
            sl = part.subdomains[m]
            sr = part.subdomains[m + 1]
            row = mono.field[n]
            fl = interface_flux_series(row[bounds[m] : bounds[m + 1] + 1], "right", sl)
            fr = interface_flux_series(row[bounds[m + 1] : bounds[m + 2] + 1], "left", sr)
            assert abs(fl + fr) <= 1e-9 * max(1.0, abs(fl))


def test_monolithic_heterogeneous_steps():
    part = build_partition((0, 2), [1.0], [1.0, 0.25], [0.05, 0.025])
    w = _weights(0.5, n=8)
    mono = solve_monolithic(part, w, f=lambda x, t: np.sin(np.pi * x / 2))
    assert mono.field.shape == (9, len(mono.nodes))
    assert np.isfinite(mono.field).all()


# ---------------------------------------------------------------------------
# the 2D strip sweep against sparse 5-point solves
# ---------------------------------------------------------------------------

def _sparse_strip_reference(sub, ys, weights, side, kind, values, f, u0):
    """The solve on ``sub`` times the y lattice ``ys``, assembled as one
    sparse 5-point system per time level.

    Outer boundary nodes are identity rows with zero data, interface nodes
    (corners excluded) carry the trace or the one-sided outward-flux row, and
    interior rows hold the time-stepping equation with the Laplacian split
    between levels by the scheme's implicit fraction.
    """
    nx, ny, n_steps = sub.n_nodes - 1, len(ys) - 1, weights.n_steps
    dy = (ys[-1] - ys[0]) / ny
    theta = weights.implicit_fraction
    xg, yg = np.meshgrid(sub.nodes, ys, indexing="ij")
    ids = np.arange(xg.size).reshape(xg.shape)
    inner = np.zeros(xg.shape, dtype=bool)
    inner[1:-1, 1:-1] = True
    inner = inner.ravel()

    def second_difference(m, h):
        return sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(m + 1, m + 1)) / h**2

    lap = sub.kappa * (
        sp.kron(second_difference(nx, sub.dx), sp.identity(ny + 1))
        + sp.kron(sp.identity(nx + 1), second_difference(ny, dy))
    )
    lap = (sp.diags(inner.astype(float)) @ lap).tocsr()  # interior rows only

    ifc = ids[0 if side == "left" else nx, 1:-1]
    edge = sp.lil_matrix((xg.size, xg.size))
    for g in np.nonzero(~inner)[0]:
        edge[g, g] = 1.0
    if kind == "flux":
        c = sub.kappa / (2.0 * sub.dx)
        step = ids[1, 0] if side == "left" else -ids[1, 0]
        for g in ifc:
            edge[g, g], edge[g, g + step], edge[g, g + 2 * step] = 3.0 * c, -4.0 * c, c
    fixed = edge.tocsr() - theta * lap
    mass = sp.diags(inner.astype(float))

    u = np.zeros((n_steps + 1, xg.size))
    u[0] = u0(xg, yg).ravel()
    for n in range(1, n_steps + 1):
        b_row = weights.rows[n - 1]
        rhs = b_row[n - 1] * u[n - 1] + f(xg, yg, weights.eval_times[n - 1]).ravel()
        rhs -= b_row[: n - 1] @ (u[1:n] - u[: n - 1])
        rhs += (1.0 - theta) * (lap @ u[n - 1])
        rhs[~inner] = 0.0
        rhs[ifc] = values[n - 1, 1:-1]
        u[n] = spsolve((b_row[n - 1] * mass + fixed).tocsc(), rhs)
    return u.reshape(n_steps + 1, nx + 1, ny + 1)


@functools.lru_cache(maxsize=None)
def _sweep_and_reference(order):
    """One forced ``run_nnwr_2d`` sweep and the same sweep built from sparse solves.

    Unequal kappa and dx per strip, data nonzero on every boundary row and a
    guess with nonzero endpoints.  Returns the guess, the sweep's result and
    the reference Dirichlet fields and interface flux-solve traces per strip,
    keyed by the side of the strip that faces the interface.
    """
    part = build_partition((0.0, 1.5), [0.7], [1.3, 0.4], [0.1, 0.05])
    left, right = part.subdomains
    ys = axis_nodes(-1.0, 1.2, 0.2)
    guess = np.random.default_rng(7).standard_normal((12, len(ys)))
    u0 = lambda x, y: np.cos(x) * (1.0 + y) + 0.3  # noqa: E731
    f = lambda x, y, t: np.sin(3.0 * x + y) * (1.0 + t)  # noqa: E731
    cfg = Nnwr2dConfig(partition=part, y_extent=(-1.0, 1.2), dy=0.2, order=order, horizon=1.0,
                       n_steps=12, theta=0.3, max_iter=1, mode="forced", initial_guess=guess,
                       source=f, initial_condition=u0)
    res = run_nnwr_2d(cfg, keep_fields=True)

    w = cfg.build_weights()
    zero = lambda x, *_: 0.0 * x  # noqa: E731
    u_left = _sparse_strip_reference(left, ys, w, "right", "dirichlet", guess, f, u0)
    u_right = _sparse_strip_reference(right, ys, w, "left", "dirichlet", guess, f, u0)
    c_left, c_right = left.kappa / (2.0 * left.dx), right.kappa / (2.0 * right.dx)
    mismatch = (c_left * (3.0 * u_left[1:, -1] - 4.0 * u_left[1:, -2] + u_left[1:, -3])
                + c_right * (3.0 * u_right[1:, 0] - 4.0 * u_right[1:, 1] + u_right[1:, 2]))
    psi_left = _sparse_strip_reference(left, ys, w, "right", "flux", mismatch, zero, zero)
    psi_right = _sparse_strip_reference(right, ys, w, "left", "flux", mismatch, zero, zero)
    fields = {"right": u_left, "left": u_right}
    psis = {"right": 0.3 * psi_left[1:, -1], "left": 0.3 * psi_right[1:, 0]}
    for psi in psis.values():
        psi[:, [0, -1]] = 0.0  # the trace endpoints sit on the outer boundary
    return guess, res, fields, psis


@pytest.mark.parametrize("order", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("kind", ["dirichlet", "flux"])
def test_2d_matches_sparse_five_point_reference(kind, side, order):
    # one forced sweep of the strip pair against the same sweep built from
    # sparse 5-point solves; each case checks the solve of the strip whose
    # interface is on ``side``: its Dirichlet field, or its flux solve's share
    # of the trace update (the other strip's share taken from the reference)
    guess, res, fields, psis = _sweep_and_reference(order)
    if kind == "dirichlet":
        got, ref = res.fields[0 if side == "right" else 1], fields[side]
    else:
        other = "left" if side == "right" else "right"
        got, ref = guess - res.traces - psis[other], psis[side]
        assert res.traces.shape == guess.shape
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
