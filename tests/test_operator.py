"""The assembled sweep operators of ``fracwr.iteration``.

Every driver's sweep is, where ``max_iter`` repays the build, a product with
the operators of its phases, built from the subdomains' interface maps
(``fracwr.maps``; DNWR has one phase, NNWR a Dirichlet and a Neumann
phase).  Its iterates must be those of marching every sweep, its operators
those of the impulse-march oracle (``marching.transfer_operator``), and a
member's bits must not depend on its companions.
"""

from collections import Counter
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

import fracwr.iteration as iteration
import fracwr.maps as maps
import fracwr.nnwr as nnwr
from fracwr import harness
from fracwr.dnwr import DnwrConfig, _affine as dnwr_affine, run_dnwr
from fracwr.geometry import build_partition, interface_flux_series
from fracwr.nnwr import Nnwr2dConfig, NnwrConfig, _affine_1d, run_nnwr_1d, run_nnwr_2d
from fracwr.solver import solve_waveform, tabulate
from marching import march_alone, transfer_matrix, transfer_operator


def _source(x, t):
    return np.sin(np.pi * x / 3.0) * (1.0 + t)


def _forced(mode):
    return {} if mode == "error_equation" else {
        "source": _source, "initial_condition": lambda x: x * (3.0 - x)}


def _dnwr(order=1.5, mode="error_equation"):
    return DnwrConfig(partition=build_partition((0, 2), [1.2], [1.0, 0.3], [0.1, 0.04]),
                      order=order, horizon=1.0, n_steps=16, grading=1.0, tolerance=1e-300,
                      max_iter=10, mode=mode, **_forced(mode))


def _nnwr(order=1.5, mode="error_equation"):
    # seven subdomains, so that some interfaces lie more than two apart
    part = build_partition((0, 3), [0.5, 1.0, 1.25, 1.75, 2.25, 2.5],
                           [1.0, 0.5, 2.0, 1.0, 0.25, 1.0, 0.5], 0.125)
    return NnwrConfig(partition=part, order=order, horizon=1.0, n_steps=12, grading=1.0,
                      tolerance=1e-300, max_iter=8, mode=mode, **_forced(mode))


def _nnwr2d(mode="error_equation"):
    extra = {} if mode == "error_equation" else {
        "source": lambda x, y, t: np.sin(np.pi * x / 2.0) * np.cos(y),
        "initial_condition": lambda x, y: x * (2.0 - x) * np.exp(-y**2)}
    return Nnwr2dConfig(partition=build_partition((0, 2), [0.75], [1.0, 0.5], 0.125),
                        y_extent=(-1.0, 1.0), dy=0.25, order=1.5, horizon=1.0, n_steps=8,
                        tolerance=1e-300, max_iter=6, mode=mode, **extra)


def _count_builds(monkeypatch):
    """One entry per build of the subdomain maps, which serves every phase of a run."""
    builds = []
    monkeypatch.setattr(maps, "interface_maps", lambda *a, build=maps.interface_maps:
                        builds.append("interface_maps") or build(*a))
    return builds


def _graded_dnwr(mode="error_equation"):
    return DnwrConfig(partition=build_partition((0, 2), [1.2], [1.0, 0.3], [0.2, 0.1]),
                      order=0.5, horizon=1.0, n_steps=64, tolerance=1e-300, max_iter=20,
                      mode=mode, **_forced(mode))


def _graded_nnwr(mode="error_equation"):
    return replace(_nnwr(0.5, mode), grading=2.0)


# the most sweeps that march: the maps cost one march of a phase on a
# uniform mesh and on these small graded ones (the graded cost, 2.2 (lines
# N / 6400)**0.6, is below one at 12 lines and N = 64, or 17 lines and
# N = 12), the check of each phase's operator one march more, and forced
# mode one march with the data for each phase with data (the Dirichlet one).
# A sweep is one march per phase, two for NNWR, so an error-equation NNWR
# run builds from max_iter 2
@pytest.mark.parametrize("make, mode, run, sweeps", [
    (_dnwr, "error_equation", run_dnwr, 2),
    (_dnwr, "forced", run_dnwr, 3),
    (_nnwr, "error_equation", run_nnwr_1d, 1),
    (_nnwr, "forced", run_nnwr_1d, 2),
    (_graded_dnwr, "error_equation", run_dnwr, 2),
    (_graded_dnwr, "forced", run_dnwr, 3),
    (_graded_nnwr, "error_equation", run_nnwr_1d, 1),
    (_graded_nnwr, "forced", run_nnwr_1d, 2),
], ids=["dnwr", "dnwr-forced", "nnwr1d", "nnwr1d-forced", "dnwr-graded", "dnwr-graded-forced",
        "nnwr1d-graded", "nnwr1d-graded-forced"])
def test_an_operator_is_built_only_when_max_iter_exceeds_its_cost(make, mode, run, sweeps,
                                                                   monkeypatch):
    builds = _count_builds(monkeypatch)
    marched = run(replace(make(mode=mode), max_iter=sweeps))
    assert builds == [] and marched.report.iterations == sweeps
    product = run(replace(make(mode=mode), max_iter=sweeps + 1))
    assert builds == ["interface_maps"]
    assert product.report.iterations == sweeps + 1
    # every sweep of the product run against the same sweeps marched
    monkeypatch.setattr(iteration, "_affine_part",
                        lambda cfg, phases: partial(_march_phases, phases))
    marched = run(replace(make(mode=mode), max_iter=sweeps + 1))
    np.testing.assert_allclose(product.report.errors, marched.report.errors,
                               rtol=1e-11, atol=1e-13)


@pytest.mark.parametrize("driver", ["dnwr", "nnwr1d"])
@pytest.mark.parametrize("error, raises", [(1e-6, True), (1e-11, False)])
def test_a_build_is_checked_against_a_march(driver, error, raises, monkeypatch):
    # the left subdomain's X off by one part in 1e6 makes every phase's
    # operator depart from the march of a unit trace; one part in 1e11 stays
    # within the check
    make, run = {"dnwr": (_dnwr, run_dnwr), "nnwr1d": (_nnwr, run_nnwr_1d)}[driver]

    def off(*args, build=maps.interface_maps):
        x, y, c = build(*args)
        x = x.copy()
        x[0] *= 1.0 + error
        return x, y, c

    monkeypatch.setattr(maps, "interface_maps", off)
    if raises:
        with pytest.raises(ArithmeticError, match="departs from the march"):
            run(make())
    else:
        assert run(make()).report.iterations == make().max_iter


def _preset_phases(name, monkeypatch):
    """The phases that the driver of preset ``name`` hands to the operator path."""
    seen = []
    monkeypatch.setattr(iteration, "_affine_part",
                        lambda cfg, phases: seen.append(phases) or partial(_march_phases, phases))
    exp = harness.preset_config(name)[0]
    run = {"dnwr": run_dnwr, "nnwr1d": run_nnwr_1d, "nnwr2d": run_nnwr_2d}[exp.algorithm]
    run(replace(exp.run, max_iter=1))
    return exp.run, seen[0]


@pytest.mark.parametrize("name, lines, builds", [
    ("fig_dnwr_theta_sweep", 98, True), ("fig_nnwr_unequal", 795, True), ("fig_2d", 4802, False),
])
def test_graded_presets_build_but_the_strip_marches_every_sweep(name, lines, builds,
                                                                monkeypatch):
    # the cost of a graded build grows with its lines and steps: the graded
    # 1D presets repay theirs many times over, while the strip's 49 y-modes
    # of 98 x-lines cost more than the sweeps after its first
    cfg, phases = _preset_phases(name, monkeypatch)
    cost = sum(phase.cost for phase in phases)
    assert cost == 2.2 * (lines * cfg.n_steps / 6400.0) ** 0.6
    assert ((cfg.max_iter - 1) * len(phases) > cost) == builds


@pytest.mark.parametrize("order", [0.6, 1.0, 1.5], ids=["l1", "classical", "wave"])
def test_toeplitz_build_equals_the_full_impulse_build(order):
    # on a uniform mesh the maps are Toeplitz, from one recurrence over the
    # levels; the oracle marches a unit trace at every level
    cfg = _dnwr(order)
    weights = cfg.build_weights()
    s = transfer_matrix(cfg.partition, weights)
    t = dnwr_affine(cfg.partition.subdomains, weights).operator()
    assert t.shape == (1, 1, 16, 16)
    assert np.abs(t[0, 0] - s).max() <= 1e-14 * np.abs(s).max()

    cfg = _nnwr(order)
    weights = cfg.build_weights()
    for phase in _affine_1d(cfg, weights):
        full = transfer_operator(phase, reach=1)
        t = phase.operator()
        assert t.shape == full.shape == (3, 6, 12, 12)  # offsets, then positions
        assert np.abs(t - full).max() <= 1e-14 * np.abs(full).max()


def test_nnwr_operator_is_zero_outside_the_band():
    # with a reach as wide as the partition each impulse group of the oracle
    # has one source, so every block is the response to one interface alone;
    # each phase couples an interface to its neighbours only
    cfg = _nnwr(0.6)
    weights = cfg.build_weights()
    for phase in _affine_1d(cfg, weights):
        wide = transfer_operator(phase, reach=5)
        assert wide.shape == (11, 6, 12, 12)
        for q in range(6):
            for offset in range(-5, 6):
                block = wide[offset + 5, q]
                if abs(offset) > 1 or not 0 <= q + offset < 6:
                    assert np.all(block == 0.0)
                else:
                    assert np.all(np.diag(block) != 0.0)
        # the built band holds the same blocks, and zeros past the ends
        band = phase.operator()
        assert np.abs(band - wide[4:7]).max() <= 1e-12 * np.abs(band).max()
        assert np.all(band[0, 0] == 0.0) and np.all(band[2, -1] == 0.0)


def _march_phases(phases, xs):
    """The phases marched in turn, with the data, for each member's traces
    ``xs[i]``: one marched sweep's affine part."""
    ys = []
    for x in xs:
        for phase in phases:
            x = phase.march(x, True)
        ys.append(x)
    return np.array(ys)


def test_a_forced_nnwr_build_marches_its_data_and_one_check_per_phase(monkeypatch):
    # the maps build both phases' operators without a march, and one march of
    # a unit trace checks each; forced mode adds one Dirichlet march with the
    # data for its c, and the data-free Neumann phase has none.  Product
    # sweeps march nothing; keep_fields adds one Dirichlet march, after the
    # last sweep
    calls, at_build = Counter(), []
    for name in ("solve_dirichlet_waveform", "solve_neumann_waveform"):
        monkeypatch.setattr(nnwr, name, lambda *a, name=name, march=getattr(nnwr, name), **kw:
                            calls.update([name]) or march(*a, **kw))
    affine_part = iteration._affine_part

    def build(*args):
        part = affine_part(*args)
        at_build.append(dict(calls))
        return part

    monkeypatch.setattr(iteration, "_affine_part", build)
    res = run_nnwr_1d(_nnwr(mode="forced"))
    assert res.report.iterations == 8
    expected = {"solve_dirichlet_waveform": 1 + 1, "solve_neumann_waveform": 1}
    assert at_build == [expected] and calls == expected
    calls.clear()
    run_nnwr_1d(_nnwr(mode="forced"), keep_fields=True)
    assert calls == {"solve_dirichlet_waveform": 2 + 1, "solve_neumann_waveform": 1}


def _phases_2d(cfg, monkeypatch):
    """The phases that ``run_nnwr_2d`` hands to the operator path for ``cfg``."""
    phases = []
    build = iteration._affine_part
    monkeypatch.setattr(iteration, "_affine_part",
                        lambda cfg, p: phases.append(p) or build(cfg, p))
    run_nnwr_2d(replace(cfg, max_iter=1))
    return phases[0]


@pytest.mark.parametrize("mode", ["error_equation", "forced"])
@pytest.mark.parametrize("driver", ["nnwr1d", "nnwr2d"])
def test_phase_operators_applied_in_turn_match_a_marched_sweep(driver, mode, monkeypatch):
    if driver == "nnwr1d":
        cfg = _nnwr(mode=mode)
        phases = _affine_1d(cfg, cfg.build_weights())
    else:
        cfg = _nnwr2d(mode)
        phases = _phases_2d(cfg, monkeypatch)
    product = iteration._affine_part(cfg, phases)
    x = np.random.default_rng(3).standard_normal((2,) + phases[0].shape)
    y = product(x)
    expected = _march_phases(phases, x)
    assert np.abs(y - expected).max() <= 1e-12 * np.abs(expected).max()


def _dnwr_by_hand(cfg, theta):
    weights = cfg.build_weights()
    sub1, sub2 = cfg.partition.subdomains
    data = {"f": cfg.source, "u0": cfg.initial_condition}
    h, errs = np.ones(cfg.n_steps), []
    for _ in range(cfg.max_iter):
        u1 = march_alone(sub1, weights, None, h, **data)
        flux = interface_flux_series(u1[1:], "right", sub1)
        u2 = march_alone(sub2, weights, -flux, None, flux=True, **data)
        h_new = theta * u2[1:, 0] + (1 - theta) * h
        errs.append([np.abs(h_new if cfg.error_mode else h_new - h).max()])
        h = h_new
    return np.array(errs), h


def _nnwr_by_hand(cfg, theta):
    weights = cfg.build_weights()
    subs = cfg.partition.subdomains
    data = {"f": cfg.source, "u0": cfg.initial_condition}
    h, errs = np.ones((len(subs) - 1, cfg.n_steps)), []
    for _ in range(cfg.max_iter):
        traces = [None, *h, None]
        u = [march_alone(s, weights, a, b, **data)
             for s, a, b in zip(subs, traces[:-1], traces[1:])]
        fluxes = [None] + [interface_flux_series(u[i][1:], "right", subs[i])
                           + interface_flux_series(u[i + 1][1:], "left", subs[i + 1])
                           for i in range(len(subs) - 1)] + [None]
        c = [march_alone(s, weights, a, b, flux=True)
             for s, a, b in zip(subs, fluxes[:-1], fluxes[1:])]
        update = theta[:, None] * np.array([c[i][1:, -1] + c[i + 1][1:, 0]
                                            for i in range(len(subs) - 1)])
        errs.append(np.abs(h - update if cfg.error_mode else update).max(axis=1))
        h = h - update
    return np.array(errs), h


@pytest.mark.parametrize("mode", ["error_equation", "forced"])
@pytest.mark.parametrize("driver", ["dnwr", "nnwr1d"])
def test_uniform_iterates_match_sweeps_marched_by_hand(driver, mode, monkeypatch):
    make, run, by_hand = {"dnwr": (_dnwr, run_dnwr, _dnwr_by_hand),
                          "nnwr1d": (_nnwr, run_nnwr_1d, _nnwr_by_hand)}[driver]
    cfg = make(mode=mode)
    builds = _count_builds(monkeypatch)
    members = [0.2, "optimal", 0.7]
    results = run(cfg, members=members)
    # one build of the maps serves every phase, before the first sweep
    assert builds == ["interface_maps"]
    for member, res in zip(members, results):
        errs, h = by_hand(cfg, cfg.resolve_theta(member))
        assert res.report.iterations == cfg.max_iter
        # a forced update is a difference of O(1) traces: absolute digits
        atol = 1e-15 if cfg.error_mode else 1e-13
        np.testing.assert_allclose(res.report.errors, errs, rtol=1e-12, atol=atol)
        np.testing.assert_allclose(res.traces, h, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("mode", ["error_equation", "forced"])
def test_uniform_2d_iterates_match_marched_sweeps(mode, monkeypatch):
    # the reference run marches every sweep in mode space
    cfg = _nnwr2d(mode)
    members = [0.2, "optimal"]
    builds = _count_builds(monkeypatch)
    results = run_nnwr_2d(cfg, members=members)
    assert builds == ["interface_maps"]  # for the Dirichlet and the Neumann phase
    monkeypatch.setattr(iteration, "_affine_part",
                        lambda cfg, phases: partial(_march_phases, phases))
    marched = run_nnwr_2d(cfg, members=members)
    assert builds == ["interface_maps"]
    atol = 1e-15 if cfg.error_mode else 1e-13
    for res, ref in zip(results, marched):
        assert res.report.iterations == ref.report.iterations == cfg.max_iter
        np.testing.assert_allclose(res.report.errors, ref.report.errors, rtol=1e-12, atol=atol)
        np.testing.assert_allclose(res.traces, ref.traces, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("mode", ["error_equation", "forced"])
@pytest.mark.parametrize("make, run", [(_dnwr, run_dnwr), (_nnwr, run_nnwr_1d),
                                       (_nnwr2d, run_nnwr_2d)], ids=["dnwr", "nnwr1d", "nnwr2d"])
def test_product_sweeps_of_a_member_are_the_same_alone_and_in_a_batch(make, run, mode):
    cfg = replace(make(mode=mode), tolerance=1e-9)
    members = [0.1, "optimal", 0.6]
    batch = run(cfg, members=members)
    for member, got in zip(members, batch):
        alone = run(replace(cfg, theta=member))
        assert np.array_equal(got.report.errors, alone.report.errors)
        assert np.array_equal(got.traces, alone.traces)
        assert got.report.converged == alone.report.converged


@pytest.mark.parametrize("driver", ["dnwr", "nnwr1d"])
def test_kept_fields_of_a_product_sweep_march_the_trace_it_starts_from(driver, monkeypatch):
    make, run = {"dnwr": (_dnwr, run_dnwr), "nnwr1d": (_nnwr, run_nnwr_1d)}[driver]
    # five sweeps exceed the build's cost on both meshes, so these runs apply
    # the operators; the last run marches every sweep
    uniform = replace(make(mode="forced"), theta="optimal", max_iter=5)
    graded = replace(make(0.5, "forced"), theta="optimal", max_iter=5, grading=2.0)
    builds = _count_builds(monkeypatch)
    for cfg, built in ((uniform, 1), (graded, 1), (uniform, 0)):
        builds.clear()
        if not built:
            monkeypatch.setattr(iteration, "_affine_part",
                                lambda cfg, phases: partial(_march_phases, phases))
        res = run(cfg, keep_fields=True)
        assert len(builds) == built
        start = run(replace(cfg, max_iter=4)).traces  # the trace sweep 5 starts from
        weights = cfg.build_weights()
        subs = cfg.partition.subdomains
        assert len(res.fields) == len(subs)
        if driver == "dnwr":  # the second DNWR field is the Neumann solve's
            expected = [march_alone(subs[0], weights, None, start, f=cfg.source,
                                    u0=cfg.initial_condition)]
        else:  # one Dirichlet march over every subdomain, as the sweep's phase
            traces = [None, *start, None]
            f, u0 = zip(*(tabulate(weights, cfg.source, cfg.initial_condition, sub.nodes)
                          for sub in subs))
            expected = solve_waveform(subs, weights, traces[:-1], traces[1:], f=f, u0=u0)
        for u, ref in zip(res.fields, expected):
            assert np.array_equal(u, ref)
