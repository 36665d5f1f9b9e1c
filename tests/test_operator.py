"""The assembled sweep operators of ``fracwr.iteration`` on uniform time meshes.

On a uniform mesh every driver's sweep is a product with the operators of
its phases, each built from a few impulse marches (DNWR has one phase,
NNWR a Dirichlet and a Neumann phase).  Its iterates must be those of
marching every sweep, and a member's bits must not depend on its companions.
"""

from collections import Counter
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

import fracwr.iteration as iteration
import fracwr.nnwr as nnwr
from fracwr import kernels
from fracwr.dnwr import DnwrConfig, _affine as dnwr_affine, run_dnwr
from fracwr.geometry import build_partition, interface_flux_series
from fracwr.iteration import toeplitz_operator, transfer_operator
from fracwr.nnwr import Nnwr2dConfig, NnwrConfig, _affine_1d, run_nnwr_1d, run_nnwr_2d
from marching import march_alone, transfer_matrix


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
    builds = []
    for name in ("toeplitz_operator", "transfer_operator"):
        monkeypatch.setattr(iteration, name, lambda *a, name=name, build=getattr(iteration, name):
                            builds.append(name) or build(*a))
    return builds


def _graded_dnwr(mode="error_equation"):
    return DnwrConfig(partition=build_partition((0, 2), [1.2], [1.0, 0.3], [0.2, 0.1]),
                      order=0.5, horizon=1.0, n_steps=64, tolerance=1e-300, max_iter=20,
                      mode=mode, **_forced(mode))


# the cost of a build in phase marches, per phase: min(positions, 2 reach + 1)
# impulse marches on a uniform mesh, plus one for c in forced mode if the
# phase has data, and ceil(N/4) for an error-equation DNWR run on a graded
# mesh.  A sweep is one phase march per phase: NNWR's two phases of reach 1
# cost 6 marches (7 forced), which 3 sweeps do not exceed and 4 do
@pytest.mark.parametrize("make, mode, run, built, cost", [
    (_dnwr, "error_equation", run_dnwr, ["toeplitz_operator"], 1),
    (_dnwr, "forced", run_dnwr, ["toeplitz_operator"], 2),
    (_nnwr, "error_equation", run_nnwr_1d, ["toeplitz_operator"] * 2, 3),
    (_nnwr, "forced", run_nnwr_1d, ["toeplitz_operator"] * 2, 3),
    (_graded_dnwr, "error_equation", run_dnwr, ["transfer_operator"], 16),
], ids=["dnwr", "dnwr-forced", "nnwr1d", "nnwr1d-forced", "dnwr-graded"])
def test_an_operator_is_built_only_when_max_iter_exceeds_its_cost(make, mode, run, built,
                                                                   cost, monkeypatch):
    builds = _count_builds(monkeypatch)
    marched = run(replace(make(mode=mode), max_iter=cost))
    assert builds == []
    product = run(replace(make(mode=mode), max_iter=cost + 1))
    assert builds == built
    assert marched.report.iterations == cost and product.report.iterations == cost + 1
    np.testing.assert_allclose(product.report.errors[:cost], marched.report.errors,
                               rtol=1e-11, atol=1e-13)


def test_graded_forced_dnwr_and_graded_nnwr_march_every_sweep(monkeypatch):
    builds = _count_builds(monkeypatch)
    run_dnwr(replace(_graded_dnwr("forced"), max_iter=20))
    run_nnwr_1d(replace(_nnwr(0.5), grading=2.0, max_iter=10))
    assert builds == []


@pytest.mark.parametrize("order", [0.6, 1.0, 1.5], ids=["l1", "classical", "wave"])
def test_toeplitz_build_equals_the_full_impulse_build(order):
    cfg = _dnwr(order)
    weights = cfg.build_weights()
    s = transfer_matrix(cfg.partition, weights)
    t = toeplitz_operator(dnwr_affine(cfg.partition.subdomains, weights), weights.mesh)
    assert t.shape == (1, 1, 16, 16)
    assert np.abs(t[0, 0] - s).max() <= 1e-14 * np.abs(s).max()
    # both builds come from one impulse routine, and a march's bits do not
    # depend on the members beside it (one here, a chunk in the full build)
    np.testing.assert_array_equal(t[0, 0, :, 0], s[:, 0])

    cfg = _nnwr(order)
    weights = cfg.build_weights()
    for phase in _affine_1d(cfg, weights):
        full = transfer_operator(phase)
        t = toeplitz_operator(phase, weights.mesh)
        assert t.shape == full.shape == (3, 6, 12, 12)  # offsets, then positions
        assert np.abs(t - full).max() <= 1e-14 * np.abs(full).max()
        np.testing.assert_array_equal(t[..., 0], full[..., 0])


def test_toeplitz_build_is_refused_on_a_graded_mesh():
    cfg = replace(_dnwr(0.5), grading="auto")
    weights = cfg.build_weights()
    with pytest.raises(ValueError, match="uniform"):
        toeplitz_operator(dnwr_affine(cfg.partition.subdomains, weights), weights.mesh)
    cfg = replace(_nnwr(0.5), grading=2.0)
    weights = cfg.build_weights()
    for phase in _affine_1d(cfg, weights):
        with pytest.raises(ValueError, match="uniform"):
            toeplitz_operator(phase, weights.mesh)


def test_nnwr_operator_is_zero_outside_the_band():
    # with a reach as wide as the partition each impulse group has one
    # source, so every block is the response to one interface alone; each
    # phase couples an interface to its neighbours only
    cfg = _nnwr(0.6)
    weights = cfg.build_weights()
    for phase in _affine_1d(cfg, weights):
        wide = replace(phase, reach=5)
        for blocks in (transfer_operator(wide), toeplitz_operator(wide, weights.mesh)):
            assert blocks.shape == (11, 6, 12, 12)
            for q in range(6):
                for offset in range(-5, 6):
                    block = blocks[offset + 5, q]
                    if abs(offset) > 1 or not 0 <= q + offset < 6:
                        assert np.all(block == 0.0)
                    else:
                        assert np.all(np.diag(block) != 0.0)
        # the banded build holds the same blocks
        band = transfer_operator(phase)
        np.testing.assert_array_equal(band, transfer_operator(wide)[4:7])


def test_nnwr_impulse_marches_stack_only_the_subdomains_they_reach(monkeypatch):
    # the eight subdomains and kappas of the sweeps-1d NNWR-1D config, at
    # dx 0.25.  In each phase three impulse groups of the seven interfaces
    # (0, 3 and 6; 1 and 4; 2 and 5) reach subdomains i and i+1 of each
    # interface i, 6 + 4 + 4 = 14 blocks of the 3 x 8 = 24 of the full path;
    # the other subdomains are not marched.  Their zero fields must give the
    # operators of the full path, bit for bit
    half = [4.0 ** (-i) for i in range(4)]
    part = build_partition((0, 16), [2.0 * i for i in range(1, 8)], half + half[::-1], 0.25)
    cfg = NnwrConfig(partition=part, order=1.53, horizon=4.0, n_steps=16, grading=1.0,
                     max_iter=40, mode="forced", source=_source,
                     initial_condition=lambda x: x * (16.0 - x))
    weights = cfg.build_weights()

    blocks, state = Counter(), {"phase": None, "full": False}
    stack = kernels.Stack

    def count(widths, *args):
        blocks[state["phase"]] += len(widths)
        return stack(widths, *args)

    monkeypatch.setattr(kernels, "Stack", count)
    for name in ("solve_dirichlet_waveform", "solve_neumann_waveform"):
        def solve(subs, *args, phase=name.split("_")[1], march=getattr(nnwr, name), u0=None,
                  **kw):
            state["phase"] = phase
            if state["full"] and u0 is None:  # zero initial data: the full path
                u0 = [np.zeros(s.n_nodes) for s in subs]
            return march(subs, *args, u0=u0, **kw)

        monkeypatch.setattr(nnwr, name, solve)

    def build(full):
        state["full"] = full
        blocks.clear()
        ops = np.array([toeplitz_operator(p, weights.mesh) for p in _affine_1d(cfg, weights)])
        return ops, dict(blocks)

    skipped, counts = build(full=False)
    assert counts == {"dirichlet": 14, "neumann": 14}
    full, counts = build(full=True)
    assert counts == {"dirichlet": 24, "neumann": 24}
    assert skipped.shape == (2, 3, 7, 16, 16)
    assert np.array_equal(skipped, full)
    assert np.array_equal(np.signbit(skipped), np.signbit(full))


def _march_phases(phases, x):
    """The phases marched in turn, with the data: one marched sweep's affine part."""
    for phase in phases:
        x = phase.march(x, True)
    return x


def test_a_forced_nnwr_build_marches_each_phase_once_per_impulse_group(monkeypatch):
    # six interfaces of reach 1 in each phase: three impulse groups per phase,
    # and one data march for the Dirichlet phase's c; the data-free Neumann
    # phase has no c.  Product sweeps march nothing; keep_fields adds one
    # Dirichlet march, after the last sweep
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
    expected = {"solve_dirichlet_waveform": 4, "solve_neumann_waveform": 3}
    assert at_build == [expected] and calls == expected
    calls.clear()
    run_nnwr_1d(_nnwr(mode="forced"), keep_fields=True)
    assert calls == {"solve_dirichlet_waveform": 4 + 1, "solve_neumann_waveform": 3}


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
    # one build per phase, before the first sweep
    assert builds == ["toeplitz_operator"] * (1 if driver == "dnwr" else 2)
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
    assert builds == ["toeplitz_operator"] * 2  # the Dirichlet and the Neumann phase
    monkeypatch.setattr(iteration, "_affine_part",
                        lambda cfg, phases: partial(_march_phases, phases))
    marched = run_nnwr_2d(cfg, members=members)
    assert builds == ["toeplitz_operator"] * 2
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
    # on the uniform mesh both runs exceed the build's cost, so both apply
    # the operators; on the graded mesh every forced sweep marches
    uniform = replace(make(mode="forced"), theta="optimal", max_iter=5)
    graded = replace(make(0.5, "forced"), theta="optimal", max_iter=5, grading=2.0)
    builds = _count_builds(monkeypatch)
    for cfg, built in ((uniform, 1 if driver == "dnwr" else 2), (graded, 0)):
        builds.clear()
        res = run(cfg, keep_fields=True)
        assert len(builds) == built
        start = run(replace(cfg, max_iter=4)).traces  # the trace sweep 5 starts from
        weights = cfg.build_weights()
        subs = cfg.partition.subdomains
        traces = [None, start, None] if driver == "dnwr" else [None, *start, None]
        assert len(res.fields) == len(subs)
        for sub, a, b, u in zip(subs, traces[:-1], traces[1:], res.fields):
            expected = march_alone(sub, weights, a, b, f=cfg.source, u0=cfg.initial_condition)
            assert np.array_equal(u, expected)
            if driver == "dnwr":
                break  # the second DNWR field is the Neumann solve's
