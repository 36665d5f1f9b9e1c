"""The subdomain interface maps of ``fracwr.maps`` against the impulse-march oracle.

Every operator a run builds comes from the maps; the oracle
(``marching.transfer_operator``) marches a unit trace at every level of every
position through whole subdomains, as the library once built them.  Each
built block must agree with it within 1e-12 of the block's largest entry.
"""

from dataclasses import replace

import numpy as np
import pytest

import fracwr.iteration as iteration
import fracwr.maps as maps
from fracwr.dnwr import DnwrConfig, _affine as dnwr_affine
from fracwr.geometry import build_partition
from fracwr.nnwr import Nnwr2dConfig, NnwrConfig, _affine_1d, run_nnwr_2d
from marching import transfer_matrix, transfer_operator


def _close(built, oracle):
    """Every N x N block of ``built`` within 1e-12 of the oracle block's
    largest entry; a block that is zero in the oracle must be zero."""
    assert built.shape == oracle.shape
    n = oracle.shape[-1]
    for b, o in zip(built.reshape(-1, n, n), oracle.reshape(-1, n, n)):
        assert np.abs(b - o).max() <= 1e-12 * np.abs(o).max()


@pytest.mark.parametrize("n", [1, 2, 7, 12, 16, 21, 96])
def test_lower_inverse_is_the_inverse_and_stays_lower(n):
    # doubling alone (16), doubling then block substitution (12, 96), and
    # substitution of single rows (7, 21)
    rng = np.random.default_rng(n)
    m = np.tril(rng.uniform(-1.0, 0.0, (3, n, n)), -1) / n
    np.einsum("...ii->...i", m)[...] = rng.uniform(1.0, 2.0, (3, n))
    x = maps.lower_inverse(m)
    assert np.all(np.triu(x, 1) == 0.0)
    np.testing.assert_allclose(x @ m, np.broadcast_to(np.eye(n), m.shape), atol=1e-14)


@pytest.mark.parametrize("breakpoints, dx", [([1.2], [0.1, 0.04]), ([0.1], [0.05, 0.1]),
                                             ([1.9], [0.1, 0.05])],
                         ids=["graded", "three-node-left", "three-node-right"])
def test_graded_dnwr_operator_matches_the_oracle(breakpoints, dx):
    # a 3-node line has a single sine mode, on either side of the interface
    part = build_partition((0, 2), breakpoints, [1.0, 0.3], dx)
    cfg = DnwrConfig(partition=part, order=0.5, horizon=1.0, n_steps=24)
    weights = cfg.build_weights()
    assert not weights.mesh.is_uniform
    s = dnwr_affine(part.subdomains, weights).operator()
    _close(s[0, 0], transfer_matrix(part, weights))


@pytest.mark.parametrize("grading", [1.0, "auto"], ids=["uniform", "graded"])
@pytest.mark.parametrize("breakpoints, dx", [
    ([0.8], 0.1),  # two subdomains: one flux end each
    ([0.5, 1.0, 1.5], [0.125, 0.125, 0.125, 0.25]),  # inner lines with two flux ends
    ([0.5, 0.75, 1.5], [0.125, 0.125, 0.125, 0.25]),  # an inner 3-node line
], ids=["one-flux-end", "two-flux-ends", "three-node"])
def test_nnwr_phases_match_the_oracle(breakpoints, dx, grading):
    part = build_partition((0, 2), breakpoints, [1.0, 0.5, 2.0, 0.7][:len(breakpoints) + 1], dx)
    cfg = NnwrConfig(partition=part, order=0.6, horizon=1.0, n_steps=12, grading=grading)
    for phase in _affine_1d(cfg, cfg.build_weights()):
        _close(phase.operator(), transfer_operator(phase, reach=1))


def _strip_phases(monkeypatch, **over):
    cfg = Nnwr2dConfig(partition=build_partition((0, 2), [0.75], [1.0, 0.5], 0.125),
                       y_extent=(-1.0, 1.0), dy=0.25, horizon=1.0, n_steps=8, **over)
    seen = []
    build = iteration._affine_part
    monkeypatch.setattr(iteration, "_affine_part",
                        lambda cfg, phases: seen.append(phases) or build(cfg, phases))
    run_nnwr_2d(replace(cfg, max_iter=1))
    return seen[0]


@pytest.mark.parametrize("order, grading", [(1.5, 1.0), (0.5, "auto")], ids=["wave", "graded"])
def test_each_strip_mode_matches_the_oracle(order, grading, monkeypatch):
    # the y-modes are the positions, each line shifted by its decay
    for phase in _strip_phases(monkeypatch, order=order, grading=grading):
        built = phase.operator()
        assert built.shape == (1, 7, 8, 8)
        _close(built, transfer_operator(phase))


def test_a_mode_block_need_not_divide_the_line_count(monkeypatch):
    # 11 + 19 lines in blocks of 7: blocks straddle the two subdomains and
    # the last is short; the kernels must not depend on the block
    part = build_partition((0, 2), [1.2], [1.0, 0.3], [0.1, 0.04])
    weights = DnwrConfig(partition=part, order=0.5, horizon=1.0, n_steps=16).build_weights()
    default = maps.interface_maps(part.subdomains, weights)
    monkeypatch.setattr(maps, "MODE_BLOCK", 7)
    small = maps.interface_maps(part.subdomains, weights)
    for a, b in zip(default, small):
        np.testing.assert_allclose(a, b, rtol=1e-13, atol=1e-15)
    _close(maps.dnwr_operator(small)[0, 0], transfer_matrix(part, weights))
