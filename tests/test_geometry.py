import math

import numpy as np
import pytest

from fracwr.geometry import (
    axis_nodes,
    build_partition,
    build_subdomain,
    interface_flux_series,
)
from fracwr.nnwr import Nnwr2dConfig


def _strip(dy, y_extent=(-1.0, 1.0)):
    return Nnwr2dConfig(partition=build_partition((0, 2), [0.5], 1.0, 0.1), y_extent=y_extent,
                        dy=dy, order=0.5, horizon=1.0, n_steps=4)


def test_partition_five_subdomains():
    part = build_partition((0, 16), [3.5, 5.5, 10, 12], 1.0, 0.01)
    assert part.n_subdomains == 5
    assert part.interfaces == (3.5, 5.5, 10.0, 12.0)
    assert sum(s.length for s in part.subdomains) == pytest.approx(16.0, abs=0)
    for left, right in zip(part.subdomains, part.subdomains[1:]):
        assert left.x_right == right.x_left
        assert left.nodes[-1] == right.nodes[0]


def test_scaled_lengths():
    part = build_partition((0, 2), [1.0], [1.0, 0.25], 0.02)
    assert part.subdomains[0].scaled_length == pytest.approx(1.0)
    assert part.subdomains[1].scaled_length == pytest.approx(2.0)


def test_single_subdomain_partition():
    part = build_partition((0, 1), [], 2.0, 0.1)
    assert part.n_subdomains == 1
    assert part.interfaces == ()


def test_partition_rejects():
    with pytest.raises(ValueError):
        build_partition((0, 2), [2.5], 1.0, 0.1)  # breakpoint outside
    with pytest.raises(ValueError):
        build_partition((0, 2), [1.0], [1.0, -1.0], 0.1)  # kappa <= 0
    with pytest.raises(ValueError):
        build_partition((0, 2), [1.0], 1.0, 0.3)  # dx does not tile
    with pytest.raises(ValueError):
        build_partition((0, 2), [1.0, 0.5], 1.0, 0.1)  # not increasing


@pytest.mark.parametrize("build", [
    lambda: build_subdomain(0.0, 1e308, 1.0, 0.02),
    lambda: _strip(0.5, y_extent=(-1e308, 1e308)),
], ids=["1d", "2d-y"])
def test_non_finite_cell_count_is_a_value_error(build):
    with pytest.raises(ValueError, match="non-finite cell count"):
        build()


@pytest.mark.parametrize("build", [
    lambda: build_partition((0, 2), [1.0], 1.0, 0.0),
    lambda: _strip(0.0),
], ids=["partition-dx", "2d-dy"])
def test_zero_step_is_a_value_error(build):
    with pytest.raises(ValueError, match="positive and finite"):
        build()


def test_flux_exact_on_polynomials():
    sub = build_subdomain(0.0, 1.0, 2.0, 0.1)
    x = sub.nodes
    assert interface_flux_series(x, "right", sub) == pytest.approx(2.0, rel=1e-12)
    assert interface_flux_series(x**2, "right", sub) == pytest.approx(2.0 * 2.0, rel=1e-10)
    constant = np.full_like(x, 3.3)
    assert interface_flux_series(constant, "right", sub) == pytest.approx(0.0, abs=1e-12)
    # outward normal at the left end points in -x
    assert interface_flux_series(x, "left", sub) == pytest.approx(-2.0, rel=1e-12)


def test_flux_series_matches_scalar():
    sub = build_subdomain(0.0, 1.0, 1.5, 0.25)
    rows = np.vstack([sub.nodes, sub.nodes**2])
    series = interface_flux_series(rows, "right", sub)
    assert series[0] == pytest.approx(interface_flux_series(rows[0], "right", sub))
    assert series[1] == pytest.approx(interface_flux_series(rows[1], "right", sub))


def test_flux_consistency_order_two():
    # outward fluxes from both sides of an interface cancel at order >= 2
    mism = []
    steps = (0.1, 0.05, 0.025, 0.0125)
    for dx in steps:
        left = build_subdomain(0.0, 1.0, 1.0, dx)
        right = build_subdomain(1.0, 2.0, 1.0, dx)
        m = (interface_flux_series(np.sin(left.nodes), "right", left)
             + interface_flux_series(np.sin(right.nodes), "left", right))
        mism.append(abs(m))
    orders = np.log2(np.array(mism[:-1]) / np.array(mism[1:]))
    assert orders.min() > 1.9


def test_heterogeneous_steps_accepted():
    part = build_partition((0, 2), [1.0], [1.0, 0.25], [0.01, 0.005])
    assert part.subdomains[0].dx == pytest.approx(0.01)
    assert part.subdomains[1].dx == pytest.approx(0.005)


def test_subdomain_2d_lattice():
    # the strip's left subdomain times its y lattice, as fig_2d builds them
    sub = build_partition((0, 2), [0.5], 1.0, 0.02).subdomains[0]
    ys = axis_nodes(-5.0, 5.0, 0.2)
    assert sub.n_nodes == 26 and len(ys) == 51
    assert sub.nodes[0] == 0.0 and sub.nodes[-1] == 0.5
    assert ys[0] == -5.0 and ys[-1] == 5.0
    assert (ys[-1] - ys[0]) / 50 == (5.0 - -5.0) / 50
    with pytest.raises(ValueError):
        build_partition((0, 2), [0.5], 1.0, 0.3)
    with pytest.raises(ValueError, match="does not tile"):
        axis_nodes(-5.0, 5.0, 0.3)
