import math

import numpy as np
import pytest

from fracwr.geometry import (
    build_partition,
    build_subdomain,
    build_subdomain_2d,
    interface_flux,
    interface_flux_series,
    laplacian_apply,
)


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
    lambda: build_subdomain_2d(0.0, 1e308, -1.0, 1.0, 1.0, 0.02, 0.5),
    lambda: build_subdomain_2d(0.0, 1.0, -1e308, 1e308, 1.0, 0.5, 0.5),
], ids=["1d", "2d-x", "2d-y"])
def test_non_finite_cell_count_is_a_value_error(build):
    with pytest.raises(ValueError, match="non-finite cell count"):
        build()


def test_laplacian_exact_on_polynomials():
    sub = build_subdomain(0.0, 1.0, 0.7, 0.05)
    x = sub.nodes
    np.testing.assert_allclose(laplacian_apply(sub, x)[1:-1], 0.0, atol=1e-11)
    np.testing.assert_allclose(laplacian_apply(sub, x**2)[1:-1], 2 * 0.7, rtol=1e-9)
    assert np.all(laplacian_apply(sub, np.zeros_like(x)) == 0.0)
    with pytest.raises(ValueError):
        laplacian_apply(sub, np.zeros(3))


def test_flux_exact_on_polynomials():
    sub = build_subdomain(0.0, 1.0, 2.0, 0.1)
    x = sub.nodes
    assert interface_flux(x, "right", sub) == pytest.approx(2.0, rel=1e-12)
    assert interface_flux(x**2, "right", sub) == pytest.approx(2.0 * 2.0, rel=1e-10)
    assert interface_flux(np.full_like(x, 3.3), "right", sub) == pytest.approx(0.0, abs=1e-12)
    # outward normal at the left end points in -x
    assert interface_flux(x, "left", sub) == pytest.approx(-2.0, rel=1e-12)


def test_flux_series_matches_scalar():
    sub = build_subdomain(0.0, 1.0, 1.5, 0.25)
    rows = np.vstack([sub.nodes, sub.nodes**2])
    series = interface_flux_series(rows, "right", sub)
    assert series[0] == pytest.approx(interface_flux(rows[0], "right", sub))
    assert series[1] == pytest.approx(interface_flux(rows[1], "right", sub))


def test_flux_consistency_order_two():
    # outward fluxes from both sides of an interface cancel at order >= 2
    mism = []
    steps = (0.1, 0.05, 0.025, 0.0125)
    for dx in steps:
        left = build_subdomain(0.0, 1.0, 1.0, dx)
        right = build_subdomain(1.0, 2.0, 1.0, dx)
        m = interface_flux(np.sin(left.nodes), "right", left) + interface_flux(
            np.sin(right.nodes), "left", right
        )
        mism.append(abs(m))
    orders = np.log2(np.array(mism[:-1]) / np.array(mism[1:]))
    assert orders.min() > 1.9


def test_heterogeneous_steps_accepted():
    part = build_partition((0, 2), [1.0], [1.0, 0.25], [0.01, 0.005])
    assert part.subdomains[0].dx == pytest.approx(0.01)
    assert part.subdomains[1].dx == pytest.approx(0.005)


def test_subdomain_2d_lattice():
    sub = build_subdomain_2d(0.0, 0.5, -5.0, 5.0, 1.0, 0.02, 0.2)
    assert sub.nx == 25 and sub.ny == 50
    assert sub.xs[0] == 0.0 and sub.xs[-1] == 0.5
    assert sub.ys[0] == -5.0 and sub.ys[-1] == 5.0
    with pytest.raises(ValueError):
        build_subdomain_2d(0.0, 0.5, -5.0, 5.0, 1.0, 0.3, 0.2)
