import json
import math

import numpy as np
import pytest

from fracwr.cli import main
from fracwr.dnwr import DnwrConfig, run_dnwr
from fracwr.geometry import build_partition
from fracwr.harness import config_from_dict, run_experiment
from fracwr.iteration import AffineSweep, IterationConfig, iterate
from fracwr.nnwr import Nnwr2dConfig, NnwrConfig, run_nnwr_1d


def _dnwr(**over):
    return DnwrConfig(partition=build_partition((0, 2), [1.0], 1.0, 0.1), order=0.5,
                      horizon=1.0, n_steps=8, **over)


def _nnwr(**over):
    return NnwrConfig(partition=build_partition((0, 3), [1.0, 2.0], 1.0, 0.25), order=0.5,
                      horizon=1.0, n_steps=4, **over)


def _nnwr2d(**over):
    return Nnwr2dConfig(partition=build_partition((0, 2), [0.5], 1.0, 0.1),
                        y_extent=(-1.0, 1.0), dy=0.5, order=0.5, horizon=1.0, n_steps=4, **over)


@pytest.mark.parametrize("make", [_dnwr, _nnwr, _nnwr2d], ids=["dnwr", "nnwr1d", "nnwr2d"])
@pytest.mark.parametrize("over", [
    {"tolerance": 0.0}, {"tolerance": -1e-8}, {"tolerance": math.nan},
    {"tolerance": math.inf}, {"max_iter": 0}, {"max_iter": -2}, {"max_iter": 2.5},
    {"max_iter": True}, {"mode": "relaxed"},
], ids=lambda over: "-".join(f"{k}={v}" for k, v in over.items()))
def test_every_config_rejects_a_bad_stopping_rule(make, over):
    with pytest.raises(ValueError):
        make(**over)


@pytest.mark.parametrize("make", [_dnwr, _nnwr, _nnwr2d], ids=["dnwr", "nnwr1d", "nnwr2d"])
@pytest.mark.parametrize("theta", [math.nan, 0.0, 1.5, [0.25, math.nan], [0.25] * 3],
                         ids=["nan", "zero", "above-one", "nan-member", "wrong-length"])
def test_every_config_rejects_a_bad_theta(make, theta):
    with pytest.raises(ValueError, match="theta"):
        make(theta=theta)


def test_default_max_iter_per_driver():
    assert (_dnwr().max_iter, _nnwr().max_iter, _nnwr2d().max_iter) == (50, 60, 30)


def _marched(march, shape):
    """One phase ``x -> march(x)`` that every sweep marches: on the graded mesh
    of these configs a phase that is not ``graded`` builds no operator."""
    return (AffineSweep(march=lambda x, data: march(x), layout=None, shape=shape),)


@pytest.mark.parametrize("mode, expected", [("error_equation", [0.5, 0.125]),
                                            ("forced", [1.5, 0.375, 0.09375])])
def test_iterate_stops_on_the_sup_norm(mode, expected):
    # h -> h/4 on two interfaces; the error is the iterate or the update,
    # and twice as large on the second interface
    cfg = IterationConfig(order=0.5, horizon=1.0, n_steps=3, tolerance=0.2, mode=mode)
    h0 = np.array([[1.0] * 3, [2.0] * 3])
    # the fields are asked for at the trace the last sweep starts from
    (result,) = iterate(cfg, lambda h, th, part: (part(h), part(h) - h), h0, [[0.3, 0.4]], 0.0,
                        _marched(lambda x: x / 4, h0.shape), fields=lambda x: (x / 4,))
    report = result.report
    np.testing.assert_array_equal(report.errors[:, 1], expected)
    np.testing.assert_array_equal(report.errors[:, 0], np.array(expected) / 2)
    assert report.converged
    np.testing.assert_array_equal(result.traces, h0 / 4 ** len(expected))
    np.testing.assert_array_equal(result.fields, (result.traces,))
    np.testing.assert_array_equal(report.theta, [0.3, 0.4])


def test_iterate_reports_max_iter_without_convergence():
    cfg = IterationConfig(order=0.5, horizon=1.0, n_steps=3, tolerance=1e-3, max_iter=4)
    (result,) = iterate(cfg, lambda h, th, part: (part(h), part(h) - h), np.ones(3), [[0.5]],
                        0.0, _marched(lambda x: x / 2, (3,)))
    assert not result.report.converged and result.report.iterations == 4
    assert result.fields is None


def test_iterate_drops_each_member_at_its_own_stop():
    # member i contracts by its weight; 0.5 and 0.25 meet the tolerance at
    # sweeps 10 and 5, 0.75 runs to max_iter, and the sweep sees only the
    # members still active
    cfg = IterationConfig(order=0.5, horizon=1.0, n_steps=2, tolerance=1e-3, max_iter=12)
    widths = []

    def sweep(h, th, part):
        widths.append(len(h))
        return th[:, :, None] * h, (th[:, :, None] - 1.0) * h

    results = iterate(cfg, sweep, np.ones((1, 2)), [[0.5], [0.75], [0.25]], 0.0,
                      _marched(lambda x: x, (1, 2)))
    assert [r.report.iterations for r in results] == [10, 12, 5]
    assert [r.report.converged for r in results] == [True, False, True]
    assert widths == [3] * 5 + [2] * 5 + [1] * 2
    for r, th in zip(results, (0.5, 0.75, 0.25)):
        k = r.report.iterations
        np.testing.assert_array_equal(r.traces, np.full((1, 2), th**k))
        np.testing.assert_array_equal(r.report.errors[:, 0], th ** np.arange(1, k + 1))


def _diverging(max_iter=1000):
    return {
        "algorithm": "nnwr1d",
        "geometry": {"domain": [0.0, 3.0], "breakpoints": [1.0, 2.0], "kappa": 1.0, "dx": 0.25},
        "time": {"order": 0.5, "horizon": 1.0, "steps": 4},
        "relaxation": {"theta": 1.0},
        "run": {"tolerance": 1e-10, "max_iter": max_iter, "mode": "error_equation"},
        "output": {"stem": "diverging"},
    }


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_divergence_raises_naming_the_sweep():
    cfg = _nnwr(theta=1.0, tolerance=1e-10, max_iter=1000)
    with pytest.raises(ArithmeticError, match=r"diverged: sweep \d+ "):
        run_nnwr_1d(cfg)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("theta", [1.0, [0.25, 1.0], [1.0, 0.25]],
                         ids=["diverging", "sweep-then-diverging", "diverging-then-sweep"])
def test_cli_exits_2_on_divergence_and_writes_no_csv(tmp_path, capsys, theta):
    raw = _diverging()
    # the members march in one batch, so a diverging member fails the whole run
    raw["relaxation"]["theta"] = theta
    path = tmp_path / "c.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out)]) == 2
    assert "diverged" in capsys.readouterr().err
    assert list(out.iterdir()) == []


# One small geometry per algorithm, for runs that must fail in their first sweep.
GEOMETRIES = {
    "dnwr": {"domain": [0.0, 2.0], "breakpoints": [1.5], "kappa": [1.0, 0.25], "dx": 0.1},
    "nnwr1d": _diverging()["geometry"],
    "nnwr2d": {"domain": [0.0, 2.0], "split": 0.5, "y_extent": [-2.0, 2.0], "kappa": 1.0,
               "dx": 0.1, "dy": 0.5},
}


# A guess that overflows in the first sweep is reported as a divergence, with
# no numpy warning ahead of it.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("algorithm", sorted(GEOMETRIES))
def test_overflowing_initial_guess_diverges_without_warnings(tmp_path, algorithm):
    raw = _diverging()
    raw.update(algorithm=algorithm, geometry=GEOMETRIES[algorithm],
               relaxation={"theta": "optimal"})
    raw["run"]["initial_guess"] = 1e308
    with pytest.raises(ArithmeticError, match="diverged: sweep 1 "):
        run_experiment(config_from_dict(raw), str(tmp_path))


def test_theta_column_is_per_interface(tmp_path):
    raw = _diverging(max_iter=3)
    raw["geometry"]["kappa"] = [1.0, 4.0, 4.0]
    raw["relaxation"]["theta"] = "optimal"
    cfg = config_from_dict(raw)
    (path,) = run_experiment(cfg, str(tmp_path))
    rows = [line.split(",") for line in open(path).read().splitlines()[1:]]
    thetas = {int(r[1]): float(r[4]) for r in rows}
    assert thetas == {0: pytest.approx(1 / 4.5), 1: 0.25}
    assert all(r[3] != "" for r in rows)  # every interface at its optimum: envelope shown


def test_forced_dnwr_error_is_the_update():
    f = lambda x, t: np.sin(np.pi * x / 2)  # noqa: E731
    one = run_dnwr(_dnwr(theta=0.5, mode="forced", source=f, max_iter=1, tolerance=1e-30))
    two = run_dnwr(_dnwr(theta=0.5, mode="forced", source=f, max_iter=2, tolerance=1e-30))
    assert two.report.errors[1, 0] == np.max(np.abs(two.traces - one.traces))
