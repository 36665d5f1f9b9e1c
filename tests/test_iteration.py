import json
import math

import numpy as np
import pytest

from fracwr.cli import main
from fracwr.dnwr import DnwrConfig, run_dnwr
from fracwr.geometry import build_partition, build_subdomain_2d
from fracwr.harness import config_from_dict, run_experiment
from fracwr.iteration import IterationConfig, iterate
from fracwr.nnwr import Nnwr2dConfig, NnwrConfig, run_nnwr_1d


def _dnwr(**over):
    return DnwrConfig(partition=build_partition((0, 2), [1.0], 1.0, 0.1), order=0.5,
                      horizon=1.0, n_steps=8, **over)


def _nnwr(**over):
    return NnwrConfig(partition=build_partition((0, 3), [1.0, 2.0], 1.0, 0.25), order=0.5,
                      horizon=1.0, n_steps=4, **over)


def _nnwr2d(**over):
    return Nnwr2dConfig(left=build_subdomain_2d(0.0, 0.5, -1.0, 1.0, 1.0, 0.1, 0.5),
                        right=build_subdomain_2d(0.5, 2.0, -1.0, 1.0, 1.0, 0.1, 0.5),
                        order=0.5, horizon=1.0, n_steps=4, **over)


@pytest.mark.parametrize("make", [_dnwr, _nnwr, _nnwr2d], ids=["dnwr", "nnwr1d", "nnwr2d"])
@pytest.mark.parametrize("over", [
    {"tolerance": 0.0}, {"tolerance": -1e-8}, {"tolerance": math.nan},
    {"tolerance": math.inf}, {"max_iter": 0}, {"max_iter": -2}, {"max_iter": 2.5},
    {"max_iter": True}, {"mode": "relaxed"},
], ids=lambda over: "-".join(f"{k}={v}" for k, v in over.items()))
def test_every_config_rejects_a_bad_stopping_rule(make, over):
    with pytest.raises(ValueError):
        make(**over)


def test_default_max_iter_per_driver():
    assert (_dnwr().max_iter, _nnwr().max_iter, _nnwr2d().max_iter) == (50, 60, 30)


@pytest.mark.parametrize("mode, expected", [("error_equation", [0.5, 0.125]),
                                            ("forced", [1.5, 0.375, 0.09375])])
def test_iterate_stops_on_the_sup_norm(mode, expected):
    # h -> h/4 on two interfaces; the error is the iterate or the update,
    # and twice as large on the second interface
    cfg = IterationConfig(order=0.5, horizon=1.0, n_steps=3, tolerance=0.2, mode=mode)
    h0 = np.array([[1.0] * 3, [2.0] * 3])
    report, h, fields = iterate(cfg, lambda h: (h / 4, h / 4 - h, "f"), h0, [0.3, 0.4], 0.0)
    np.testing.assert_array_equal(report.errors[:, 1], expected)
    np.testing.assert_array_equal(report.errors[:, 0], np.array(expected) / 2)
    assert report.converged and fields == "f"
    np.testing.assert_array_equal(h, h0 / 4 ** len(expected))
    np.testing.assert_array_equal(report.theta, [0.3, 0.4])


def test_iterate_reports_max_iter_without_convergence():
    cfg = IterationConfig(order=0.5, horizon=1.0, n_steps=3, tolerance=1e-3, max_iter=4)
    report, _, _ = iterate(cfg, lambda h: (h / 2, h / 2 - h, None), np.ones(3), 0.5, 0.0)
    assert not report.converged and report.iterations == 4


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
    cfg = _nnwr(thetas=1.0, tolerance=1e-10, max_iter=1000)
    with pytest.raises(ArithmeticError, match=r"diverged: sweep \d+ "):
        run_nnwr_1d(cfg)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("theta", [1.0, [0.25, 1.0]], ids=["diverging", "sweep-then-diverging"])
def test_cli_exits_2_on_divergence_and_writes_no_csv(tmp_path, capsys, theta):
    raw = _diverging()
    raw["relaxation"]["theta"] = theta  # with 0.25 first, its CSV is written, then removed
    path = tmp_path / "c.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out)]) == 2
    assert "diverged" in capsys.readouterr().err
    assert list(out.iterdir()) == []


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
    assert two.report.errors[1, 0] == np.max(np.abs(two.trace - one.trace))
