"""The members of a relaxation sweep march in one batch, bit for bit as alone.

Each driver called with ``members`` must give every member exactly the
errors, traces, stop and fields of a call with that member as ``theta``:
a member's CSV must not depend on the other members of its sweep.
"""

import os
from dataclasses import replace

import numpy as np
import pytest

from fracwr.dnwr import DnwrConfig, run_dnwr
from fracwr.geometry import build_partition
from fracwr import harness
from fracwr.harness import config_from_dict, run_experiment
from fracwr.nnwr import Nnwr2dConfig, NnwrConfig, run_nnwr_1d, run_nnwr_2d
from fracwr.solver import solve_waveform, tabulate
from marching import march_alone


def _source_1d(x, t):
    return np.sin(np.pi * x / 2.0) * (1.0 + t)


def _dnwr(mode):
    extra = {} if mode == "error_equation" else {
        "source": _source_1d, "initial_condition": lambda x: x * (2.0 - x)}
    return DnwrConfig(partition=build_partition((0, 2), [1.4], [1.0, 0.3], [0.1, 0.05]),
                      order=0.6, horizon=1.0, n_steps=12, tolerance=1e-9, max_iter=9,
                      mode=mode, **extra), run_dnwr


def _nnwr(mode):
    extra = {} if mode == "error_equation" else {
        "source": _source_1d, "initial_condition": lambda x: x * (3.0 - x)}
    return NnwrConfig(partition=build_partition((0, 3), [1.0, 1.75], [1.0, 0.5, 2.0], 0.125),
                      order=1.4, horizon=1.0, n_steps=10, tolerance=1e-9, max_iter=18,
                      grading=1.0, mode=mode, **extra), run_nnwr_1d


def _nnwr2d(mode):
    extra = {} if mode == "error_equation" else {
        "source": lambda x, y, t: np.sin(np.pi * x / 2.0) * np.cos(y),
        "initial_condition": lambda x, y: x * (2.0 - x) * np.exp(-y**2)}
    return Nnwr2dConfig(partition=build_partition((0, 2), [0.75], 1.0, 0.125),
                        y_extent=(-1.0, 1.0), dy=0.25, order=0.5, horizon=1.0, n_steps=8,
                        tolerance=1e-9, max_iter=7, mode=mode, **extra), run_nnwr_2d


# the slow member stops at max_iter; "optimal" and the middle one converge early
MEMBERS = {_dnwr: [0.15, "optimal", 0.6], _nnwr: ["optimal", 0.05, 0.3],
           _nnwr2d: [0.1, 0.2, "optimal"]}


@pytest.mark.parametrize("mode", ["error_equation", "forced"])
@pytest.mark.parametrize("make", [_dnwr, _nnwr, _nnwr2d], ids=["dnwr", "nnwr1d", "nnwr2d"])
def test_lockstep_members_equal_solo_runs(make, mode):
    cfg, run = make(mode)
    members = MEMBERS[make]
    batch = run(cfg, keep_fields=True, members=members)
    assert len(batch) == len(members)
    stops = []
    for member, got in zip(members, batch):
        solo = run(cfg, keep_fields=True, members=[member])[0]
        alone = run(replace(cfg, theta=member))
        for ref in (solo, alone):
            assert np.array_equal(got.report.errors, ref.report.errors)
            assert np.array_equal(got.traces, ref.traces)
            assert got.report.converged == ref.report.converged
            assert np.array_equal(got.report.theta, ref.report.theta)
        assert got.traces.shape == alone.traces.shape
        assert all(np.array_equal(a, b) for a, b in zip(got.fields, solo.fields))
        # each result owns its arrays, so it keeps no other member's alive
        assert got.traces.base is None and all(u.base is None for u in got.fields)
        stops.append((got.report.converged, got.report.iterations))
    assert (False, cfg.max_iter) in stops
    assert any(conv and k < cfg.max_iter for conv, k in stops)


def test_members_must_be_a_non_empty_sequence():
    cfg, run = _dnwr("error_equation")
    for members in ([], "optimal"):
        with pytest.raises(ValueError, match="members"):
            run(cfg, members=members)
    with pytest.raises(ValueError, match="theta"):
        run(cfg, members=[0.5, 1.5])


def test_member_axis_shapes():
    cfg, _ = _dnwr("forced")
    sub = cfg.partition.subdomains[0]
    w = cfg.build_weights()
    h = np.arange(3 * cfg.n_steps, dtype=float).reshape(3, cfg.n_steps)
    f, u0 = tabulate(w, _source_1d, np.ones_like, sub.nodes)
    (u,) = solve_waveform([sub], w, [None], [h], 3, f=[f], u0=[u0])
    assert u.shape == (3, cfg.n_steps + 1, sub.n_nodes)
    for j in range(3):
        solo = march_alone(sub, w, None, h[j], f=_source_1d, u0=np.ones_like)
        assert np.array_equal(u[j], solo)


def _raw(theta):
    return {
        "algorithm": "dnwr",
        "geometry": {"domain": [0.0, 2.0], "breakpoints": [1.0], "kappa": 1.0, "dx": 0.1},
        "time": {"order": 0.5, "horizon": 1.0, "steps": 8},
        "relaxation": {"theta": theta},
        "run": {"tolerance": 1e-12, "max_iter": 12, "mode": "error_equation"},
        "output": {"stem": "lock"},
    }


def test_member_csv_bytes_do_not_depend_on_companions(tmp_path):
    many = run_experiment(config_from_dict(_raw([0.1, 0.5, "optimal"])), str(tmp_path / "a"))
    (one,) = run_experiment(config_from_dict(_raw([0.5])), str(tmp_path / "b"))
    assert [p.rsplit("/", 1)[1] for p in many] == [
        "lock_theta_0.1.csv", "lock_theta_0.5.csv", "lock_theta_optimal.csv"]
    with open(many[1], "rb") as a, open(one, "rb") as b:
        assert a.read() == b.read()


def test_failed_write_removes_the_members_already_written(tmp_path, monkeypatch):
    write = harness._write_csv
    calls = []

    def write_then_fail(path, rows):
        calls.append(path)
        # the second member's write breaks off after its header, on a bad row
        return write(path, rows + [None] if len(calls) == 2 else rows)

    monkeypatch.setattr(harness, "_write_csv", write_then_fail)
    out = tmp_path / "out"
    with pytest.raises(TypeError):
        run_experiment(config_from_dict(_raw([0.1, 0.5])), str(out))
    assert [os.path.basename(p) for p in calls] == ["lock_theta_0.1.csv", "lock_theta_0.5.csv"]
    assert os.listdir(out) == []  # the first CSV is removed, and no .part is left
