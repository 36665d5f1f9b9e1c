import copy
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracwr.cli import main
from fracwr.harness import (
    CSV_HEADER,
    ConfigError,
    ExperimentConfig,
    PRESETS,
    config_from_dict,
    parse_config,
    preset_config,
    run_experiment,
    table2_kappas,
)
from fracwr.theory import DnwrBoundParams, dnwr_error_bound


def _minimal_dnwr(**over):
    raw = {
        "algorithm": "dnwr",
        "geometry": {"domain": [0.0, 2.0], "breakpoints": [1.0], "kappa": 1.0, "dx": 0.1},
        "time": {"order": 0.5, "horizon": 1.0, "steps": 8},
        "relaxation": {"theta": 0.5},
        "run": {"tolerance": 1e-10, "max_iter": 5, "mode": "error_equation"},
    }
    for key, val in over.items():
        raw[key] = val
    return raw


def test_parse_minimal_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_minimal_dnwr()))
    cfg = parse_config(path)
    assert cfg.algorithm == "dnwr"
    assert cfg.thetas == (0.5,)
    assert cfg.run.grading == "auto"


def test_reject_theta_out_of_range():
    raw = _minimal_dnwr(relaxation={"theta": 1.5})
    with pytest.raises(ConfigError, match=r"theta"):
        config_from_dict(raw)


def test_reject_breakpoints_outside_domain():
    raw = _minimal_dnwr()
    raw["geometry"]["breakpoints"] = [2.5]
    with pytest.raises(ConfigError, match="breakpoints"):
        config_from_dict(raw)


def test_reject_unknown_keys_and_collect_all_violations():
    raw = _minimal_dnwr()
    raw["geometry"]["dz"] = 0.1
    raw["relaxation"]["theta"] = -1.0
    raw["run"]["mode"] = "magic"
    with pytest.raises(ConfigError) as err:
        config_from_dict(raw)
    text = str(err.value)
    assert "geometry.dz" in text and "theta" in text and "mode" in text


def test_reject_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        parse_config(path)


def test_table2_pattern():
    assert table2_kappas(4) == [1.0, 0.25, 0.25, 1.0]
    assert table2_kappas(8) == [1.0, 0.25, 1 / 16, 1 / 64, 1 / 64, 1 / 16, 0.25, 1.0]


def test_run_experiment_csv_schema(tmp_path):
    cfg = config_from_dict(_minimal_dnwr())
    paths = run_experiment(cfg, str(tmp_path))
    assert len(paths) == 1
    lines = open(paths[0]).read().splitlines()
    assert lines[0] == CSV_HEADER
    ks = []
    for line in lines[1:]:
        k, ifc, err, bound, theta, order = line.split(",")
        ks.append(int(k))
        assert int(ifc) == 0
        assert float(err) >= 0.0
        assert float(theta) == 0.5
        assert float(order) == 0.5
    assert ks == sorted(ks)


def test_bound_column_matches_direct_evaluation(tmp_path):
    raw = _minimal_dnwr(
        geometry={"domain": [0.0, 2.0], "breakpoints": [1.5], "kappa": [1.0, 0.25], "dx": 0.05},
        relaxation={"theta": "optimal"},
    )
    raw["run"]["max_iter"] = 4
    cfg = config_from_dict(raw)
    (path,) = run_experiment(cfg, str(tmp_path))
    p = DnwrBoundParams(nu=0.25, a=1.5, b=0.5, kappa1=1.0, kappa2=0.25, horizon=1.0)
    for line in open(path).read().splitlines()[1:]:
        k, _, _, bound, _, _ = line.split(",")
        assert float(bound) == pytest.approx(dnwr_error_bound(p, int(k)), rel=1e-15)


def test_bound_blank_for_suboptimal_theta(tmp_path):
    raw = _minimal_dnwr(
        geometry={"domain": [0.0, 2.0], "breakpoints": [1.5], "kappa": [1.0, 0.25], "dx": 0.05},
        relaxation={"theta": 0.9},
    )
    cfg = config_from_dict(raw)
    (path,) = run_experiment(cfg, str(tmp_path))
    for line in open(path).read().splitlines()[1:]:
        assert line.split(",")[3] == ""


# a numeric weight equal to the optimum counts as optimal for the envelope
@pytest.mark.parametrize("algorithm, geometry, theta, filled", [
    ("dnwr", {"domain": [0.0, 2.0], "breakpoints": [1.0], "kappa": 1.0, "dx": 0.1}, 0.5, True),
    ("nnwr2d", {"domain": [0.0, 2.0], "split": 0.5, "y_extent": [-2.0, 2.0], "kappa": 1.0,
                "dx": 0.1, "dy": 0.5}, 0.25, True),
    # the weight is optimal at the second interface only
    ("nnwr1d", {"domain": [0.0, 3.0], "breakpoints": [1.0, 2.0], "kappa": [1.0, 4.0, 4.0],
                "dx": 0.25}, 0.25, False),
], ids=["dnwr", "nnwr2d", "nnwr1d-unequal-kappa"])
def test_bound_column_for_a_numeric_weight(tmp_path, algorithm, geometry, theta, filled):
    raw = _minimal_dnwr(algorithm=algorithm, geometry=geometry, relaxation={"theta": theta})
    (path,) = run_experiment(config_from_dict(raw), str(tmp_path))
    rows = [line.split(",") for line in open(path).read().splitlines()[1:]]
    assert rows and all((r[3] != "") == filled for r in rows)


def test_reproducible_bytes(tmp_path):
    cfg = config_from_dict(_minimal_dnwr())
    (p1,) = run_experiment(cfg, str(tmp_path / "a"))
    (p2,) = run_experiment(cfg, str(tmp_path / "b"))
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_preset_registry():
    assert "fig_dnwr_theta_sweep" in PRESETS
    for name in PRESETS:
        for cfg in preset_config(name):
            assert cfg.run.n_steps >= 1
    with pytest.raises(ConfigError):
        preset_config("fig_unknown")


def test_nnwr2d_config_requires_split():
    raw = _minimal_dnwr(algorithm="nnwr2d")
    raw["geometry"] = {"domain": [0.0, 2.0], "kappa": 1.0, "dx": 0.1}
    with pytest.raises(ConfigError, match="split"):
        config_from_dict(raw)


def test_nnwr2d_run_with_bound_column(tmp_path):
    raw = {
        "algorithm": "nnwr2d",
        "geometry": {"domain": [0.0, 2.0], "split": 0.5, "y_extent": [-2.0, 2.0],
                     "kappa": 1.0, "dx": 0.1, "dy": 0.5},
        "time": {"order": 0.5, "horizon": 1.0, "steps": 8},
        "relaxation": {"theta": ["optimal"]},
        "run": {"tolerance": 1e-10, "max_iter": 3, "mode": "error_equation"},
        "output": {"stem": "tiny2d"},
    }
    cfg = config_from_dict(raw)
    (path,) = run_experiment(cfg, str(tmp_path))
    lines = open(path).read().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[3] != ""  # envelope applies at the optimal weight
        assert float(fields[4]) == pytest.approx(0.25)


def test_seed_check_passes(capsys):
    assert main(["--seed-check"]) == 0
    out = capsys.readouterr().out
    assert "[FAIL]" not in out and "[PASS]" in out


def test_monolithic_run_writes_reference_row(tmp_path):
    raw = _minimal_dnwr(algorithm="monolithic")
    raw["run"]["mode"] = "forced"
    raw["run"]["source"] = "sin_half_pi_x"
    cfg = config_from_dict(raw)
    (path,) = run_experiment(cfg, str(tmp_path))
    lines = open(path).read().splitlines()
    assert lines[1].startswith("0,0,0,")


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def test_cli_no_args_usage(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().out


def test_cli_list_presets(capsys):
    assert main(["--list-presets"]) == 0
    out = capsys.readouterr().out
    assert "fig_dnwr_theta_sweep" in out


def test_cli_missing_config(capsys):
    assert main(["--config", "does-not-exist.json"]) == 1


def test_cli_unknown_preset(capsys):
    assert main(["--preset", "fig_nope"]) == 1


def test_cli_both_sources_rejected(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(_minimal_dnwr()))
    assert main(["--config", str(path), "--preset", "fig_dnwr_theta_sweep"]) == 1


def test_cli_config_run(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(_minimal_dnwr()))
    out_dir = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out_dir), "--tol", "1e-6",
                 "--max-iter", "3"]) == 0
    printed = capsys.readouterr().out.strip().splitlines()
    assert len(printed) == 1
    lines = open(printed[0]).read().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) <= 4  # max-iter override respected


def test_cli_invalid_config_exit_code(tmp_path):
    path = tmp_path / "c.json"
    bad = _minimal_dnwr(relaxation={"theta": 2.0})
    path.write_text(json.dumps(bad))
    assert main(["--config", str(path)]) == 1


@pytest.mark.parametrize("flag, value", [("--max-iter", "0"), ("--max-iter", "-3"),
                                         ("--tol", "-1"), ("--tol", "nan"), ("--tol", "inf")])
def test_cli_rejects_bad_overrides(tmp_path, capsys, flag, value):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(_minimal_dnwr()))
    assert main(["--config", str(path), "--out", str(tmp_path / "out"), flag, value]) == 1
    assert not (tmp_path / "out").exists()


def test_cli_preset_run_writes_csvs(tmp_path, capsys):
    assert main(["--preset", "fig_dnwr_bounds_sub", "--out", str(tmp_path),
                 "--max-iter", "4"]) == 0
    paths = capsys.readouterr().out.strip().splitlines()
    assert len(paths) == 3  # one per order
    for p in paths:
        assert open(p).readline().strip() == CSV_HEADER


def test_initial_condition_registry_is_per_dimension():
    raw = _minimal_dnwr()
    raw["run"]["initial_condition"] = "bump_2d"
    with pytest.raises(ConfigError, match="initial_condition"):
        config_from_dict(raw)


@pytest.mark.parametrize(
    "section, key, value, match",
    [
        ("time", "order", "x", "time.order"),
        ("geometry", "domain", ["a", "b"], "geometry.domain"),
        ("geometry", "dx", "0.02", "geometry.dx"),
        ("run", "initial_guess", "abc", "run.initial_guess"),
        ("time", "horizon", math.inf, "time.horizon"),
        ("time", "horizon", math.nan, "time.horizon"),
        ("time", "steps", True, "time.steps"),
        ("run", "max_iter", True, "run.max_iter"),
        ("relaxation", "theta", "abc", "relaxation.theta"),
        ("relaxation", "theta", [], "relaxation.theta"),
        ("run", "source", ["zero"], "run.source"),
        ("geometry", "breakpoints", ["1.0"], "geometry.breakpoints"),
        ("geometry", "kappa", [1.0, 1.0, 1.0], "kappa list has 3 entries"),
        ("geometry", "dx", 0.3, "does not tile"),
        ("output", "stem", 5, "output.stem"),
        ("run", "scheduler", "sequential", "run.scheduler"),
        ("geometry", "split", 1.0, "geometry.split: unknown key"),
        ("geometry", "y_extent", [-1.0, 1.0], "geometry.y_extent: unknown key"),
        ("geometry", "dy", 0.1, "geometry.dy: unknown key"),
        ("output", "stem", "sub/dir", "output.stem"),
        ("output", "stem", "..", "output.stem"),
        ("output", "stem", "", "output.stem"),
        ("relaxation", "theta", [0.5, 0.5], "both write run_theta_0.5.csv"),
        ("relaxation", "theta", [0.1, 0.1000001], "both write run_theta_0.1.csv"),
        pytest.param("output", "stem", "a" * 300, "output.stem", id="stem-300"),
        # a * 237 + _theta_0.5.csv.part is 256 bytes, one above NAME_MAX
        pytest.param("output", "stem", "a" * 237, "output.stem", id="stem-237"),
        ("output", "stem", "\ud800", "output.stem"),
    ],
)
def test_malformed_values_are_config_errors(tmp_path, section, key, value, match):
    raw = _minimal_dnwr(output={"stem": "run"})
    raw[section][key] = value
    with pytest.raises(ConfigError, match=match):
        config_from_dict(raw)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(raw))  # non-finite floats go out as Infinity / NaN
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()


def test_longest_stem_runs(tmp_path):
    raw = _minimal_dnwr(output={"stem": "a" * 236})
    (path,) = run_experiment(config_from_dict(raw), str(tmp_path))
    assert len(os.path.basename(path) + ".part") == 255


def test_cli_out_naming_a_file_is_an_error(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(_minimal_dnwr()))
    out = tmp_path / "out"
    out.write_text("")
    assert main(["--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert out.read_text() == ""


def test_nnwr2d_rejects_breakpoints(tmp_path):
    raw = _minimal_dnwr(algorithm="nnwr2d")
    raw["geometry"] = {"domain": [0.0, 2.0], "split": 0.5, "y_extent": [-2.0, 2.0],
                       "kappa": 1.0, "dx": 0.1, "dy": 0.5, "breakpoints": [1.0]}
    with pytest.raises(ConfigError, match="geometry.breakpoints: unknown key"):
        config_from_dict(raw)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(raw))
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()


# Configs whose values are each well formed but that no driver can run.
@pytest.mark.parametrize("algorithm, time, breakpoints, match", [
    ("dnwr", {"order": 1.5, "grading": 2.0}, [1.0], "time.grading"),
    ("nnwr1d", {}, [], "geometry.breakpoints"),
    ("monolithic", {}, [], "geometry.breakpoints"),
    ("dnwr", {"order": 0.01, "steps": 64, "grading": "auto"}, [1.0], "time.grading"),
    ("dnwr", {"grading": 1e6}, [1.0], "time.grading"),
], ids=["graded-wave-mesh", "nnwr1d-without-interfaces", "monolithic-without-interfaces",
        "auto-grading-collapses-mesh", "steep-grading-collapses-mesh"])
def test_unrunnable_combinations_are_config_errors(tmp_path, algorithm, time, breakpoints, match):
    raw = _minimal_dnwr(algorithm=algorithm)
    raw["time"].update(time)
    raw["geometry"]["breakpoints"] = breakpoints
    with pytest.raises(ConfigError, match=match):
        config_from_dict(raw)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(raw))
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()


NEAR_ORDER_TWO = {
    "dnwr": {"domain": [0.0, 2.0], "breakpoints": [1.5], "kappa": [1.0, 0.25], "dx": 0.01},
    "nnwr1d": {"domain": [0.0, 4.0], "breakpoints": [1.5, 2.5], "kappa": [1.0, 0.25, 2.0],
               "dx": 0.05},
    "nnwr2d": {"domain": [0.0, 2.0], "split": 0.5, "y_extent": [-2.0, 2.0], "kappa": 1.0,
               "dx": 0.05, "dy": 0.5},
}


# Near order 2 an envelope can leave double precision: its rows' bound is blank.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("order", [1.995, 1.999, 1.9999])
@pytest.mark.parametrize("algorithm", sorted(NEAR_ORDER_TWO))
def test_bound_near_order_two_is_finite_or_blank(tmp_path, algorithm, order):
    raw = _minimal_dnwr(algorithm=algorithm, geometry=NEAR_ORDER_TWO[algorithm],
                        time={"order": order, "horizon": 1.0, "steps": 64},
                        relaxation={"theta": "optimal"})
    raw["run"]["max_iter"] = 10
    (path,) = run_experiment(config_from_dict(raw), str(tmp_path))
    text = open(path).read()
    assert "nan" not in text and "inf" not in text
    rows = [line.split(",") for line in text.splitlines()[1:]]
    assert rows and all(row[3] == "" or math.isfinite(float(row[3])) for row in rows)


@pytest.mark.parametrize("algorithm", ["dnwr", "nnwr2d"])
def test_overflowing_domain_is_a_config_error(tmp_path, algorithm):
    raw = _minimal_dnwr(algorithm=algorithm)
    raw["geometry"]["domain"] = [0.0, 1e308]
    if algorithm == "nnwr2d":
        raw["geometry"] = {"domain": [0.0, 1e308], "split": 0.5, "y_extent": [-2.0, 2.0],
                           "kappa": 1.0, "dx": 0.1, "dy": 0.5}
    with pytest.raises(ConfigError, match="non-finite cell count"):
        config_from_dict(raw)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(raw))
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 1


# A coefficient whose stencil entry kappa / dx**2, kappa / (2 dx) or, on the
# strip, kappa / dy**2 overflows cannot run: a config error.
INFINITE_STENCIL = {
    "dnwr": {"domain": [0.0, 2.0], "breakpoints": [1.0], "kappa": [1e308, 1.0], "dx": 0.1},
    # kappa / dx**2 is about 0 here, but dx**2 itself overflows
    "dnwr-huge-dx": {"domain": [0.0, 1e200], "breakpoints": [5e199], "kappa": 1.0,
                     "dx": 2.5e199},
    "nnwr1d": {"domain": [0.0, 3.0], "breakpoints": [1.0, 2.0], "kappa": 1e308, "dx": 0.1},
    "nnwr2d": {"domain": [0.0, 2.0], "split": 0.5, "y_extent": [-2.0, 2.0], "kappa": 1e308,
               "dx": 0.1, "dy": 0.5},
    "nnwr2d-dy": {"domain": [0.0, 2.0], "split": 1.0, "y_extent": [-2.0, 2.0], "kappa": 1e306,
                  "dx": 0.5, "dy": 0.004},
}


@pytest.mark.parametrize("case", sorted(INFINITE_STENCIL))
def test_infinite_stencil_coefficient_is_a_config_error(tmp_path, case):
    raw = _minimal_dnwr(algorithm=case.split("-")[0], geometry=INFINITE_STENCIL[case])
    with pytest.raises(ConfigError, match="geometry: .* non-finite stencil coefficient"):
        config_from_dict(raw)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(raw))
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()


# Finite but extreme data still run, and fail as numerics.
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_extreme_finite_kappa_fails_as_numerics(tmp_path, capsys):
    geometry = dict(INFINITE_STENCIL["dnwr"], kappa=[1e300, 1.0])
    path = tmp_path / "c.json"
    path.write_text(json.dumps(_minimal_dnwr(geometry=geometry)))
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "diverged: sweep 2 " in capsys.readouterr().err


# The strip's y lattice is checked at validation, though the run builds it.
@pytest.mark.parametrize("y_extent, dy, match", [
    ([-2.0, 2.0], 0.3, "does not tile"),
    ([-1e308, 1e308], 0.5, "non-finite cell count"),
], ids=["dy-does-not-tile", "overflowing-y-extent"])
def test_nnwr2d_y_lattice_is_a_config_error(tmp_path, y_extent, dy, match):
    raw = _minimal_dnwr(algorithm="nnwr2d")
    raw["geometry"] = {"domain": [0.0, 2.0], "split": 0.5, "y_extent": y_extent,
                       "kappa": 1.0, "dx": 0.1, "dy": dy}
    with pytest.raises(ConfigError, match=match):
        config_from_dict(raw)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(raw))
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()


# Bad values for any key or list entry.  No small positive number is in the
# pool: validation builds the mesh, and a tiny step would make a huge one.
BAD_VALUES = (None, "x", True, [], {}, math.nan, math.inf, -math.inf, 0, -1, -0.5, 1e308,
              -1e308)
PRESET_RAWS = [raw for name in sorted(PRESETS) for raw in PRESETS[name]()]
# Geometry keys of the other dimension, each with a value its own algorithm accepts.
FOREIGN_KEYS = {
    "1d": {"split": 1.0, "y_extent": [-1.0, 1.0], "dy": 0.1},
    "2d": {"breakpoints": [1.0]},
}


def _paths(node, prefix=()):
    """The key (or list index) path of every value below ``node``."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(data=st.data())
def test_mutated_presets_are_valid_or_config_errors(data):
    raw = copy.deepcopy(data.draw(st.sampled_from(PRESET_RAWS)))
    algorithm, foreign = raw["algorithm"], None
    if data.draw(st.booleans()):
        pool = FOREIGN_KEYS["2d" if algorithm == "nnwr2d" else "1d"]
        foreign = data.draw(st.sampled_from(sorted(pool)))
        raw["geometry"][foreign] = data.draw(st.sampled_from((pool[foreign],) + BAD_VALUES))
    for _ in range(data.draw(st.integers(0 if foreign else 1, 2))):
        path = data.draw(st.sampled_from(list(_paths(raw))))
        node = raw
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = data.draw(st.sampled_from(BAD_VALUES))
    try:
        assert isinstance(config_from_dict(raw), ExperimentConfig)
    except ConfigError as exc:
        # mutations replace values and drop no key: while the algorithm and
        # the geometry object survive, so does the foreign key
        if foreign and raw["algorithm"] == algorithm and isinstance(raw["geometry"], dict):
            assert f"geometry.{foreign}: unknown key" in exc.violations
    else:
        assert foreign is None
