"""Experiment configuration, presets and CSV emission.

A run is described by a JSON file (schema below) or a named preset that
reproduces the convergence studies at desk scale.  Every run writes one CSV
per relaxation weight with the exact header

    k,interface_id,error_sup,bound,theta,two_nu

where ``bound`` is the paper's closed-form estimate when one applies (error
equations with every interface at its optimal weight, a value within double
range) and blank otherwise; it is a reference, not a guarantee, and the DNWR
diffusion-wave errors exceed it.  ``theta`` is the weight of the row's
interface.  Floats are written with 17 significant digits so identical
configurations produce byte-identical files.

Config schema (all keys required unless noted):

    {
      "algorithm": "dnwr" | "nnwr1d" | "nnwr2d" | "monolithic",
      "geometry": {
        "domain": [x0, x1],
        "breakpoints": [...],          # dnwr: 1 entry; nnwr1d, monolithic: >= 1; not nnwr2d
        "kappa": number | [...],       # per subdomain (scalar for nnwr2d)
        "dx": number | [...],
        "split": number,               # nnwr2d only: interface abscissa
        "y_extent": [y0, y1],          # nnwr2d only
        "dy": number                   # nnwr2d only
      },
      "time": {"order": 2nu in (0,2), "horizon": T, "steps": N,
               "grading": "auto" | r >= 1},  # optional; r = 1 for order > 1; t_n must rise
      "relaxation": {"theta": "optimal" | number | [sweep...]},
      "run": {"tolerance": tol, "max_iter": n, "mode": "error_equation" | "forced",
              "initial_guess": "unit" | number,
              "source": name, "initial_condition": name},  # optional, forced mode
      "output": {"stem": "basename"}                       # optional
    }

Named sources: zero, sin_half_pi_x (sin(pi x/2)), sin_pi_x_over_16.
Named initial conditions: zero, parabola_16 (x(16-x)/64), bump_2d
(x(2-x)exp(-10 y^2), 2D only).
"""

import json
import math
import numbers
import os
from dataclasses import dataclass

import numpy as np

from .dnwr import DnwrConfig, run_dnwr
from .geometry import build_partition
from .iteration import IterationConfig
from .nnwr import Nnwr2dConfig, NnwrConfig, run_nnwr_1d, run_nnwr_2d
from .solver import solve_monolithic
from .theory import (
    BoundNotApplicableError,
    DnwrBoundParams,
    Nnwr2dBoundParams,
    NnwrBoundParams,
    dnwr_error_bound,
    nnwr2d_error_bound,
    nnwr_error_bound,
)

__all__ = ["ExperimentConfig", "ConfigError", "config_from_dict", "parse_config",
           "run_experiment", "remove_outputs", "PRESETS", "preset_config", "CSV_HEADER"]

CSV_HEADER = "k,interface_id,error_sup,bound,theta,two_nu"

SOURCES = {
    "zero": None,
    "sin_half_pi_x": lambda x, t: np.sin(np.pi * x / 2.0),
    "sin_pi_x_over_16": lambda x, t: np.sin(np.pi * x / 16.0),
}
INITIAL_CONDITIONS = {
    "zero": None,
    "parabola_16": lambda x: x * (16.0 - x) / 64.0,
}
INITIAL_CONDITIONS_2D = {
    "zero": None,
    "bump_2d": lambda x, y: x * (2.0 - x) * np.exp(-10.0 * y**2),
}


class ConfigError(ValueError):
    """Raised with the full list of schema violations."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {v}" for v in self.violations))


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated experiment: the solver config it runs (``NnwrConfig`` for
    ``monolithic``), whose ``theta`` is the first sweep member, and its file stem."""

    algorithm: str
    run: IterationConfig
    thetas: tuple  # sweep members: floats and/or "optimal"
    stem: str = "run"


def _check_keys(section, allowed, required, where, errs):
    if not isinstance(section, dict):
        errs.append(f"{where}: expected an object")
        return False
    for key in section:
        if key not in allowed:
            errs.append(f"{where}.{key}: unknown key")
    for key in required:
        if key not in section:
            errs.append(f"{where}.{key}: missing")
    return all(k in section for k in required)


def _number(x, integer=False) -> bool:
    """A finite real (or integer) number; bools, strings, NaN and inf are not."""
    kind = numbers.Integral if integer else numbers.Real
    return isinstance(x, kind) and not isinstance(x, bool) and math.isfinite(x)


def _positive(x) -> bool:
    """A positive number, or a non-empty list of them."""
    members = x if isinstance(x, list) and x else [x]
    return all(_number(v) and v > 0 for v in members)


def _interval(x) -> bool:
    return isinstance(x, list) and len(x) == 2 and all(map(_number, x)) and x[0] < x[1]


def config_from_dict(raw) -> ExperimentConfig:
    """Validate a parsed experiment description; every violation is reported at once."""
    errs = []
    ok = _check_keys(raw, {"algorithm", "geometry", "time", "relaxation", "run", "output"},
                     {"algorithm", "geometry", "time", "relaxation", "run"}, "config", errs)
    if not ok:
        raise ConfigError(errs)

    algorithm = raw["algorithm"]
    if algorithm not in ("dnwr", "nnwr1d", "nnwr2d", "monolithic"):
        errs.append(f"config.algorithm: must be dnwr|nnwr1d|nnwr2d|monolithic, got {algorithm!r}")

    geo = raw["geometry"]
    geo_keys = ({"domain", "split", "y_extent", "kappa", "dx", "dy"} if algorithm == "nnwr2d"
                else {"domain", "breakpoints", "kappa", "dx"})
    _check_keys(geo, geo_keys, {"domain", "kappa", "dx"}, "geometry", errs)
    if isinstance(geo, dict) and "domain" in geo:
        dom = geo["domain"]
        for key in ("kappa", "dx", "dy"):
            if not _positive(geo.get(key, 1.0)):
                errs.append(f"geometry.{key}: must be a positive number or a list of them")
        if not _interval(dom):
            errs.append("geometry.domain: expected [x0, x1] with x0 < x1")
        elif algorithm in ("dnwr", "nnwr1d", "monolithic"):
            breaks = geo.get("breakpoints", [])
            if not (isinstance(breaks, list) and all(map(_number, breaks))):
                errs.append("geometry.breakpoints: expected a list of numbers")
            elif algorithm == "dnwr" and len(breaks) != 1:
                errs.append("geometry.breakpoints: dnwr needs exactly one breakpoint")
            elif algorithm in ("nnwr1d", "monolithic") and not breaks:
                errs.append(f"geometry.breakpoints: {algorithm} needs at least one breakpoint")
            elif any(not dom[0] < b < dom[1] for b in breaks):
                errs.append("geometry.breakpoints: must lie strictly inside the domain")
        elif algorithm == "nnwr2d":
            for key in ("split", "y_extent", "dy"):
                if key not in geo:
                    errs.append(f"geometry.{key}: required for nnwr2d")
            split = geo.get("split")
            if "split" in geo and not (_number(split) and dom[0] < split < dom[1]):
                errs.append("geometry.split: must lie strictly inside the domain")
            if not _interval(geo.get("y_extent", [0.0, 1.0])):
                errs.append("geometry.y_extent: expected [y0, y1] with y0 < y1")
            for key in ("kappa", "dx", "dy"):
                if isinstance(geo.get(key), list):
                    errs.append(f"geometry.{key}: nnwr2d takes a single shared {key}")

    tm = raw["time"]
    _check_keys(tm, {"order", "horizon", "steps", "grading"}, {"order", "horizon", "steps"}, "time", errs)
    if isinstance(tm, dict):
        order = tm.get("order", 0.5)
        if not (_number(order) and 0.0 < order < 2.0):
            errs.append(f"time.order: must lie in (0, 2), got {order!r}")
        horizon = tm.get("horizon", 1.0)
        if not (_number(horizon) and horizon > 0):
            errs.append("time.horizon: must be a positive number")
        steps = tm.get("steps", 1)
        if not (_number(steps, integer=True) and steps >= 1):
            errs.append("time.steps: must be a positive integer")
        grading = tm.get("grading", "auto")
        if grading != "auto" and not (_number(grading) and grading >= 1.0):
            errs.append('time.grading: must be "auto" or a number >= 1')
        elif grading != "auto" and grading > 1.0 and _number(order) and 1.0 < order < 2.0:
            errs.append("time.grading: the wave scheme (order in (1, 2)) needs a uniform "
                        f"mesh, grading 1, got {grading!r}")

    rel = raw["relaxation"]
    _check_keys(rel, {"theta"}, {"theta"}, "relaxation", errs)
    thetas = ()
    if isinstance(rel, dict) and "theta" in rel:
        th = rel["theta"]
        members = th if isinstance(th, (list, tuple)) else [th]
        if not members:
            errs.append("relaxation.theta: the sweep list is empty")
        for m in members:
            if m == "optimal":
                continue
            if not (_number(m) and 0.0 < m <= 1.0):
                errs.append(f"relaxation.theta: members must be 'optimal' or in (0, 1], got {m!r}")
        thetas = tuple(members)

    run = raw["run"]
    run_keys = {"tolerance", "max_iter", "mode", "initial_guess", "source", "initial_condition"}
    _check_keys(run, run_keys, {"tolerance", "max_iter", "mode"}, "run", errs)
    mode = "error_equation"
    if isinstance(run, dict):
        tol = run.get("tolerance", 1.0)
        if not (_number(tol) and tol > 0):
            errs.append("run.tolerance: must be a positive number")
        max_iter = run.get("max_iter", 1)
        if not (_number(max_iter, integer=True) and max_iter >= 1):
            errs.append("run.max_iter: must be a positive integer")
        mode = run.get("mode", "error_equation")
        if mode not in ("error_equation", "forced"):
            errs.append(f'run.mode: must be "error_equation" or "forced", got {mode!r}')
        ig = run.get("initial_guess", "unit")
        if ig != "unit" and not _number(ig):
            errs.append('run.initial_guess: must be "unit" or a number')
        # tuples, so that an unhashable value is a miss and not a TypeError
        if run.get("source", "zero") not in tuple(SOURCES):
            errs.append(f"run.source: unknown name {run.get('source')!r}")
        ics = INITIAL_CONDITIONS_2D if algorithm == "nnwr2d" else INITIAL_CONDITIONS
        if run.get("initial_condition", "zero") not in tuple(ics):
            errs.append(
                f"run.initial_condition: unknown name {run.get('initial_condition')!r} "
                f"for {algorithm} (choose from {sorted(ics)})"
            )

    out = raw.get("output", {})
    _check_keys(out, {"stem"}, set(), "output", errs)
    stem = out.get("stem", "run") if isinstance(out, dict) else "run"
    if not isinstance(stem, str):
        errs.append("output.stem: must be a string")
    elif stem in ("", ".", "..") or set(stem) & {os.sep, os.altsep, "\0"}:
        errs.append(f"output.stem: must be a file name without a directory part, got {stem!r}")
    elif not any(e.startswith("relaxation.") for e in errs):
        files = {}  # two members with one tag would write one file
        for m in thetas:
            name = f"{stem}_{_tag(m)}.csv"
            if name in files:
                errs.append(
                    f"relaxation.theta: members {files[name]!r} and {m!r} both write {name}")
            files[name] = m
        try:  # a run opens <name>.part first; NAME_MAX is 255 bytes
            fits = all(len(os.fsencode(name + ".part")) <= 255 for name in files)
        except UnicodeEncodeError:
            fits = False
        if not fits:
            errs.append("output.stem: each CSV name <stem>_<tag>.csv must encode to at most "
                        "250 bytes")

    if not errs:  # the values are well formed; build the solver config, then its mesh
        ics = INITIAL_CONDITIONS_2D if algorithm == "nnwr2d" else INITIAL_CONDITIONS
        source = SOURCES[run.get("source", "zero")]
        ig = run.get("initial_guess", "unit")
        common = dict(
            order=float(tm["order"]), horizon=float(tm["horizon"]), n_steps=int(tm["steps"]),
            grading=tm.get("grading", "auto"), tolerance=float(run["tolerance"]),
            max_iter=int(run["max_iter"]), mode=mode, theta=thetas[0],
            initial_guess=1.0 if ig == "unit" else float(ig), source=source,
            initial_condition=ics[run.get("initial_condition", "zero")])
        if algorithm == "nnwr2d":
            common.update(y_extent=tuple(geo["y_extent"]), dy=geo["dy"],
                          source=None if source is None else (lambda x, y, t: source(x, t)))
        breaks = [geo["split"]] if algorithm == "nnwr2d" else geo["breakpoints"]
        config_class = {"dnwr": DnwrConfig, "nnwr2d": Nnwr2dConfig}.get(algorithm, NnwrConfig)
        where = "geometry"
        try:
            run_cfg = config_class(partition=build_partition(geo["domain"], breaks, geo["kappa"],
                                                             geo["dx"]), **common)
            where = "time.grading"
            run_cfg.time_mesh()
        except ValueError as exc:
            errs.append(f"{where}: {exc}")
    if errs:
        raise ConfigError(errs)
    return ExperimentConfig(algorithm=algorithm, run=run_cfg, thetas=thetas, stem=stem)


def parse_config(path) -> ExperimentConfig:
    """Load and validate a JSON experiment description."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError([f"not valid JSON: {exc}"]) from exc
    return config_from_dict(raw)


# ---------------------------------------------------------------------------
# Running experiments
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_csv(path, rows):
    tmp = path + ".part"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(CSV_HEADER + "\n")
            for k, ifc, err, bound, theta, order in rows:
                btxt = "" if bound is None else _fmt(bound)
                fh.write(f"{k},{ifc},{_fmt(err)},{btxt},{_fmt(theta)},{_fmt(order)}\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
    return path


def _tag(member) -> str:
    """File-name tag of a sweep member; distinct tags keep members' CSVs apart."""
    return "theta_optimal" if member == "optimal" else f"theta_{float(member):g}"


def _run_members(cfg: ExperimentConfig, out_dir, paths):
    """Run every sweep member in one driver call, appending each CSV path written."""
    run_cfg = cfg.run
    names = [os.path.join(out_dir, f"{cfg.stem}_{_tag(m)}.csv") for m in cfg.thetas]
    nu = run_cfg.order / 2.0
    lengths = tuple(s.length for s in run_cfg.partition.subdomains)
    kappas = run_cfg.partition.kappas

    # Each branch picks the driver and the envelope bound(k); the drivers
    # are looked up here, at call time.
    if cfg.algorithm == "monolithic":
        solve_monolithic(run_cfg.partition, run_cfg.build_weights(), f=run_cfg.source,
                         u0=run_cfg.initial_condition)
        rows = [(0, m, 0.0, None, 0.0, run_cfg.order) for m in range(len(lengths) - 1)]
        paths.extend(_write_csv(name, rows) for name in names)
        return
    if cfg.algorithm == "nnwr2d":
        driver = run_nnwr_2d
        params = Nnwr2dBoundParams(nu=nu, a=lengths[0], b=lengths[1], kappa=kappas[0],
                                   horizon=run_cfg.horizon)
        bound = lambda k: nnwr2d_error_bound(params, k)  # noqa: E731
    elif cfg.algorithm == "dnwr":
        driver = run_dnwr
        params = DnwrBoundParams(nu=nu, a=lengths[0], b=lengths[1], kappa1=kappas[0],
                                 kappa2=kappas[1], horizon=run_cfg.horizon)
        bound = lambda k: dnwr_error_bound(params, k)  # noqa: E731
    else:
        driver = run_nnwr_1d
        params = NnwrBoundParams(nu=nu, lengths=lengths, kappas=kappas, horizon=run_cfg.horizon)
        bound = lambda k: nnwr_error_bound(params, k)  # noqa: E731

    # more members run in turn in one call, over one build; a lone one takes
    # the plain call, which returns its RunResult itself (perfbench/worker.py
    # wraps that call and reads the result's traces)
    results = driver(run_cfg, members=cfg.thetas) if len(cfg.thetas) > 1 else [driver(run_cfg)]
    optimal = run_cfg.optimal_theta()
    for name, result in zip(names, results):
        report = result.report
        # the envelope applies to error equations with every interface at its optimum
        enveloped = run_cfg.error_mode and all(
            math.isclose(t, o) for t, o in zip(report.theta, optimal))
        rows = []
        for k, errors in enumerate(report.errors, start=1):
            b = _bound_or_none(bound, k) if enveloped else None
            rows.extend((k, m, float(e), b, float(report.theta[m]), run_cfg.order)
                        for m, e in enumerate(errors))
        paths.append(_write_csv(name, rows))


def _bound_or_none(bound, k):
    try:
        return bound(k)
    except BoundNotApplicableError:
        return None


def remove_outputs(paths):
    """Delete the CSVs a failed run wrote, those that are still there."""
    for path in paths:
        if os.path.exists(path):
            os.remove(path)


def run_experiment(cfg: ExperimentConfig, out_dir: str) -> list:
    """Execute every sweep member and return the list of CSV paths written.

    The members run in turn in one driver call, which builds the sweep's
    operators once for all of them, and each writes its own CSV.  If the run
    raises, the CSVs already written are removed.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    try:
        _run_members(cfg, out_dir, paths)
    except BaseException:
        remove_outputs(paths)
        raise
    return paths


# ---------------------------------------------------------------------------
# Presets: the convergence studies at desk scale
# ---------------------------------------------------------------------------

def _preset_dnwr_theta_sweep():
    return {
        "algorithm": "dnwr",
        "geometry": {"domain": [0.0, 2.0], "breakpoints": [1.0], "kappa": 1.0, "dx": 0.02},
        "time": {"order": 0.5, "horizon": 1.0, "steps": 64, "grading": "auto"},
        "relaxation": {"theta": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, "optimal"]},
        "run": {"tolerance": 1e-12, "max_iter": 60, "mode": "error_equation"},
        "output": {"stem": "dnwr_theta_sweep"},
    }


def _preset_dnwr_theta_sweep_wave():
    cfg = _preset_dnwr_theta_sweep()
    cfg["geometry"]["breakpoints"] = [0.5]
    cfg["time"]["order"] = 1.5
    cfg["output"] = {"stem": "dnwr_theta_sweep_wave"}
    return cfg


def _preset_dnwr_hetero_grid():
    return {
        "algorithm": "dnwr",
        "geometry": {"domain": [0.0, 2.0], "breakpoints": [1.0], "kappa": [1.0, 0.25],
                     "dx": [0.01, 0.005]},
        "time": {"order": 0.5, "horizon": 1.0, "steps": 64, "grading": "auto"},
        "relaxation": {"theta": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, "optimal"]},
        "run": {"tolerance": 1e-12, "max_iter": 60, "mode": "error_equation"},
        "output": {"stem": "dnwr_hetero_grid"},
    }


def _dnwr_bounds(orders, stem):
    return [
        {
            "algorithm": "dnwr",
            "geometry": {"domain": [0.0, 2.0], "breakpoints": [1.5], "kappa": [1.0, 0.25],
                         "dx": 0.01},
            "time": {"order": order, "horizon": 1.0, "steps": 64, "grading": "auto"},
            "relaxation": {"theta": ["optimal"]},
            "run": {"tolerance": 1e-14, "max_iter": 10, "mode": "error_equation"},
            "output": {"stem": f"{stem}_order{order}"},
        }
        for order in orders
    ]


def _preset_nnwr_theta_sweep(order):
    return {
        "algorithm": "nnwr1d",
        "geometry": {"domain": [0.0, 16.0], "breakpoints": [3.2, 6.4, 9.6, 12.8],
                     "kappa": 1.0, "dx": 0.02},
        "time": {"order": order, "horizon": 4.0, "steps": 96, "grading": "auto"},
        "relaxation": {"theta": [0.25, 0.4, 0.6, 0.8]},
        "run": {"tolerance": 1e-12, "max_iter": 40, "mode": "error_equation"},
        "output": {"stem": f"nnwr_theta_sweep_order{order}"},
    }


def _preset_nnwr_unequal():
    return {
        "algorithm": "nnwr1d",
        "geometry": {"domain": [0.0, 16.0], "breakpoints": [3.5, 5.5, 10.0, 12.0],
                     "kappa": 1.0, "dx": 0.02},
        "time": {"order": 0.5, "horizon": 4.0, "steps": 96, "grading": "auto"},
        "relaxation": {"theta": [0.25, 0.4, 0.6, 0.8]},
        "run": {"tolerance": 1e-12, "max_iter": 40, "mode": "error_equation"},
        "output": {"stem": "nnwr_unequal"},
    }


def _preset_nnwr_kappa():
    return {
        "algorithm": "nnwr1d",
        "geometry": {"domain": [0.0, 16.0], "breakpoints": [3.5, 5.5, 10.0, 12.0],
                     "kappa": [0.25, 1.0, 0.25, 4.0, 1.0], "dx": 0.02},
        "time": {"order": 0.5, "horizon": 4.0, "steps": 96, "grading": "auto"},
        "relaxation": {"theta": ["optimal"]},
        "run": {"tolerance": 1e-12, "max_iter": 40, "mode": "error_equation"},
        "output": {"stem": "nnwr_kappa"},
    }


def table2_kappas(n_sub: int) -> list:
    """Mirrored per-subdomain coefficients 1/4**(i-1), i = 1..N/2."""
    half = [4.0 ** (-i) for i in range(n_sub // 2)]
    return half + half[::-1]


def _nnwr_table2(orders, subdomain_counts=(4, 8, 12)):
    runs = []
    for n_sub in subdomain_counts:
        width = 16.0 / n_sub
        dx = width / round(width / 0.005)  # nearest step that tiles the subdomains
        for order in orders:
            runs.append({
                "algorithm": "nnwr1d",
                "geometry": {
                    "domain": [0.0, 16.0],
                    "breakpoints": [width * i for i in range(1, n_sub)],
                    "kappa": table2_kappas(n_sub),
                    "dx": dx,
                },
                "time": {"order": order, "horizon": 1.0 if order < 1 else 4.0,
                         "steps": 64, "grading": 1.0},
                "relaxation": {"theta": ["optimal"]},
                "run": {"tolerance": 1e-14, "max_iter": 12, "mode": "error_equation"},
                "output": {"stem": f"nnwr_table2_N{n_sub}_order{order}"},
            })
    return runs


def _preset_2d(order):
    return {
        "algorithm": "nnwr2d",
        "geometry": {"domain": [0.0, 2.0], "split": 0.5, "y_extent": [-5.0, 5.0],
                     "kappa": 1.0, "dx": 0.02, "dy": 0.2},
        "time": {"order": order, "horizon": 1.0, "steps": 64, "grading": "auto"},
        "relaxation": {"theta": ["optimal"]},
        "run": {"tolerance": 1e-12, "max_iter": 6, "mode": "error_equation"},
        "output": {"stem": f"nnwr2d_order{order}"},
    }


PRESETS = {
    "fig_dnwr_theta_sweep": lambda: [_preset_dnwr_theta_sweep()],
    "fig_dnwr_theta_sweep_wave": lambda: [_preset_dnwr_theta_sweep_wave()],
    "fig_dnwr_hetero_grid": lambda: [_preset_dnwr_hetero_grid()],
    "fig_dnwr_bounds_sub": lambda: _dnwr_bounds((0.2, 0.5, 0.8), "dnwr_bounds_sub"),
    "fig_dnwr_bounds_wave": lambda: _dnwr_bounds((1.2, 1.5, 1.8), "dnwr_bounds_wave"),
    "fig_nnwr_theta_sweep": lambda: [_preset_nnwr_theta_sweep(0.5)],
    "fig_nnwr_theta_sweep_wave": lambda: [_preset_nnwr_theta_sweep(1.5)],
    "fig_nnwr_unequal": lambda: [_preset_nnwr_unequal()],
    "fig_nnwr_kappa": lambda: [_preset_nnwr_kappa()],
    "fig_nnwr_table2": lambda: _nnwr_table2((0.2, 0.5, 0.8)),
    "fig_2d": lambda: [_preset_2d(0.5)],
    "fig_2d_wave": lambda: [_preset_2d(1.5)],
}


def preset_config(name: str) -> list:
    """Validated ExperimentConfig list for a named preset."""
    if name not in PRESETS:
        raise ConfigError([f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"])
    return [config_from_dict(raw) for raw in PRESETS[name]()]
