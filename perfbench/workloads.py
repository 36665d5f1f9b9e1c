"""Seeded workload definitions.

A workload is a list of experiment configs that one run executes in turn,
as a multi-config preset does.  It fixes the work shape (mesh sizes,
subdomain counts, step counts, weight lists, tolerance, ``max_iter``) and
draws only the physical data of its regime from the seed: the coefficient,
breakpoints snapped to the mesh and the fractional order.  A seed therefore
changes the work only through the sweep count, which every result reports.
The regimes are narrow enough that the sweep count, and with it the work,
varies little across seeds.  The DNWR regime is also kept where the program's
DNWR envelope holds at the workload's mesh (see ``DNWR_REGIME``), because the
gate checks that envelope on every run and a benchmark run must not fail on
the unchanged program.

Each workload also names the program boundaries it must reach, so the tracer
can tell a boundary that went quiet from one the workload never uses.
"""

import json
import math
import random

WORKLOADS = ("sweeps-1d", "nnwr2d-strip")


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _snap(rng, lo_cells, hi_cells, step):
    """A point of the grid ``step * n`` with n drawn from [lo_cells, hi_cells]."""
    return round(step * rng.randint(lo_cells, hi_cells), 12)


def _sig(x):
    """Six significant digits, so the JSON stays readable."""
    return float(f"{x:.6g}")


# Around acceptance criterion 3's geometry (kappa2 = 0.25, breakpoint 1.5).
# Here B/A <= 0.67 and the envelope's per-sweep factor 2*gain*(A-B)/A is at
# least 0.44, well above the linear rate the discrete iteration settles to at
# dx 0.02 and 64 steps (about 0.1), and every gated row sits below 0.44 of its
# limit.  Closer to A = B (breakpoint 1.42 with kappa2 0.2, or 1.48 with 0.22)
# the envelope's factor falls below that discretisation rate and the measured
# error exceeds the envelope: a known limit of theory.dnwr_error_bound, pinned
# by a strict xfail in perfbench/tests and described in METRICS.md.
DNWR_REGIME = {"breakpoint_cells": (75, 78), "kappa2": (0.25, 0.30), "order": (0.45, 0.55)}


def _dnwr_theta(rng):
    dx = 0.02
    lo, hi = DNWR_REGIME["breakpoint_cells"]
    return [{
        "algorithm": "dnwr",
        "geometry": {
            "domain": [0.0, 2.0],
            "breakpoints": [_snap(rng, lo, hi, dx)],  # 1.50 .. 1.56
            "kappa": [1.0, _sig(_log_uniform(rng, *DNWR_REGIME["kappa2"]))],
            "dx": dx,
        },
        "time": {"order": _sig(rng.uniform(*DNWR_REGIME["order"])), "horizon": 1.0,
                 "steps": 64, "grading": "auto"},
        "relaxation": {"theta": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, "optimal"]},
        "run": {"tolerance": 1e-12, "max_iter": 60, "mode": "error_equation"},
        "output": {"stem": "dnwr_theta"},
    }]


# Each run is kept to a few seconds (32 steps here, two sweeps in 2D) so that
# an invocation makes five or more runs: the host's speed drifts over seconds
# to minutes, and the median of several short runs is steadier than one long
# run (METRICS.md, Noise).  Orders from 1.51 on all take 10 sweeps;
# below about 1.508 the run stops after 9.
def _nnwr1d_forced(rng):
    half = [4.0 ** (-i) for i in range(4)]  # harness.table2_kappas(8)
    return [{
        "algorithm": "nnwr1d",
        "geometry": {
            "domain": [0.0, 16.0],
            "breakpoints": [2.0 * i for i in range(1, 8)],
            "kappa": half + half[::-1],
            "dx": 0.005,
        },
        "time": {"order": _sig(rng.uniform(1.51, 1.55)), "horizon": 4.0, "steps": 32,
                 "grading": 1.0},
        "relaxation": {"theta": ["optimal"]},
        "run": {"tolerance": 1e-10, "max_iter": 40, "mode": "forced",
                "source": "sin_pi_x_over_16", "initial_condition": "parabola_16"},
        "output": {"stem": "nnwr1d_forced"},
    }]


def _nnwr2d_strip(rng):
    return [{
        "algorithm": "nnwr2d",
        "geometry": {
            "domain": [0.0, 2.0],
            "split": _snap(rng, 23, 27, 0.02),  # 0.46 .. 0.54
            "y_extent": [-5.0, 5.0],
            "kappa": _sig(_log_uniform(rng, 0.5, 2.0)),
            "dx": 0.02,
            "dy": 0.2,
        },
        "time": {"order": _sig(rng.uniform(0.4, 0.6)), "horizon": 1.0, "steps": 64,
                 "grading": "auto"},
        "relaxation": {"theta": ["optimal"]},
        "run": {"tolerance": 1e-12, "max_iter": 2, "mode": "error_equation"},
        "output": {"stem": "nnwr2d_strip"},
    }]


_BUILDERS = {
    # The two 1D configs share one workload: both spend ~90% of their time in
    # kernels.step_solve and none in splu, and one long invocation per seed
    # is steadier on a drifting host than two short ones (METRICS.md, Noise).
    "sweeps-1d": lambda rng: _dnwr_theta(rng) + _nnwr1d_forced(rng),
    "nnwr2d-strip": _nnwr2d_strip,
}

# Boundaries (tracer names) each workload must reach at least once.
USES = {
    "sweeps-1d": (
        "kernels.step_solve", "solver.solve_waveform", "dnwr.run", "dnwr.dirichlet",
        "dnwr.neumann", "nnwr.1d.run", "nnwr.1d.dirichlet", "nnwr.1d.neumann",
        "fractional_time.caputo_weights", "geometry.interface_flux",
        "geometry.laplacian_apply", "theory.bound", "harness.run_experiment",
    ),
    "nnwr2d-strip": (
        "solver.splu", "nnwr.2d.run", "nnwr.2d.dirichlet", "nnwr.2d.neumann",
        "fractional_time.caputo_weights", "geometry.interface_flux", "theory.bound",
        "harness.run_experiment",
    ),
}


def make_configs(workload: str, seed: int) -> list:
    """The raw JSON configs of ``workload`` for ``seed`` (same seed, same list)."""
    if workload not in _BUILDERS:
        raise KeyError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))


def config_text(configs: list) -> str:
    """Canonical JSON text of a workload's configs, as the benchmark writes it."""
    return json.dumps(configs, sort_keys=True, indent=1)


def csv_names(cfg: dict) -> list:
    """File names ``run_experiment`` writes for ``cfg``, one per relaxation weight."""
    th = cfg["relaxation"]["theta"]
    stem = cfg.get("output", {}).get("stem", "run")
    tags = ["optimal" if m == "optimal" else f"{float(m):g}"
            for m in (th if isinstance(th, list) else [th])]
    return [f"{stem}_theta_{tag}.csv" for tag in tags]
