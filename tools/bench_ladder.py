"""Before/after timings of two checkouts, layer by layer, as one JSON file.

Usage, from the repository root:

    python3 tools/bench_ladder.py --before DIR --after DIR [--out FILE]

Each DIR is a checkout of the repository; its ``src`` goes on PYTHONPATH of
every process started for it.  Before and after runs alternate, each in a
fresh interpreter, so that a drifting host hits both alike.  The cases:

- L1, DNWR: one subdomain march on the DNWR subdomains of the ``sweeps-1d``
  workload at seed 1 (77 and 25 nodes, 64 steps): the Dirichlet solve on
  the left, the Neumann solve on the right, with 1 and with 8 members.
- L1, NNWR-1D: one Dirichlet phase (with the source and the initial
  condition, tabulated beforehand) and one Neumann phase over the 8 × 401
  nodes of the ``sweeps-1d`` NNWR-1D config at seed 1 (32 steps), each one
  stacked march.
- L2: one sweep of that DNWR config, with 1 member and with its 8, and one
  sweep of that NNWR-1D config.  Also the whole θ run of that DNWR config:
  its 8 members to its tolerance or ``max_iter``, as the workload runs them
  (a one-sweep case never reaches the sweeps after the first ``ceil(N/4)``).
  And one NNWR-2D sweep: ``harness.run_experiment`` on the ``nnwr2d-strip``
  workload's config at seed 1 with ``run.max_iter`` 1 (its CSV and bound
  included), which reads the same on any checkout whatever its 2D config
  classes look like.
- L3: the six θ-list presets, the two DNWR bounds presets,
  ``fig_nnwr_kappa``, ``fig_nnwr_table2``, ``fig_2d`` and ``fig_2d_wave`` through
  ``python -m fracwr.cli``, timed as whole processes and, beside that
  (``in_process``), as ``harness.run_experiment`` over the preset's configs
  in a fresh interpreter after its imports: the start-up of a process takes
  longer than the run of a DNWR preset.
- L4: the Tier-1 suite of each checkout (each runs its own tests).

Every case runs ``REPEATS`` times on each side, and each repeat is a pair:
one run per side, with the side that goes first alternating from repeat to
repeat.  A repeat of an L1 or L2 case is the median of several calls after
a warm-up call; L3 and L4 time whole processes, and an L3 repeat also one
in-process run.  Every figure is the median over the repeats, with the
quartiles and the extremes.  ``wins`` counts the pairs in which "after" was
faster.  A row (and an L3 row's ``in_process`` part) reads
``"no_change": false`` only when "after" won every pair or none and the
before and after interquartile ranges are separate; otherwise its speed-up
is within the spread of the repeats.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPEATS = 5
PRESETS = ("fig_dnwr_theta_sweep", "fig_dnwr_theta_sweep_wave", "fig_dnwr_hetero_grid",
           "fig_dnwr_bounds_sub", "fig_dnwr_bounds_wave", "fig_nnwr_theta_sweep",
           "fig_nnwr_theta_sweep_wave", "fig_nnwr_unequal", "fig_nnwr_kappa", "fig_nnwr_table2",
           "fig_2d", "fig_2d_wave")
IN_PROCESS = {  # case: (layer, calls per repeat)
    "dnwr-dirichlet-1": ("L1", 30), "dnwr-dirichlet-8": ("L1", 30),
    "dnwr-neumann-1": ("L1", 30), "dnwr-neumann-8": ("L1", 30),
    "nnwr1d-dirichlet-8x401": ("L1", 20), "nnwr1d-neumann-8x401": ("L1", 20),
    "dnwr-sweep-1": ("L2", 10), "dnwr-sweep-8": ("L2", 10), "dnwr-run-8": ("L2", 3),
    "nnwr1d-sweep-8x401": ("L2", 10), "nnwr2d-sweep": ("L2", 10),
}


def _raw(index, workload="sweeps-1d"):
    """The raw JSON config ``index`` of ``workload`` at seed 1."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads

    return workloads.make_configs(workload, 1)[index]


def _experiment(index, workload="sweeps-1d"):
    """The config ``index`` of ``workload`` at seed 1, validated."""
    from fracwr import harness

    return harness.config_from_dict(_raw(index, workload))


def _nnwr2d_sweep():
    """One NNWR-2D sweep of the nnwr2d-strip config at seed 1, as the harness runs it."""
    from fracwr import harness

    raw = _raw(0, "nnwr2d-strip")
    raw["run"]["max_iter"] = 1
    exp = harness.config_from_dict(raw)
    out = tempfile.TemporaryDirectory(prefix="ladder-")  # removed when the process ends
    return lambda: harness.run_experiment(exp, out.name)


def _dnwr_setup(whole_run=False):
    """The sweeps-1d DNWR config at seed 1, one sweep or its whole run, and its eight weights."""
    from dataclasses import replace

    exp = _experiment(0)
    return (exp.run if whole_run else replace(exp.run, max_iter=1)), list(exp.thetas)


def _nnwr_case(kind):
    """One NNWR-1D phase or sweep of the sweeps-1d config at seed 1."""
    from dataclasses import replace

    import numpy as np
    from fracwr import solver
    from fracwr.nnwr import run_nnwr_1d

    cfg = replace(_experiment(1).run, max_iter=1)
    if kind == "nnwr1d-sweep":
        return lambda: run_nnwr_1d(cfg)
    weights = cfg.build_weights()
    subs = cfg.partition.subdomains
    traces = [None, *np.random.default_rng(1).standard_normal((len(subs) - 1, cfg.n_steps)),
              None]
    if kind == "nnwr1d-dirichlet":
        solve = solver.solve_dirichlet_waveform
        f = [np.array([cfg.source(s.nodes, t) for t in weights.eval_times]) for s in subs]
        u0 = [cfg.initial_condition(s.nodes) for s in subs]
    else:
        solve, f, u0 = solver.solve_neumann_waveform, [None] * len(subs), [None] * len(subs)
    return lambda: solve(subs, weights, traces[:-1], traces[1:], f=f, u0=u0)


def _case(name):
    """The callable that one call of ``name`` times, in this interpreter."""
    from dataclasses import replace

    import numpy as np
    from fracwr import solver
    from fracwr.dnwr import run_dnwr

    if name == "nnwr2d-sweep":
        return _nnwr2d_sweep()
    if name.startswith("nnwr1d-"):
        return _nnwr_case(name.rsplit("-", 1)[0])
    kind, width = name.rsplit("-", 1)
    cfg, thetas = _dnwr_setup(whole_run=kind == "dnwr-run")
    weights = cfg.build_weights()
    sub1, sub2 = cfg.partition.subdomains
    m = int(width)
    if kind in ("dnwr-sweep", "dnwr-run"):
        if m == 1:
            return lambda: run_dnwr(replace(cfg, theta="optimal"))
        return lambda: run_dnwr(cfg, members=thetas)
    traces = np.random.default_rng(1).standard_normal((m, cfg.n_steps))
    if kind == "dnwr-dirichlet":
        solve = lambda h, **kw: solver.solve_dirichlet_waveform(sub1, weights, None, h, **kw)  # noqa: E731
    else:
        solve = lambda h, **kw: solver.solve_neumann_waveform(sub2, weights, h, None, **kw)  # noqa: E731
    if m == 1:
        return lambda: solve(traces[0])
    return lambda: solve(traces, members=m)


def _run_preset(name):
    """Print the seconds of ``harness.run_experiment`` over the configs of preset ``name``."""
    from fracwr import harness

    configs = harness.preset_config(name)
    with tempfile.TemporaryDirectory(prefix="ladder-") as out:
        t0 = time.perf_counter()
        for cfg in configs:
            harness.run_experiment(cfg, out)
        print(json.dumps(time.perf_counter() - t0))


def _run_case(name):
    if name in PRESETS:
        return _run_preset(name)
    fn = _case(name)
    fn()
    times = []
    for _ in range(IN_PROCESS[name][1]):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    print(json.dumps(statistics.median(times)))


def _env(tree):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(tree, "src")
    return env


def _time(tree, case, in_process=False):
    """Seconds of one repeat of ``case`` against the checkout ``tree``.

    ``in_process`` times an L3 preset's run after the imports instead of its process.
    """
    if case in IN_PROCESS or in_process:
        out = subprocess.run([sys.executable, os.path.abspath(__file__), "--case", case],
                             env=_env(tree), capture_output=True, text=True, check=True)
        return json.loads(out.stdout.splitlines()[-1])
    with tempfile.TemporaryDirectory(prefix="ladder-") as out:
        if case == "tier1":
            cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                   "--continue-on-collection-errors"]
        else:
            cmd = [sys.executable, "-m", "fracwr.cli", "--preset", case, "--out", out]
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=tree, env=_env(tree), capture_output=True, check=True)
        return time.perf_counter() - t0


def _summary(times):
    q1, med, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return {"median_s": med, "q1_s": q1, "q3_s": q3, "min_s": min(times), "max_s": max(times)}


def _compare(before, after):
    """The two sides' summaries, the speed-up of the medians, the paired wins of
    "after", and whether the change is within the spread of the repeats."""
    b, a = _summary(before), _summary(after)
    wins = sum(t_after < t_before for t_before, t_after in zip(before, after))
    overlap = b["q1_s"] <= a["q3_s"] and a["q1_s"] <= b["q3_s"]
    return {"before": b, "after": a, "speedup": b["median_s"] / a["median_s"], "wins": wins,
            "no_change": overlap or 0 < wins < len(before)}


def _revision(tree):
    digest, lines = hashlib.sha256(), 0
    src = os.path.join(tree, "src", "fracwr")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                text = fh.read()
            digest.update(name.encode() + b"\0" + text)
            lines += text.count(b"\n")
    rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tree, capture_output=True,
                         text=True).stdout.strip() or None
    return {"git_revision": rev, "src_sha256": digest.hexdigest()[:16], "src_lines": lines}


def _machine():
    import importlib.util

    import numpy as np
    import scipy

    cpu = "unknown"
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "numba_present": importlib.util.find_spec("numba") is not None}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--before")
    parser.add_argument("--after")
    parser.add_argument("--out")
    parser.add_argument("--case", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.case:
        return _run_case(args.case)
    cases = [(layer, c) for c, (layer, _) in IN_PROCESS.items()]
    cases += [("L3", p) for p in PRESETS] + [("L4", "tier1")]
    results = []
    for layer, case in cases:
        times = {"before": [], "after": []}
        inner = {"before": [], "after": []}
        for r in range(REPEATS):  # one pair per repeat; the side that goes first alternates
            for side in ("before", "after") if r % 2 == 0 else ("after", "before"):
                times[side].append(_time(getattr(args, side), case))
                if layer == "L3":
                    inner[side].append(_time(getattr(args, side), case, in_process=True))
        row = {"layer": layer, "case": case, **_compare(times["before"], times["after"])}
        if layer == "L3":
            row["in_process"] = _compare(inner["before"], inner["after"])
        print(json.dumps(row), file=sys.stderr)
        results.append(row)
    doc = {"machine": _machine(), "repeats": REPEATS,
           "before": _revision(args.before), "after": _revision(args.after), "results": results}
    text = json.dumps(doc, indent=1) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
