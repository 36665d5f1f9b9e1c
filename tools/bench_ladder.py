"""Before/after timings of two checkouts, layer by layer, as one JSON file.

Usage, from the repository root:

    python3 tools/bench_ladder.py --before DIR --after DIR [--out FILE]

Each DIR is a checkout of the repository; its ``src`` goes on PYTHONPATH of
every process started for it.  Before and after runs alternate, each in a
fresh interpreter, so that a drifting host hits both alike.  The cases:

- L0: one ``kernels.step_solve`` call, one time level of a march, at each
  stacked shape the benchmark workloads use, the last level of a real
  one-member march at seed 1: the 8 × 401 nodes of the ``sweeps-1d``
  NNWR-1D config (its Neumann phase, random fluxes), one line of 77 and one
  of 25 nodes (the DNWR subdomains of ``sweeps-1d``, Dirichlet and
  Neumann), and the 49 sine modes × (24 + 78) nodes of the
  ``nnwr2d-strip`` strips (the Neumann phase of its first sweep).  Each row
  re-times that last call, on the march's ``Stack`` as the march left it:
  the level's division, with the Sherman-Morrison terms of its flux ends,
  over the lines' interior coefficients.
- L1, DNWR: one subdomain march on the DNWR subdomains of the ``sweeps-1d``
  workload at seed 1 (77 and 25 nodes, 64 steps): the Dirichlet solve on
  the left, the Neumann solve on the right.
- L1, NNWR-1D: one Dirichlet phase (with the source and the initial
  condition, tabulated beforehand) and one Neumann phase over the 8 × 401
  nodes of the ``sweeps-1d`` NNWR-1D config at seed 1 (32 steps), each one
  stacked march.
- L1, graded: one Dirichlet march and one Neumann march at the shape of
  ``fig_nnwr_unequal`` (5 subdomains of 176, 101, 226, 101 and 201 nodes,
  96 steps, auto grading at order 0.5), random traces and fluxes, as a
  marched sweep of that preset marches each member's phases; and the split
  of each: the time of its ``kernels.step_solve`` calls (``-level``) and
  the rest of the march (``-rest``: the history products, the right-hand
  sides and moving the results back).
- L1, NNWR-2D: one Dirichlet phase and one Neumann phase of the
  ``nnwr2d-strip`` config at seed 1, one march over both strips and all 49
  sine modes (64 steps, graded), random mode traces and fluxes, and the
  same ``-level`` and ``-rest`` split of each.

  Every march asks for the nodes its driver reads, the three nearest each
  end (``trim``), and marches one member.  It passes a sequence of
  subdomains and one end array per subdomain; on a checkout whose solver
  takes a member count the end arrays gain a member axis of one and the
  call ``members=1`` (``_one_member``).
- L2: one sweep of that DNWR config, with 1 member and with its 8, and one
  sweep of that NNWR-1D config.  Also the whole θ run of that DNWR config:
  its 8 members to its tolerance or ``max_iter``, as the workload runs them.
  That DNWR mesh is graded; the whole run's ``max_iter`` 60 exceeds the
  cost of building ``S`` from the subdomain maps (``maps.build_cost``, about
  two phase marches), so it builds ``S`` before its first sweep and applies
  it in every sweep, while a one-sweep run marches.  The NNWR-1D mesh is
  uniform, but one sweep (two phase marches) does not repay the build of
  its two phases and the march of ``c`` (two phase marches in forced mode),
  so its one-sweep run marches too.  And one NNWR-2D sweep:
  ``harness.run_experiment`` on the ``nnwr2d-strip`` workload's config at
  seed 1 with ``run.max_iter`` 1 (its CSV and bound included), which reads
  the same on any checkout whatever its 2D config classes look like.
- L2, operator: the operator build of that NNWR-1D config, as
  ``iteration._affine_part`` makes it before sweep 1 (its ``c`` included),
  and one product sweep with it (one member, random traces).  The build is
  ``maps.interface_maps`` and ``maps.nnwr_operators``, one Dirichlet march
  with the data and one march of each phase that checks its operator.  Also
  the build of ``S`` for the DNWR config of ``fig_dnwr_theta_sweep_wave``
  (64 steps, order 1.5, uniform) and for that ``sweeps-1d`` DNWR config
  (graded): ``maps.dnwr_operator`` of ``maps.interface_maps``.
- L3: the six θ-list presets, the two DNWR bounds presets,
  ``fig_nnwr_kappa``, ``fig_nnwr_table2``, ``fig_2d`` and ``fig_2d_wave`` through
  ``python -m fracwr.cli``, timed as whole processes and, beside that
  (``in_process``), as ``harness.run_experiment`` over the preset's configs
  in a fresh interpreter after its imports: the start-up of a process takes
  longer than the run of a DNWR preset.  An ``in_process`` repeat is the
  best of ``PRESET_RUNS`` runs after one warm-up run, so that one slow run
  on a drifting host does not decide it.
- L4: the Tier-1 suite of each checkout (each runs its own tests).

Every case runs ``REPEATS`` times on each side, and each repeat is a pair:
one run per side, with the side that goes first alternating from repeat to
repeat.  A repeat of an L0, L1 or L2 case is the median of several calls
after a warm-up call: the calls its row lists, and more while they span
less than ``SPAN_S``, so that one slow stretch of the host does not decide
a sub-millisecond row.  L3 and L4 time whole processes, and an L3 repeat
also the in-process runs above.  Every figure is the median over the repeats, with the
quartiles and the extremes.  ``wins`` counts the pairs in which "after" was
faster.  A row (and an L3 row's ``in_process`` part) reads
``"no_change": false`` only when "after" won all pairs but at most one, or at
most one pair, and the two medians differ by more than the interquartile
range of "before"; otherwise its speed-up is within the spread of the
repeats.  With ``REPEATS`` = 10 an unchanged row passes the first test with
probability 22/1024, about 2%.
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
REPEATS = 10
SPAN_S = 0.01  # an in-process repeat makes its listed calls, and more until it spans this
PRESET_RUNS = 4  # in-process runs of an L3 preset per repeat, after one warm-up run
PRESETS = ("fig_dnwr_theta_sweep", "fig_dnwr_theta_sweep_wave", "fig_dnwr_hetero_grid",
           "fig_dnwr_bounds_sub", "fig_dnwr_bounds_wave", "fig_nnwr_theta_sweep",
           "fig_nnwr_theta_sweep_wave", "fig_nnwr_unequal", "fig_nnwr_kappa", "fig_nnwr_table2",
           "fig_2d", "fig_2d_wave")
IN_PROCESS = {  # case: (layer, calls per repeat)
    "step-8x401": ("L0", 500), "step-1x77": ("L0", 500), "step-1x25": ("L0", 500),
    "step-49x24+49x78": ("L0", 500),
    "dnwr-dirichlet-1": ("L1", 30), "dnwr-neumann-1": ("L1", 30),
    "nnwr1d-dirichlet-8x401": ("L1", 20), "nnwr1d-neumann-8x401": ("L1", 20),
    "unequal-dirichlet-1x5": ("L1", 10), "unequal-dirichlet-1x5-level": ("L1", 10),
    "unequal-dirichlet-1x5-rest": ("L1", 10), "unequal-neumann-1x5": ("L1", 10),
    "unequal-neumann-1x5-level": ("L1", 10), "unequal-neumann-1x5-rest": ("L1", 10),
    "nnwr2d-dirichlet-49x24+49x78": ("L1", 10),
    "nnwr2d-dirichlet-49x24+49x78-level": ("L1", 10),
    "nnwr2d-dirichlet-49x24+49x78-rest": ("L1", 10),
    "nnwr2d-neumann-49x24+49x78": ("L1", 10),
    "nnwr2d-neumann-49x24+49x78-level": ("L1", 10),
    "nnwr2d-neumann-49x24+49x78-rest": ("L1", 10),
    "dnwr-sweep-1": ("L2", 10), "dnwr-sweep-8": ("L2", 10), "dnwr-run-8": ("L2", 3),
    "nnwr1d-sweep-8x401": ("L2", 10), "nnwr2d-sweep": ("L2", 10),
    "nnwr1d-build-8x401": ("L2", 5), "nnwr1d-product-8x401": ("L2", 200),
    "dnwr-build-wave": ("L2", 10), "dnwr-build-graded": ("L2", 10),
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


def _one_member(solve, ends):
    """The end arrays ``ends`` and the keywords of a one-member march of
    ``solve`` that returns the nodes its driver reads: on a checkout whose
    ``solve`` takes a member count, with a member axis of one and
    ``members=1``."""
    import inspect

    if "members" not in inspect.signature(solve).parameters:
        return ends, {"trim": True}
    return [None if e is None else e[None] for e in ends], {"trim": True, "members": 1}


def _unequal_case(name):
    """One graded march at the shape of fig_nnwr_unequal, or its split."""
    import numpy as np
    from fracwr import harness, solver

    cfg = harness.preset_config("fig_nnwr_unequal")[0].run
    weights = cfg.build_weights()
    subs = cfg.partition.subdomains
    solve = solver.solve_dirichlet_waveform if "dirichlet" in name else \
        solver.solve_neumann_waveform
    ends, kw = _one_member(solve, list(np.random.default_rng(1).standard_normal(
        (len(subs) - 1, cfg.n_steps))))
    ends = [None, *ends, None]
    return _split(name, lambda: solve(subs, weights, ends[:-1], ends[1:], **kw))


def _split(name, march):
    """``march``, or with a ``-level`` or ``-rest`` name a callable that
    marches once and returns the seconds of its ``kernels.step_solve`` calls
    or of the rest of the march."""
    from fracwr import kernels

    if not name.endswith(("-level", "-rest")):
        return march
    step = kernels.step_solve

    def split():
        spent = [0.0]

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return step(*args, **kwargs)
            finally:
                spent[0] += time.perf_counter() - t0

        kernels.step_solve = timed
        try:
            t0 = time.perf_counter()
            march()
            total = time.perf_counter() - t0
        finally:
            kernels.step_solve = step
        return spent[0] if name.endswith("-level") else total - spent[0]

    return split


def _nnwr2d_phase(name):
    """One NNWR-2D phase march of the nnwr2d-strip config at seed 1, all modes
    at once, or its split."""
    import numpy as np
    from fracwr import solver
    from fracwr.geometry import axis_nodes

    cfg = _experiment(0, "nnwr2d-strip").run
    weights = cfg.build_weights()
    strips = cfg.partition.subdomains
    ys = axis_nodes(*cfg.y_extent, cfg.dy)
    ny = len(ys) - 1
    k = np.arange(1, ny)
    decay = [s.kappa * (2.0 * np.sin(0.5 * np.pi * k / ny) / (ys[1] - ys[0])) ** 2
             for s in strips]
    solve = solver.solve_dirichlet_waveform if "dirichlet" in name else \
        solver.solve_neumann_waveform
    (h,), kw = _one_member(solve, [np.random.default_rng(1).standard_normal((cfg.n_steps,
                                                                             ny - 1))])
    return _split(name, lambda: solve(strips, weights, [None, h], [h, None], decay=decay, **kw))


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
    if kind == "nnwr1d-dirichlet":
        solve = solver.solve_dirichlet_waveform
        f = [np.array([cfg.source(s.nodes, t) for t in weights.eval_times]) for s in subs]
        u0 = [cfg.initial_condition(s.nodes) for s in subs]
    else:
        solve, f, u0 = solver.solve_neumann_waveform, [None] * len(subs), [None] * len(subs)
    traces, kw = _one_member(solve, list(np.random.default_rng(1).standard_normal(
        (len(subs) - 1, cfg.n_steps))))
    traces = [None, *traces, None]
    return lambda: solve(subs, weights, traces[:-1], traces[1:], f=f, u0=u0, **kw)


def _operator_case(name):
    """One operator build or product sweep."""
    import numpy as np
    from fracwr import harness, iteration, maps, nnwr

    if name.startswith("dnwr-build"):
        cfg = (_experiment(0) if name == "dnwr-build-graded" else
               harness.preset_config("fig_dnwr_theta_sweep_wave")[0]).run
        weights = cfg.build_weights()
        subs = cfg.partition.subdomains
        return lambda: maps.dnwr_operator(maps.interface_maps(subs, weights))
    # its max_iter 40 exceeds the build's cost, so _affine_part builds
    cfg = _experiment(1).run
    weights = cfg.build_weights()
    build = lambda: iteration._affine_part(cfg, nnwr._affine_1d(cfg, weights))  # noqa: E731
    if "build" in name:
        return build
    part = build()
    h = np.random.default_rng(1).standard_normal((1, cfg.partition.n_subdomains - 1,
                                                  cfg.n_steps))
    return lambda: part(h)


def _step_case(name):
    """The last ``kernels.step_solve`` call of the march behind ``name``, to be timed again."""
    from fracwr import kernels

    march = {"step-8x401": lambda: _nnwr_case("nnwr1d-neumann"),
             "step-1x77": lambda: _case("dnwr-dirichlet-1"),
             "step-1x25": lambda: _case("dnwr-neumann-1"),
             "step-49x24+49x78": _nnwr2d_sweep}[name]()
    calls, solve = [], kernels.step_solve
    kernels.step_solve = lambda *args, **kw: calls.append((args, kw)) or solve(*args, **kw)
    try:
        march()
    finally:
        kernels.step_solve = solve
    args, kw = calls[-1]
    return lambda: solve(*args, **kw)


def _case(name):
    """The callable that one call of ``name`` times, in this interpreter."""
    from dataclasses import replace

    import numpy as np
    from fracwr import solver
    from fracwr.dnwr import run_dnwr

    if name.startswith("step-"):
        return _step_case(name)
    if name.startswith("unequal-"):
        return _unequal_case(name)
    if name.startswith("nnwr2d-") and name != "nnwr2d-sweep":
        return _nnwr2d_phase(name)
    if "build" in name or "product" in name:
        return _operator_case(name)
    if name == "nnwr2d-sweep":
        return _nnwr2d_sweep()
    if name.startswith("nnwr1d-"):
        return _nnwr_case(name.rsplit("-", 1)[0])
    kind, width = name.rsplit("-", 1)
    cfg, thetas = _dnwr_setup(whole_run=kind == "dnwr-run")
    weights = cfg.build_weights()
    sub1, sub2 = cfg.partition.subdomains
    if kind in ("dnwr-sweep", "dnwr-run"):
        if width == "1":
            return lambda: run_dnwr(replace(cfg, theta="optimal"))
        return lambda: run_dnwr(cfg, members=thetas)
    (traces,), kw = _one_member(solver.solve_waveform,
                                [np.random.default_rng(1).standard_normal(cfg.n_steps)])
    if kind == "dnwr-dirichlet":
        return lambda: solver.solve_dirichlet_waveform([sub1], weights, [None], [traces], **kw)
    return lambda: solver.solve_neumann_waveform([sub2], weights, [traces], [None], **kw)


def _run_preset(name):
    """Print the best seconds of ``harness.run_experiment`` over the configs of
    preset ``name``, of ``PRESET_RUNS`` runs after a warm-up run."""
    from fracwr import harness

    configs = harness.preset_config(name)
    times = []
    with tempfile.TemporaryDirectory(prefix="ladder-") as out:
        for _ in range(1 + PRESET_RUNS):
            t0 = time.perf_counter()
            for cfg in configs:
                harness.run_experiment(cfg, out)
            times.append(time.perf_counter() - t0)
    print(json.dumps(min(times[1:])))


def _run_case(name):
    if name in PRESETS:
        return _run_preset(name)
    fn = _case(name)
    fn()
    times = []
    start = time.perf_counter()
    while len(times) < IN_PROCESS[name][1] or time.perf_counter() - start < SPAN_S:
        t0 = time.perf_counter()
        part = fn()  # a split case returns the seconds of its part
        times.append(part if isinstance(part, float) else time.perf_counter() - t0)
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
    one_sided = min(wins, len(before) - wins) <= 1
    apart = abs(b["median_s"] - a["median_s"]) > b["q3_s"] - b["q1_s"]
    return {"before": b, "after": a, "speedup": b["median_s"] / a["median_s"], "wins": wins,
            "no_change": not (one_sided and apart)}


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
