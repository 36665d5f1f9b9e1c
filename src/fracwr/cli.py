"""Command-line surface.

Exit codes: 0 success, 1 configuration error (bad flags, bad config file,
unknown preset) or outputs that cannot be written, 2 numerical failure (a
run raised during the solve or the self-check found a broken oracle).
Invoked with no arguments, prints usage and exits 1.
"""

import argparse
import math
import sys
from dataclasses import replace

import numpy as np

USAGE = """usage: fracwr (--config PATH | --preset NAME | --list-presets | --seed-check)
              [--out DIR] [--tol X] [--max-iter N]

Runs a waveform-relaxation experiment and writes one CSV per relaxation
weight with header k,interface_id,error_sup,bound,theta,two_nu.

  --config PATH    JSON experiment description (schema in fracwr.harness)
  --preset NAME    named desk-scale study; see --list-presets
  --out DIR        output directory (default: out)
  --tol X          override run.tolerance
  --max-iter N     override run.max_iter
  --seed-check     run the fast oracle self-checks and exit
  --list-presets   print available preset names
"""


def _build_parser():
    parser = argparse.ArgumentParser(prog="fracwr", add_help=True, usage=USAGE)
    parser.add_argument("--config")
    parser.add_argument("--preset")
    parser.add_argument("--out", default="out")
    parser.add_argument("--tol", type=float)
    parser.add_argument("--max-iter", type=int, dest="max_iter")
    parser.add_argument("--seed-check", action="store_true")
    parser.add_argument("--list-presets", action="store_true")
    return parser


def _seed_check() -> int:
    """Fast self-check of the numerical oracles; prints one line per check."""
    from . import theory
    from .fractional_time import build_graded_mesh, caputo_apply, caputo_weights

    failures = 0

    def check(name, ok):
        nonlocal failures
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")
        failures += 0 if ok else 1

    check("contour inversion of 1/s", abs(theory.talbot_invert(lambda s: 1 / s, 0.7) - 1) < 1e-8)
    check("contour inversion of 1/s^2", abs(theory.talbot_invert(lambda s: 1 / s**2, 1.3) - 1.3) < 1e-8)
    import cmath

    target = math.exp(-0.25) / (2 * math.sqrt(math.pi))
    check(
        "contour inversion of exp(-sqrt(s))",
        abs(theory.talbot_invert(lambda s: cmath.exp(-s**0.5), 1.0) - target) < 1e-8,
    )
    xs = np.linspace(0.1, 4.0, 14)
    err = max(abs(theory.mwright(0.5, x) - math.exp(-x * x / 4) / math.sqrt(math.pi)) for x in xs)
    check("M-Wright closed form at order 1/2", err < 1e-8)
    mesh = build_graded_mesh(1.0, 24, 3.0)
    w = caputo_weights(mesh, 0.5)
    t = mesh.points
    rel = max(
        abs(caputo_apply(w, t[: n + 1]) - t[n] ** 0.5 / math.gamma(1.5))
        / (t[n] ** 0.5 / math.gamma(1.5))
        for n in range(1, 25)
    )
    check("L1 weights exact on linear data", rel < 1e-12)
    grid = np.linspace(0.05, 3.0, 25)
    low = min(
        theory.mwright_phase(a, p) - (1 - a) * a ** (a / (1 - a))
        for a in (0.2, 0.5, 0.8)
        for p in np.linspace(0.01, math.pi - 0.01, 40)
    )
    check("phase function lower bound", low > -1e-12)
    ok = all(
        theory.exp_kernel_mass(0.4, l, t) <= theory.exp_kernel_mass_bound(0.4, l, t) * (1 + 1e-9)
        for l in (0.5, 1.0)
        for t in grid
    )
    check("kernel window mass below closed-form bound", ok)
    return 0 if failures == 0 else 2


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv:
        print(USAGE, end="")
        return 1
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1

    from .harness import PRESETS, parse_config, preset_config, remove_outputs, run_experiment

    if args.list_presets:
        for name in sorted(PRESETS):
            print(name)
        return 0
    if args.seed_check:
        return _seed_check()
    if bool(args.config) == bool(args.preset):
        print("error: exactly one of --config or --preset is required", file=sys.stderr)
        print(USAGE, end="", file=sys.stderr)
        return 1

    try:
        configs = [parse_config(args.config)] if args.config else preset_config(args.preset)
        # an override is checked like the config value it replaces
        overrides = {k: v for k, v in dict(tolerance=args.tol, max_iter=args.max_iter).items()
                     if v is not None}
        configs = [replace(c, run=replace(c.run, **overrides)) for c in configs]
    except (ValueError, OSError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1

    written = []
    try:
        for cfg in configs:
            written.extend(run_experiment(cfg, args.out))
    except OSError as exc:  # the outputs cannot be written
        remove_outputs(written)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # numerical failure: run_experiment removed its own CSVs
        remove_outputs(written)
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
