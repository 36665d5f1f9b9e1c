"""One workload run in a fresh interpreter, the way ``fracwr --config`` runs it.

Usage (from the repository root, with ``src`` on PYTHONPATH):

    python3 perfbench/worker.py CONFIGS.json OUT_DIR [--setup-only] [--trace]
                                 [--monolithic] [--env]

CONFIGS.json holds a list of experiment configs.  Times ``import fracwr`` and
their validation (set-up), then ``harness.run_experiment`` on each in turn
(wall and CPU time), and prints one JSON object.
``--trace`` runs the experiment under the boundary tracer; ``--monolithic``
checks afterwards, outside the timed span, that the final interface traces
of an NNWR-1D run match the monolithic solve; ``--env`` adds the library
versions and backend to the output.
"""

import time

T_START = time.perf_counter()

import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _monolithic_gap(cfg, result) -> float:
    """Max difference between a run's final traces and the monolithic solve of
    the same partition, Caputo weights, source and initial condition."""
    import numpy as np
    from fracwr import solve_monolithic

    mono = solve_monolithic(cfg.partition, cfg.build_weights(), f=cfg.source,
                            u0=cfg.initial_condition)
    return float(np.max(np.abs(np.asarray(result.traces) - mono.interface_traces())))


def _env() -> dict:
    import platform

    import numpy as np
    import scipy
    from fracwr import kernels

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "numba_enabled": bool(getattr(kernels, "NUMBA_ENABLED", False))}


def main(argv) -> int:
    config_path, out_dir = argv[0], argv[1]
    flags = set(argv[2:])

    import fracwr  # noqa: F401
    import fracwr.cli  # noqa: F401
    from fracwr import harness
    t_import = time.perf_counter()
    with open(config_path, "r", encoding="utf-8") as fh:
        raws = json.load(fh)
    cfgs = [harness.config_from_dict(raw) for raw in raws]
    t_valid = time.perf_counter()
    out = {"import_s": t_import - T_START, "validate_s": t_valid - t_import,
           "fracwr": os.path.dirname(fracwr.__file__)}
    if "--setup-only" in flags:
        print(json.dumps(out))
        return 0

    captured = []
    if "--monolithic" in flags:
        run_nnwr_1d = harness.run_nnwr_1d

        def capture(cfg, *args, **kwargs):
            result = run_nnwr_1d(cfg, *args, **kwargs)
            captured.append((cfg, result))
            return result

        harness.run_nnwr_1d = capture

    tracer = None
    if "--trace" in flags:
        from tracer import Tracer
        tracer = Tracer()
    with tracer or contextlib.nullcontext():
        w0, c0 = time.perf_counter(), time.process_time()
        for cfg in cfgs:
            harness.run_experiment(cfg, out_dir)
        out["run_s"] = time.perf_counter() - w0
        out["cpu_s"] = time.process_time() - c0
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        out["trace"] = tracer.snapshot()
        out["missing"] = tracer.missing_boundaries()
    if "--monolithic" in flags:
        n_1d = sum(raw["algorithm"] == "nnwr1d" for raw in raws)
        out["monolithic_gap"] = (max(_monolithic_gap(*c) for c in captured)
                                 if captured and len(captured) == n_1d else None)
    if "--env" in flags:
        out["env"] = _env()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
