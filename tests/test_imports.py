"""What ``import fracwr`` loads, checked in a fresh interpreter.

The test process itself cannot answer this: pytest has already imported
``scipy.integrate`` through the oracle tests.
"""

import json
import os
import subprocess
import sys
import textwrap

import fracwr

SRC = os.path.dirname(os.path.dirname(os.path.abspath(fracwr.__file__)))

# One enveloped run per algorithm (optimal weights, error equations), so the
# bound column is evaluated on every path the harness takes.
_COMMON = {
    "time": {"order": 0.5, "horizon": 1.0, "steps": 8},
    "relaxation": {"theta": ["optimal"]},
    "run": {"tolerance": 1e-10, "max_iter": 3, "mode": "error_equation"},
}
CONFIGS = [
    {"algorithm": "dnwr", "geometry": {"domain": [0.0, 2.0], "breakpoints": [1.5],
                                       "kappa": [1.0, 0.25], "dx": 0.1},
     "output": {"stem": "dnwr"}, **_COMMON},
    {"algorithm": "nnwr1d", "geometry": {"domain": [0.0, 3.0], "breakpoints": [1.0, 2.0],
                                         "kappa": 1.0, "dx": 0.1},
     "output": {"stem": "nnwr1d"}, **_COMMON},
    {"algorithm": "nnwr2d", "geometry": {"domain": [0.0, 2.0], "split": 0.5,
                                         "y_extent": [-2.0, 2.0], "kappa": 1.0, "dx": 0.1,
                                         "dy": 0.5},
     "output": {"stem": "nnwr2d"}, **_COMMON},
]

SCRIPT = textwrap.dedent("""
    import json, math, sys, tempfile
    import fracwr, fracwr.cli, fracwr.harness
    from fracwr import theory
    from fracwr.harness import config_from_dict, run_experiment

    bounds = []
    with tempfile.TemporaryDirectory() as out:
        for raw in json.loads(sys.argv[1]):
            for path in run_experiment(config_from_dict(raw), out):
                rows = open(path).read().splitlines()[1:]
                bounds.append(all(row.split(",")[3] != "" for row in rows))
    heavy = ["scipy.integrate", "scipy.optimize", "scipy.special", "scipy.sparse"]
    loaded = [m for m in heavy if m in sys.modules]
    err = abs(theory.mwright(0.5, 1.0) - math.exp(-0.25) / math.sqrt(math.pi))
    print(json.dumps({"bounds": bounds, "loaded": loaded, "mwright_err": err}))
""")


def test_import_and_enveloped_runs_load_no_quadrature_modules():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(CONFIGS)],
                          capture_output=True, text=True, env=env, timeout=120, check=True)
    result = json.loads(proc.stdout)
    assert result["bounds"] == [True, True, True]
    assert result["loaded"] == []
    # the quadrature import inside theory still resolves on first use
    assert result["mwright_err"] < 1e-10
