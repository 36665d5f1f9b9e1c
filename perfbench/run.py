"""fracwr benchmark: one workload, end-to-end timings or a traced per-layer split.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are listed in ``workloads.WORKLOADS`` and documented in
``BENCHMARK.json`` and ``perfbench/METRICS.md``.  The load is a closed loop
with one client: one workload run at a time, each in a fresh interpreter
(``worker.py``) that validates the seed's configs with
``harness.config_from_dict`` and calls ``harness.run_experiment`` on each, as
``fracwr --config`` does.  Runs repeat until ``--seconds`` have passed (at
least two), every run's CSVs go through the correctness gate and must be
byte-identical to the first run's, and the medians over the runs that
passed are reported, with their sample counts in the info line.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
(``run_s``, ``cpu_s``, ``setup_s``, ``peak_rss_mb``); with ``--trace 1``
untraced and traced runs alternate and it carries the per-layer metrics.
The line before it records the environment and the sweep counts.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import gate
import workloads

MIN_RUNS = 2  # a second run gives the byte-identity check its reference
SETUP_PROBES = 2  # extra import-and-validate processes per invocation
RUN_TIMEOUT_S = 150
DEADLINE_S = 150  # start no optional run expected to end after this
MONOLITHIC_TOL = 1e-8  # acceptance criterion 8

END_TO_END = {"run_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class RunFailed(Exception):
    pass


def calibrate() -> float:
    """Median time of a fixed pure-Python loop, to see host drift between invocations."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(500_000):
            acc = (acc + i * i) % 1_000_003
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _revision(root: str) -> dict:
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "fracwr")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    rev = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            rev = None
    return {"git_revision": rev, "src_sha256": digest.hexdigest()[:16]}


class Worker:
    """Starts ``worker.py`` processes against the checkout's ``src``."""

    def __init__(self, root: str):
        self.root = root
        self.src = os.path.join(root, "src")
        self.script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (self.src, os.environ.get("PYTHONPATH")) if p)

    def __call__(self, config: str, out_dir: str, *flags) -> dict:
        try:
            proc = subprocess.run([sys.executable, self.script, config, out_dir, *flags],
                                  cwd=self.root, env=self.env, capture_output=True, text=True,
                                  timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise RunFailed(f"run exceeded {RUN_TIMEOUT_S} s") from exc
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            raise RunFailed(f"worker exited {proc.returncode}: {tail[0]}")
        try:
            res = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError) as exc:
            raise RunFailed("worker printed no result") from exc
        if os.path.commonpath([res["fracwr"], self.src]) != self.src:
            raise RunFailed(f"imported fracwr from {res['fracwr']}, not {self.src}")
        return res


def _layer_metrics(s: dict) -> dict:
    """Per-layer metrics from one traced run's tracer snapshot."""
    step = s["kernels.step_solve"]
    m = {
        "kernels.step_solve.calls": step["calls"],
        "kernels.step_solve.unknowns": step["count"],
        "kernels.step_solve.self_s": step["self_s"],
        "kernels.step_solve.ns_per_unknown":
            1e9 * step["self_s"] / step["count"] if step["count"] else 0.0,
        "solver.solve_waveform.calls": s["solver.solve_waveform"]["calls"],
        "solver.solve_waveform.self_s": s["solver.solve_waveform"]["self_s"],
        "solver.solve_waveform_2d.calls":
            s["nnwr.2d.dirichlet"]["calls"] + s["nnwr.2d.neumann"]["calls"],
        "solver.solve_waveform_2d.self_s":
            s["nnwr.2d.dirichlet"]["self_s"] + s["nnwr.2d.neumann"]["self_s"],
        "solver.splu.calls": s["solver.splu"]["calls"],
        "solver.splu.self_s": s["solver.splu"]["self_s"],
    }
    for key in ("dnwr", "nnwr.1d", "nnwr.2d"):
        run = s[f"{key}.run"]
        m[f"{key}.sweeps"] = run["count"]
        m[f"{key}.sweep_s"] = run["total_s"] / run["count"] if run["count"] else 0.0
        m[f"{key}.dirichlet_s"] = s[f"{key}.dirichlet"]["total_s"]
        m[f"{key}.neumann_s"] = s[f"{key}.neumann"]["total_s"]
        m[f"{key}.self_s"] = run["self_s"]
    m.update({
        "fractional_time.caputo_weights.calls": s["fractional_time.caputo_weights"]["calls"],
        "fractional_time.caputo_weights.total_s": s["fractional_time.caputo_weights"]["total_s"],
        "geometry.laplacian_apply.self_s": s["geometry.laplacian_apply"]["self_s"],
        "geometry.interface_flux.self_s": s["geometry.interface_flux"]["self_s"],
        "theory.bound.calls": s["theory.bound"]["calls"],
        "theory.bound.self_s": s["theory.bound"]["self_s"],
        "harness.run_experiment.self_s": s["harness.run_experiment"]["self_s"],
    })
    return m


def _unit(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith(("calls", "unknowns", "sweeps", "missing")):
        return "count"
    if name.endswith("ns_per_unknown"):
        return "ns"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("frac"):
        return "ratio"
    return "s"


def _median_metrics(dicts: list) -> dict:
    return {key: statistics.median(d[key] for d in dicts) for key in dicts[0]}


def _check(workload: str, configs: list, out_dir: str, res: dict) -> tuple:
    """Gate one finished run; return its problems and its CSV bytes by name."""
    found, blobs, res["sweeps"] = gate.check_run(configs, out_dir)
    res["csv_bytes"] = sum(len(b) for b in blobs.values())
    gap = res.get("monolithic_gap", 0.0)
    if gap is None or gap > MONOLITHIC_TOL:
        found.append(f"final traces differ from the monolithic solve by {gap}")
    if res["traced"]:
        for name in workloads.USES[workload]:
            if name not in res["missing"] and res["trace"][name]["calls"] == 0:
                found.append(f"traced boundary {name} shows no calls")
    return found, blobs


def _measured(done: list, traced: bool) -> list:
    """The completed runs of one kind that the figures come from: those that
    passed the gate, or, if none did, all of them."""
    kind = [r for r in done if r["traced"] == traced]
    return [r for r in kind if r["passed"]] or kind


def measure(workload: str, seed: int, seconds: float, trace: bool, root: str,
            make_configs=workloads.make_configs) -> tuple:
    """Run the workload for ``seconds``; return (result line, info line)."""
    calib_s = calibrate()
    configs = make_configs(workload, seed)
    work = os.path.join(root, ".perfbench_work", f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    worker = Worker(root)
    try:
        config = os.path.join(work, "config.json")
        with open(config, "w", encoding="utf-8") as fh:
            fh.write(workloads.config_text(configs))

        worker(config, work, "--setup-only")  # untimed: fills bytecode and file caches
        # Half the set-up probes before the runs and half after, so that a
        # slow or fast phase of the host weighs on setup_s as on the runs.
        setups = [worker(config, work, "--setup-only") for _ in range(SETUP_PROBES // 2)]

        runs, problems, reference, env = [], [], None, {}
        failed = 0
        start = time.perf_counter()
        while True:
            with_tracer = trace and len(runs) % 2 == 1
            flags = ["--trace"] if with_tracer else []
            if not runs:
                flags.append("--env")
                if any(cfg["algorithm"] == "nnwr1d" for cfg in configs):
                    flags.append("--monolithic")
            out_dir = os.path.join(work, f"run{len(runs)}")
            t0 = time.perf_counter()
            res = None
            try:
                res = worker(config, out_dir, *flags)
                res["traced"] = with_tracer
                env.update(res.pop("env", {}))
                found, blobs = _check(workload, configs, out_dir, res)
                if reference is None:
                    reference = blobs
                elif blobs != reference:
                    found.append("CSV bytes differ from the first run of this invocation")
            except RunFailed as exc:
                found = [str(exc)]
            shutil.rmtree(out_dir, ignore_errors=True)
            if res is not None:
                res["passed"] = not found
            if found:
                failed += 1
                problems += found
            runs.append(res)
            elapsed = time.perf_counter() - start
            last = time.perf_counter() - t0
            if len(runs) >= MIN_RUNS and (elapsed >= seconds or elapsed + last > DEADLINE_S):
                break
        setups += [worker(config, work, "--setup-only")
                   for _ in range(SETUP_PROBES - len(setups))]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:  # another invocation still uses it
            pass

    # A gate failure that every run of a seed repeats (the output is
    # deterministic) leaves no passing run; the figures then come from the
    # completed runs, and the result still says correct=false.
    done = [r for r in runs if r is not None]
    plain, traced = _measured(done, False), _measured(done, True)
    measured = plain + traced
    info = {"env": {**_revision(root), **env, "nproc": os.cpu_count(), "cpu": _cpu_model(),
                    "seed": seed, "workload": workload, "workloads": list(workloads.WORKLOADS),
                    "host.calib_s": calib_s},
            "sweeps": [r.get("sweeps") for r in done],
            "runs_s": [round(r["run_s"], 4) for r in done],
            "figures_from_failed_runs": any(not r["passed"] for r in measured),
            "problems": problems}
    if not plain or (trace and not traced):
        return None, info

    setup = [r["import_s"] + r["validate_s"] for r in setups + measured]
    info["samples"] = {"run_s": len(plain), "setup_s": len(setup)}
    if not trace:
        metrics = {"run_s": statistics.median(r["run_s"] for r in plain),
                   "cpu_s": statistics.median(r["cpu_s"] for r in plain),
                   "setup_s": statistics.median(setup),
                   "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain)}
    else:
        metrics = _median_metrics([_layer_metrics(r["trace"]) for r in traced])
        metrics.update({
            "harness.csv_bytes": statistics.median(r["csv_bytes"] for r in traced),
            "harness.validate_s": statistics.median(r["validate_s"] for r in setups + measured),
            "cli.import_s": statistics.median(r["import_s"] for r in setups + measured),
            "host.calib_s": calib_s,
            "trace.overhead_frac": statistics.median(r["run_s"] for r in traced)
            / statistics.median(r["run_s"] for r in plain),
            "trace.missing": len(traced[0]["missing"]),
        })
        info["missing"] = traced[0]["missing"]
    result = {"correct": failed == 0, "attempted": len(runs), "failed": failed,
              "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()}}
    return result, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fracwr", "harness.py")):
        print(f"error: no fracwr sources under {root}/src; run from the repository root",
              file=sys.stderr)
        return 2
    result, info = measure(args.workload, args.seed, args.seconds, bool(args.trace), root)
    for problem in info["problems"]:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(json.dumps(info, sort_keys=True))
    if result is None:
        print("error: no run completed; nothing to report", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
