"""Correctness gate for the CSVs one workload run writes.

A run passes when every expected file is present with the exact header,
every value is finite, each sweep lists every interface, the measured error
stays below the theoretical envelope wherever the ``bound`` column is filled
(with the ``SLACK`` and ``FLOOR`` of the acceptance suite), and, for a
forced run, which stops on the update norm, the last sweep is within
tolerance.
"""

import math
import os

from workloads import csv_names

HEADER = "k,interface_id,error_sup,bound,theta,two_nu"
SLACK = 1.1
FLOOR = 1e-10


def _interfaces(cfg: dict) -> int:
    if cfg["algorithm"] == "nnwr2d":
        return 1
    return len(cfg["geometry"].get("breakpoints", []))


def check_csv(path: str, n_interfaces: int, order: float) -> tuple:
    """Problems found in one CSV, and its rows as (k, error_sup) pairs."""
    problems = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != HEADER:
        return [f"{path}: header is {lines[0] if lines else ''!r}, expected {HEADER!r}"], []
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != 6:
            problems.append(f"{path}:{lineno}: {len(fields)} fields")
            continue
        try:
            k, ifc = int(fields[0]), int(fields[1])
            err, theta, two_nu = float(fields[2]), float(fields[4]), float(fields[5])
            bound = None if fields[3] == "" else float(fields[3])
        except ValueError as exc:
            problems.append(f"{path}:{lineno}: {exc}")
            continue
        values = [err, theta, two_nu] + ([] if bound is None else [bound])
        if not all(math.isfinite(v) for v in values):
            problems.append(f"{path}:{lineno}: non-finite value in {line!r}")
            continue
        if two_nu != order or not 0.0 < theta <= 1.0:
            problems.append(f"{path}:{lineno}: theta/two_nu out of range in {line!r}")
        if bound is not None and not err <= bound * SLACK + FLOOR:
            problems.append(f"{path}:{lineno}: error_sup {err:.6g} above envelope {bound:.6g}")
        rows.append((k, ifc, err))
    expected = [(k, m) for k in range(1, len(rows) // max(n_interfaces, 1) + 1)
                for m in range(n_interfaces)]
    if not rows or [(k, m) for k, m, _ in rows] != expected:
        problems.append(f"{path}: rows are not sweeps 1..K over {n_interfaces} interface(s)")
    return problems, rows


def check_run(configs: list, out_dir: str) -> tuple:
    """Problems found in one run's output directory, its file bytes by name and
    its sweep count summed over the files."""
    expected = sorted(name for cfg in configs for name in csv_names(cfg))
    present = sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else []
    if present != expected:
        return [f"{out_dir}: files {present}, expected {expected}"], {}, 0
    problems, blobs, sweeps = [], {}, 0
    for cfg, name in ((cfg, name) for cfg in configs for name in csv_names(cfg)):
        path = os.path.join(out_dir, name)
        found, rows = check_csv(path, _interfaces(cfg), cfg["time"]["order"])
        problems += found
        last_k = rows[-1][0] if rows else 0
        sweeps += last_k
        if cfg["run"].get("mode") == "forced" and rows:
            last = max(err for k, _, err in rows if k == last_k)
            if not last <= cfg["run"]["tolerance"]:
                problems.append(f"{path}: did not converge ({last:.3g} after {last_k} sweeps)")
        with open(path, "rb") as fh:
            blobs[name] = fh.read()
    return problems, blobs, sweeps
