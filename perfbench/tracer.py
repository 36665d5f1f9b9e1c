"""Per-layer tracing from outside the program.

The tracer replaces each boundary function with a timing wrapper *at the
name it is looked up through*: modules that did ``from .solver import
solve_dirichlet_waveform`` hold their own reference, so patching only the
defining module would leave those calls untraced.  Every site below names
the module whose globals the caller reads.

A site whose attribute no longer exists (a later change deleted or renamed
it) is recorded as missing, never raised.  Wrappers keep one span stack, so
a span's self time is its duration minus the time of the spans it encloses.
The stack is not thread-aware; the benchmark runs the sequential scheduler.
"""

import importlib
import time


# Counters read the call the way today's code makes it; a changed signature
# or result type makes them count 0 rather than break the traced run.

def _unknowns(args, kwargs, result):
    rhs = args[2] if len(args) > 2 else kwargs.get("rhs", ())
    return len(rhs)


def _sweeps(args, kwargs, result):
    return int(getattr(getattr(result, "report", None), "iterations", 0))


# (boundary name, module looked up through, attribute, per-call counter)
SITES = (
    ("kernels.step_solve", "fracwr.kernels", "step_solve", _unknowns),
    ("solver.solve_waveform", "fracwr.solver", "solve_waveform", None),
    ("solver.splu", "fracwr.solver", "splu", None),
    ("geometry.laplacian_apply", "fracwr.solver", "laplacian_apply", None),
    ("geometry.interface_flux", "fracwr.dnwr", "interface_flux_series", None),
    ("geometry.interface_flux", "fracwr.nnwr", "interface_flux_series", None),
    ("geometry.interface_flux", "fracwr.nnwr", "interface_flux_series_2d", None),
    ("fractional_time.caputo_weights", "fracwr.dnwr", "caputo_weights", None),
    ("fractional_time.caputo_weights", "fracwr.nnwr", "caputo_weights", None),
    ("fractional_time.caputo_weights", "fracwr.harness", "caputo_weights", None),
    ("theory.bound", "fracwr.harness", "dnwr_error_bound", None),
    ("theory.bound", "fracwr.harness", "nnwr_error_bound", None),
    ("theory.bound", "fracwr.harness", "nnwr2d_error_bound", None),
    ("dnwr.run", "fracwr.harness", "run_dnwr", _sweeps),
    ("dnwr.dirichlet", "fracwr.dnwr", "solve_dirichlet_waveform", None),
    ("dnwr.neumann", "fracwr.dnwr", "solve_neumann_waveform", None),
    ("nnwr.1d.run", "fracwr.harness", "run_nnwr_1d", _sweeps),
    ("nnwr.1d.dirichlet", "fracwr.nnwr", "solve_dirichlet_waveform", None),
    ("nnwr.1d.neumann", "fracwr.nnwr", "solve_neumann_waveform", None),
    ("nnwr.2d.run", "fracwr.harness", "run_nnwr_2d", _sweeps),
    ("nnwr.2d.dirichlet", "fracwr.nnwr", "solve_dirichlet_waveform_2d", None),
    ("nnwr.2d.neumann", "fracwr.nnwr", "solve_neumann_waveform_2d", None),
    ("harness.run_experiment", "fracwr.harness", "run_experiment", None),
)


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "count")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.count = 0  # what the site's counter adds up (unknowns, sweeps)


class Tracer:
    """Context manager that patches ``sites`` on entry and restores them on exit."""

    def __init__(self, sites=SITES):
        self.sites = sites
        self.stats = {name: Stat() for name, *_ in sites}
        self.missing = []  # "module.attribute" of sites that were not found
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn, counter):
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                stat.calls += 1
                stat.total_s += dt
                stat.self_s += dt - child
            if counter is not None:
                stat.count += counter(args, kwargs, result)
            return result

        return wrapper

    def __enter__(self):
        for name, module_name, attr, counter in self.sites:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            if module is None or not callable(getattr(module, attr, None)):
                self.missing.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(name, original, counter))
            self._patched.append((module, attr, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        return False

    def missing_boundaries(self) -> list:
        """Boundary names none of whose sites could be patched."""
        found = {name for name, module_name, attr, _ in self.sites
                 if f"{module_name}.{attr}" not in self.missing}
        return sorted({name for name, *_ in self.sites} - found)

    def snapshot(self) -> dict:
        return {name: {"calls": s.calls, "total_s": s.total_s, "self_s": s.self_s,
                       "count": s.count} for name, s in self.stats.items()}
