"""Spans around the public functions of each latticetheta module.

``Tracer.install`` rebinds every traced function in every latticetheta
module namespace that holds it (``functionals.jacobi_theta``,
``phase_diagram.minimizer``, the package's re-exports, ...), so calls made
inside the package are recorded as well as the benchmark's own.  Each call
records a span: function, start, end, parent span and item id.  Spans stay
in compact arrays until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import stats

TRACED = {
    "kernels": ("jacobi_theta", "theta1d", "theta2d", "theta2d_shifted"),
    "halfplane": ("on_trajectory", "cayley"),
    "functionals": ("xyab", "solve_y_branch", "minimizer", "w_eval"),
    "phase_diagram": ("j_eval", "critical_census", "optimal_lattice", "phase_row", "solve_alpha0"),
    "verifier": ("run_suite", "brute_minimize"),
    "cli": ("main",),
}
LABELS = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


class CoverageError(RuntimeError):
    """A latticetheta module still reaches a traced function unwrapped."""


def _package_modules():
    return [m for name, m in sys.modules.items() if name == "latticetheta" or name.startswith("latticetheta.")]


class Tracer:
    def __init__(self):
        for mod in TRACED:
            importlib.import_module(f"latticetheta.{mod}")
        self.originals = [getattr(sys.modules[f"latticetheta.{mod}"], fn) for mod, fn in (label.split(".") for label in LABELS)]
        self.fn = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.item = array("i")
        self.errors = [0] * len(LABELS)
        self.current_item = -1
        self._stack = []
        self._bound = []
        self.wrappers = [self._wrap(i, f) for i, f in enumerate(self.originals)]

    def _wrap(self, idx, fn):
        fns, start, end, parent, item = self.fn, self.start, self.end, self.parent, self.item
        stack, errors, clock = self._stack, self.errors, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(fns)
            fns.append(idx)
            parent.append(stack[-1] if stack else -1)
            item.append(self.current_item)
            end.append(0.0)
            stack.append(span)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[idx] += 1
                raise
            finally:
                end[span] = clock()
                stack.pop()

        return traced

    def install(self):
        by_id = {id(f): i for i, f in enumerate(self.originals)}
        for mod in _package_modules():
            for key, value in list(vars(mod).items()):
                idx = by_id.get(id(value))
                if idx is not None:
                    setattr(mod, key, self.wrappers[idx])
                    self._bound.append((mod, key, value))
        leaks = self.coverage_leaks()
        if leaks:
            self.uninstall()
            raise CoverageError("unwrapped traced functions: " + ", ".join(leaks))

    def uninstall(self):
        for mod, key, value in self._bound:
            setattr(mod, key, value)
        self._bound.clear()

    def coverage_leaks(self):
        """Names under which a latticetheta module still reaches an original.

        Looks at module globals and one level into them: containers,
        ``functools.partial`` objects, and the ``__wrapped__``, default
        arguments and closure cells of functions.
        """
        originals = {id(f) for f in self.originals}
        wrappers = {id(w) for w in self.wrappers}
        leaks = []
        for mod in _package_modules():
            for key, value in vars(mod).items():
                if id(value) in wrappers:
                    continue
                inner = [value]
                if isinstance(value, (tuple, list, set, frozenset)):
                    inner += list(value)
                elif isinstance(value, dict):
                    inner += list(value.values())
                if isinstance(value, functools.partial):
                    inner.append(value.func)
                inner.append(getattr(value, "__wrapped__", None))
                if callable(value) and hasattr(value, "__code__"):
                    inner += list(value.__defaults__ or ())
                    inner += [c.cell_contents for c in value.__closure__ or () if c.cell_contents is not None]
                if any(id(v) in originals for v in inner):
                    leaks.append(f"{mod.__name__}.{key}")
        return leaks

    def layer_metrics(self, items: int, traced_s: float, untraced_s: float, hit_ratio: float, census_points: int):
        """Per-item counts and self times, per-module shares and the overhead."""
        index = {label: i for i, label in enumerate(LABELS)}
        xyab_in_solve = (index["functionals.xyab"], index["functionals.solve_y_branch"])
        j_in_census = (index["phase_diagram.j_eval"], index["phase_diagram.critical_census"])
        direct = {xyab_in_solve: 0, j_in_census: 0}  # calls made directly by another traced function
        calls = [0] * len(LABELS)
        self_s = [0.0] * len(LABELS)
        own = stats.self_times(self.parent, self.start, self.end)
        fn = self.fn
        for i, p in enumerate(self.parent):
            calls[fn[i]] += 1
            self_s[fn[i]] += own[i]
            if p >= 0 and (fn[i], fn[p]) in direct:
                direct[fn[i], fn[p]] += 1

        out = {}
        for label in LABELS:
            out[f"{label}.calls"] = (calls[index[label]] / items, "calls/item")
            if label != "halfplane.cayley":
                out[f"{label}.self_ms"] = (1e3 * self_s[index[label]] / items, "ms/item")
        out["kernels.errors"] = (sum(self.errors[index[f"kernels.{f}"]] for f in TRACED["kernels"]) / items, "errors/item")
        solves = calls[index["functionals.solve_y_branch"]]
        out["functionals.xyab_per_solve"] = (direct[xyab_in_solve] / solves if solves else 0.0, "calls/solve")
        out["functionals.thresholds.hit_ratio"] = (hit_ratio, "frac")
        out["phase_diagram.critical_points_per_item"] = (census_points / items, "points/item")
        out["phase_diagram.j_eval_per_point"] = (direct[j_in_census] / census_points if census_points else 0.0, "calls/point")
        for mod, fns in TRACED.items():
            out[f"{mod}.self_frac"] = (sum(self_s[index[f"{mod}.{f}"]] for f in fns) / traced_s, "frac")
        out["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "frac")
        return out

    def save(self, path):
        """Write the spans as arrays, with the function labels."""
        import numpy as np

        np.savez(
            path,
            labels=np.array(LABELS),
            fn=np.frombuffer(self.fn, dtype=np.uint16),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            item=np.frombuffer(self.item, dtype=np.int32),
        )
