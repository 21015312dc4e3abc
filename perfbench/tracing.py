"""Spans around waveforge's layers, recorded from outside the program.

Each wrap point replaces a function at the name its caller looks up (a
module global or a class attribute), so the program's own code is never
edited.  A span records its name, parent, solve id, start and end; the
child time it covers is summed as spans close, so a span's self time is
its duration minus its children's.  Spans stay in memory and are written
out once the solves are done.

A wrap point that no longer exists is skipped; a layer whose wrap points
are all gone is reported as absent instead of failing the run.
"""

from __future__ import annotations

import csv
import functools
import importlib
import json
import os
from collections import defaultdict
from time import perf_counter

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))


def load_metrics() -> dict:
    with open(os.path.join(HERE, "metrics.json"), encoding="utf-8") as fh:
        return json.load(fh)


class Tracer:
    """In-memory span recorder; single-threaded, spans strictly nested."""

    def __init__(self):
        # [name, parent index, solve id, start, end, child time]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.solve = 0
        self.counts: dict[str, int] = defaultdict(int)

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, parent, self.solve, perf_counter(), 0.0, 0.0])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        now = perf_counter()
        rec = self.spans[idx]
        rec[4] = now
        self.stack.pop()
        if rec[1] >= 0:
            self.spans[rec[1]][5] += now - rec[3]

    def count(self, key: str, value: int) -> None:
        self.counts[key] += int(value)

    def summary(self) -> dict:
        """Per span name: self time, total time, calls; plus counters."""
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for name, parent, _, start, end, child in self.spans:
            self_s[name] += end - start - child
            calls[name] += 1
            if parent < 0:
                total_s[name] += end - start
        return {"self": dict(self_s), "total": dict(total_s),
                "calls": dict(calls), "counts": dict(self.counts)}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "parent", "solve", "name", "start", "end", "self"])
            for i, (name, parent, solve, start, end, child) in enumerate(self.spans):
                out.writerow([i, parent, solve, name, f"{start:.9f}",
                              f"{end:.9f}", f"{end - start - child:.9f}"])


def _span(tracer: Tracer, name: str, fn, counter=None):
    """fn wrapped in a span; counter(args) -> {stat: value}."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if counter is not None:
            for stat, value in counter(args).items():
                tracer.count(f"{name}.{stat}", value)
        idx = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(idx)

    return traced


def _sphere_points(args):
    kern, x, ts = args[0], np.asarray(args[1]), np.asarray(args[2])
    centres = 1 if x.ndim == 1 else x.shape[0]
    radii = int(np.count_nonzero(ts))
    if getattr(kern, "nu", 0) >= 1:
        radii *= kern.spec.n_radial
    return {"sphere_points": centres * radii * kern.rule.directions.shape[0]}


def _lams(args):
    return {"lams": np.size(args[2])}


def _point_modes(args):
    ev, points = args[0], np.atleast_2d(np.asarray(args[1]))
    return {"point_modes": points.shape[0] * ev.basis.count}


def _eval_points(args):
    shape = np.shape(args[0])
    return {"points": int(np.prod(shape[:-1]))}


def _spanned(name: str, counter=None):
    return lambda tracer, fn: _span(tracer, name, fn, counter)


def _compile(tracer: Tracer, fn):
    """compile_field in a span; the field it returns gets its own span."""
    compiled = _span(tracer, "expr.compile", fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return _span(tracer, "expr.eval", compiled(*args, **kwargs), _eval_points)

    return traced


def _differentiate(tracer: Tracer, fn):
    """differentiate_samples in a span, counting the sample times it asks g for."""

    @functools.wraps(fn)
    def traced(g, *args, **kwargs):
        def counted(times):
            tracer.count("fd.samples", np.size(times))
            return g(times)

        return fn(counted, *args, **kwargs)

    return _span(tracer, "fd", traced)


_SOLVER_MODULES = ("quadrature", "heat_solver", "ibvp", "wave_solver")

# (module, owner, attribute, make(tracer, fn) -> traced fn); the owner is
# a module path or "module:Class", named where the caller looks it up
WRAP_POINTS = (
    [
        ("config", "waveforge.cli", "load_config", _spanned("config.load")),
        ("cli", "waveforge.cli", "build_evaluator", _spanned("cli.build")),
        ("problems", "waveforge.problems:SolutionEvaluator", "__call__",
         _spanned("problems.point")),
        ("quadrature", "waveforge.quadrature:SinhKernel", "apply_many",
         _spanned("quadrature.sinh", _sphere_points)),
        ("quadrature", "waveforge.quadrature", "sphere_rule",
         _spanned("quadrature.sphere_rule")),
        ("heat_solver", "waveforge.heat_solver:HeatPropagator", "apply_many",
         _spanned("heat_solver.propagate", _lams)),
        ("ibvp", "waveforge.ibvp:IbvpEvaluator", "amplitudes",
         _spanned("ibvp.amplitudes")),
        ("ibvp", "waveforge.ibvp:IbvpEvaluator", "grid",
         _spanned("ibvp.synthesis", _point_modes)),
        ("ibvp", "waveforge.ibvp", "project", _spanned("ibvp.project")),
        ("kernels", "waveforge.ibvp", "eigen_symbol",
         _spanned("kernels.eigen_symbol")),
        ("oracle", "waveforge.ibvp", "mode_solve", _spanned("oracle.mode_solve")),
        ("fd", "waveforge.wave_solver", "differentiate_samples", _differentiate),
    ]
    + [("expr", f"waveforge.{mod}", "compile_field", _compile)
       for mod in _SOLVER_MODULES]
    + [("expr", f"waveforge.{mod}", "laplacian", _spanned("expr.laplacian"))
       for mod in _SOLVER_MODULES]
)


def _owner(path: str):
    mod_name, _, cls_name = path.partition(":")
    try:
        owner = importlib.import_module(mod_name)
    except ImportError:
        return None
    return getattr(owner, cls_name, None) if cls_name else owner


def install(tracer: Tracer) -> list[str]:
    """Wrap every wrap point that exists; returns the absent modules.

    A name is wrapped only where its owner defines or imports it, so a
    wrap point a refactor removes is skipped, and a module none of whose
    wrap points remain is absent.
    """
    wrapped: dict[str, int] = defaultdict(int)
    for module, path, attr, make in WRAP_POINTS:
        wrapped[module] += 0
        owner = _owner(path)
        if owner is None or attr not in vars(owner):
            continue
        setattr(owner, attr, make(tracer, vars(owner)[attr]))
        wrapped[module] += 1
    return sorted(m for m, n in wrapped.items() if n == 0)
