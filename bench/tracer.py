"""Outside-in tracing of degen_control, installed from the benchmark's files.

``install`` wraps, in this order:

1. the scipy entry points for banded/tridiagonal solves and ``quad``, on
   their scipy modules, *before* ``degen_control`` is imported, so that
   ``from scipy.linalg import solve_banded`` binds the wrapper;
2. every public module-level function of each ``degen_control`` layer
   module, plus the private CLI summary writer;
3. every attribute of every ``degen_control.*`` module, and every value of
   a module-level dict, that is the *same object* as something wrapped in
   1 or 2, so names bound by ``from``-import (and the CLI dispatch table)
   are caught as well.

Most wrapped calls record a span ``(name, trace id, parent span, start,
end, child time)``. Hot leaves (tridiagonal solves, ``quad``, ``a.eval``
and the random-field closures) would cost one span per call at up to ~140k
calls per pass, so for those only the call count and summed time are kept.
Every call, span or not, pushes a frame on one stack, so each frame's time
is subtracted exactly once from its parent's self time.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import os
import sys
import time

LAYERS = ("cli", "config", "coefficients", "mesh", "pde", "carleman",
          "control", "semilinear")

# scipy entry point -> (counts as a solve, counts as a factorization,
# position of the right-hand side argument or None)
TRIDIAG = {
    ("scipy.linalg", "solve_banded"): (True, True, 2),
    ("scipy.linalg", "solveh_banded"): (True, True, 1),
    ("scipy.linalg.lapack", "dgtsv"): (True, True, 3),
    ("scipy.linalg.lapack", "dgttrf"): (False, True, None),
    ("scipy.linalg.lapack", "dgttrs"): (True, False, 5),
    ("scipy.linalg.lapack", "dpttrf"): (False, True, None),
    ("scipy.linalg.lapack", "dpttrs"): (True, False, 2),
}
EIGEN = ("scipy.linalg", "eigvalsh_tridiagonal")
QUAD = ("scipy.integrate", "quad")

COEFFICIENT_CONSTRUCTORS = ("power_coefficient", "classical_coefficient",
                            "tabular_coefficient")
FIELD_CONSTRUCTORS = ("random_smooth_field", "random_space_time_field")
WRITERS = {("cli", "write_table"): 0, ("cli", "write_control_field"): 0,
           ("cli", "_write_summary"): None}


class Tracer:
    """Span store, per-name totals and free counters for one process."""

    def __init__(self):
        self.spans = []       # [name, trace_id, parent, start, end, child_s]
        self.totals = {}      # name -> [calls, inclusive_s, self_s]
        self.counters = {}    # name -> number
        self.trace_id = -1
        self._stack = []      # [name, start, child_s, span index or None]
        self._open = {}       # name -> frames of that name currently open

    def add(self, name: str, amount=1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def enter(self, name: str, span: bool) -> list:
        idx = None
        if span:
            parent = next((f[3] for f in reversed(self._stack) if f[3] is not None),
                          None)
            idx = len(self.spans)
            self.spans.append([name, self.trace_id, parent, 0.0, 0.0, 0.0])
        frame = [name, 0.0, 0.0, idx]
        self._stack.append(frame)
        self._open[name] = self._open.get(name, 0) + 1
        frame[1] = time.perf_counter()
        return frame

    def leave(self, frame: list) -> None:
        end = time.perf_counter()
        name, start, child, idx = frame
        dur = end - start
        self._stack.pop()
        if self._stack:
            self._stack[-1][2] += dur
        self._open[name] -= 1
        tot = self.totals.setdefault(name, [0, 0.0, 0.0])
        tot[0] += 1
        tot[2] += dur - child
        if self._open[name] == 0:       # outermost call of a recursive name
            tot[1] += dur
        if idx is not None:
            span = self.spans[idx]
            span[3], span[4], span[5] = start, end, child

    def snapshot(self) -> dict:
        """Deterministic counts: calls per name plus the free counters."""
        out = {f"calls:{k}": v[0] for k, v in self.totals.items()}
        out.update(self.counters)
        return out

    def reset(self) -> None:
        self.__init__()


def _wrap(tracer: Tracer, fn, name: str, span: bool, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.enter(name, span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.leave(frame)
        if after is not None:
            result = after(args, kwargs, result)
        return result

    wrapper.__bench_wrapped__ = fn
    return wrapper


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs.get(key)


def _scipy_after(tracer, solve, factor, rhs_pos):
    def after(args, kwargs, result):
        if factor:
            tracer.add("tridiag.factorizations")
        if solve:
            b = _arg(args, kwargs, rhs_pos, "b")
            shape = getattr(b, "shape", ())
            tracer.add("tridiag.solves")
            tracer.add("tridiag.rhs_cols", shape[1] if len(shape) > 1 else 1)
        return result
    return after


def _install_scipy(tracer: Tracer) -> dict:
    """Wrap scipy attributes in place; returns {original object: wrapper}."""
    replaced = {}
    entries = [(key, _scipy_after(tracer, *flags)) for key, flags in TRIDIAG.items()]
    entries += [(EIGEN, None), (QUAD, None)]
    for (modname, attr), after in entries:
        name = f"scipy.{attr}"
        mod = importlib.import_module(modname)
        original = getattr(mod, attr)
        wrapper = _wrap(tracer, original, name, span=False, after=after)
        setattr(mod, attr, wrapper)
        replaced[original] = wrapper
    return replaced


def _count_eval(tracer: Tracer):
    def after(args, kwargs, coef):
        if getattr(coef.eval, "__bench_wrapped__", None) is not None:
            return coef
        return dataclasses.replace(
            coef, eval=_wrap(tracer, coef.eval, "coefficients.a_eval", span=False))
    return after


def _time_field(tracer: Tracer):
    def after(args, kwargs, field):
        return _wrap(tracer, field, "carleman.field_eval", span=False)
    return after


def _hum_after(tracer: Tracer):
    def after(args, kwargs, result):
        tracer.add("control.cg_iters", result.cg_iters)
        return result
    return after


def _picard_after(tracer: Tracer):
    def after(args, kwargs, report):
        tracer.add("semilinear.picard_iters", report.iterations)
        return report
    return after


def _writer_after(tracer: Tracer, path_pos):
    def after(args, kwargs, result):
        path = args[path_pos] if path_pos is not None \
            else os.path.join(args[0], "summary.txt")
        tracer.add("cli.write_bytes", os.path.getsize(path))
        return result
    return after


def _after_hook(tracer: Tracer, layer: str, attr: str):
    if layer == "coefficients" and attr in COEFFICIENT_CONSTRUCTORS:
        return _count_eval(tracer)
    if layer == "carleman" and attr in FIELD_CONSTRUCTORS:
        return _time_field(tracer)
    if layer == "control" and attr == "hum_solve":
        return _hum_after(tracer)
    if layer == "semilinear" and attr == "picard_null_control":
        return _picard_after(tracer)
    if (layer, attr) in WRITERS:
        return _writer_after(tracer, WRITERS[(layer, attr)])
    return None


def install(tracer: Tracer):
    """Wrap scipy, import degen_control, wrap its layers; returns the package."""
    if "degen_control" in sys.modules:
        raise RuntimeError("tracing must be installed before degen_control is imported")
    replaced = _install_scipy(tracer)
    package = importlib.import_module("degen_control")
    for layer in LAYERS:
        mod = importlib.import_module(f"degen_control.{layer}")
        for attr, obj in list(vars(mod).items()):
            public = not attr.startswith("_") or (layer, attr) in WRITERS
            if not (public and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__ and obj not in replaced):
                continue
            replaced[obj] = _wrap(tracer, obj, f"{layer}.{attr}", span=True,
                                  after=_after_hook(tracer, layer, attr))

    for modname, mod in list(sys.modules.items()):
        if not (modname == "degen_control" or modname.startswith("degen_control.")):
            continue
        for attr, obj in list(vars(mod).items()):
            if _hashable(obj) and obj in replaced:
                setattr(mod, attr, replaced[obj])
            elif isinstance(obj, dict):
                for key, val in obj.items():
                    if _hashable(val) and val in replaced:
                        obj[key] = replaced[val]
    return package


def _hashable(obj) -> bool:
    try:
        hash(obj)
    except TypeError:
        return False
    return True
