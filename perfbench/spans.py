"""Span recording around mvmlab's public functions, from outside the package.

`SpanRecorder.install` wraps every public function of the mvmlab modules and
every public method of their public classes (scenarios and cli keep only
their module-level functions, so report writing stays in ``cli.main``;
the inner helpers in UNWRAPPED stay unwrapped).  A
wrapped name is rebound everywhere it is bound, e.g. ``integrate.qm_sqrt_field``
as well as ``quadvar.qm_sqrt_field``.  Each call records a span
``[name, start, end, parent, attrs]``; only calls on the installing thread are
recorded, so spans nest and a worker thread's time stays in its caller.

`summarise` turns the spans of one pass into self times (duration minus the
direct children's durations), call counts and summed attributes.
"""

from __future__ import annotations

import fnmatch
import functools
import inspect
import sys
import threading
import time

MODULES = ("measures", "hilbert", "haar", "noise", "quadvar", "integrate",
           "spde", "scenarios", "cli")
FUNCTIONS_ONLY = ("scenarios", "cli")
# Inner helpers left unwrapped, so their time stays in the caller's self time:
# the per-cell eigh of quadvar.qm_density and the mass evaluation inside
# quadvar.qv_supremum, called thousands of times per pass.
UNWRAPPED = ("hilbert.psd_part", "noise.*IntensityFamily.batch")


def _nbytes(obj) -> int:
    return int(getattr(obj, "nbytes", 0))


# Computed attributes recorded per call: name -> fn(args, kwargs, result).
ATTRS = {
    "noise.simulate": lambda a, k, out: {
        "paths": int(k.get("paths", a[2] if len(a) > 2 else 0)),
        "out_bytes": _nbytes(out.increments)},
    "integrate.integrate_grid": lambda a, k, out: {
        "phi_bytes": _nbytes((k.get("phi") or a[0]).values)},
    "quadvar.qm_density": lambda a, k, out: {
        "cells": int(out.matrices.shape[0] * out.matrices.shape[1])},
    "spde.picard_solve": lambda a, k, out: {"iterations": int(out.iterations)},
}


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._thread = threading.get_ident()

    def _wrap(self, name: str, fn):
        attrs = ATTRS.get(name)
        spans, stack, owner = self.spans, self._stack, self._thread
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != owner:
                return fn(*args, **kwargs)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if attrs is not None:
                span[4] = attrs(args, kwargs, out)
            return out

        return wrapper

    def install(self) -> None:
        """Wrap the public callables and rebind every name bound to them."""
        wrapped: dict[int, object] = {}
        for short in MODULES:
            mod = sys.modules[f"mvmlab.{short}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) \
                        != mod.__name__:
                    continue
                if any(fnmatch.fnmatchcase(f"{short}.{attr}", pattern)
                       for pattern in UNWRAPPED):
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self._wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj) and short not in FUNCTIONS_ONLY:
                    self._wrap_methods(short, obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "mvmlab" and not mod_name.startswith("mvmlab."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    setattr(mod, attr, wrapped[id(obj)])

    def _wrap_methods(self, short: str, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if any(fnmatch.fnmatchcase(name, p) for p in UNWRAPPED):
                continue
            if inspect.isfunction(obj) and not getattr(
                    obj, "__isabstractmethod__", False):
                setattr(cls, attr, self._wrap(name, obj))
            elif isinstance(obj, classmethod):
                setattr(cls, attr, classmethod(self._wrap(name, obj.__func__)))
            elif isinstance(obj, staticmethod):
                setattr(cls, attr, staticmethod(self._wrap(name, obj.__func__)))


def summarise(spans: list) -> dict:
    """Per span name: calls, total (inclusive) seconds, self seconds, attrs."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                    "attrs": {}})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += (end - start) - child_time[i]
        for key, value in (attrs or {}).items():
            row["attrs"][key] = row["attrs"].get(key, 0) + value
    return out


def top_level_seconds(spans: list) -> float:
    return sum(end - start for _, start, end, parent, _ in spans if parent < 0)
