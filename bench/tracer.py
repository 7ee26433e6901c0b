"""Layer-boundary tracer for the ``wirescat`` package, used only by traced runs.

A layer is a package module (``validate`` and ``errors`` excluded).  Its
public functions are found when the tracer is installed: every function
defined in the module whose name has no leading underscore.  Each one is
wrapped, and the wrapper is bound wherever the original is reachable inside
the package: the module attribute (which ``renorm.renorm_state(...)`` calls
go through and which module-internal calls resolve to) and every
``from .x import f`` binding, such as ``wirescat.renorm.cylinder_bessel_j``.
``uninstall`` restores every binding.

Every wrapped call records a span (name, start, end, parent, job id) in
compact ``array`` columns held in memory; ``save`` writes them at
the end.  A span's self time is its duration minus the durations of its
direct children, so a layer's self time is the time during which one of its
spans is the innermost one.  A call counts towards ``<layer>.calls`` when it
crosses into the layer (its parent span belongs to another layer, or it has
none); intra-layer calls still get spans and per-function counts.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pkgutil
import sys
import time
from array import array
from collections import Counter

import numpy as np

NON_LAYERS = ("validate", "errors")


def layer_modules(package) -> dict:
    """Module name -> module for every layer of ``package``, found at run time."""
    out = {}
    for info in pkgutil.iter_modules(package.__path__):
        if info.name.startswith("_") or info.name in NON_LAYERS:
            continue
        out[info.name] = importlib.import_module(f"{package.__name__}.{info.name}")
    return out


def public_functions(module) -> dict:
    return {name: obj for name, obj in vars(module).items()
            if inspect.isfunction(obj) and not name.startswith("_")
            and obj.__module__ == module.__name__}


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Per-span self time: duration minus the durations of direct children."""
    dur = end - start
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    return dur - child


def _param_getter(fn, name: str):
    """(args, kwargs) -> value of parameter ``name`` of ``fn``; None if fn has no such parameter."""
    params = list(inspect.signature(fn).parameters)
    if name not in params:
        return None
    idx = params.index(name)
    return lambda args, kwargs: args[idx] if len(args) > idx else kwargs.get(name)


class Tracer:
    """Wraps the package's public functions and records one span per call."""

    def __init__(self, package_name: str = "wirescat"):
        self.package = importlib.import_module(package_name)
        self.layers = layer_modules(self.package)
        errors = sys.modules.get(f"{package_name}.errors")
        self.wire_error = getattr(errors, "WireError", ()) if errors else ()
        self.names: list[str] = []
        self.layer_of: list[int] = []          # name index -> layer index
        self.layer_names = list(self.layers)
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.job = -1
        self.counts: Counter = Counter()
        self.distinct: dict[str, set] = {}
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        wrappers = {}
        for layer, module in self.layers.items():
            for fname, fn in public_functions(module).items():
                wrappers[id(fn)] = self._wrap(fn, layer, fname)
        prefix = self.package.__name__
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == prefix or modname.startswith(prefix + ".")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- per-function extras ---------------------------------------------
    def _hook(self, layer: str, fname: str, fn):
        """Counter update run after a call returns, or None.

        Extras are looked up by parameter and attribute name, not assumed:
        a function that lacks them is reported in ``missing`` and skipped.
        """
        counts = self.counts
        if layer == "specfun":
            get_x = _param_getter(fn, "x")
            if get_x is None:
                self.missing.append(f"specfun.{fname}(x)")
                return None
            counts.update({"specfun.elements": 0, "specfun.scalar_calls": 0})

            def specfun_hook(args, kwargs, result):
                x = get_x(args, kwargs)
                counts["specfun.elements"] += int(np.size(x))
                if np.ndim(x) == 0:
                    counts["specfun.scalar_calls"] += 1
            return specfun_hook
        if layer == "renorm" and fname in ("t_matrix", "renorm_sum"):
            second = "a" if fname == "t_matrix" else "y0"
            get_k, get_2 = _param_getter(fn, "k"), _param_getter(fn, second)
            if get_k is None or get_2 is None:
                self.missing.append(f"renorm.{fname}(k, {second})")
                return None
            seen = self.distinct.setdefault(f"renorm.{fname}", set())
            counts.update({"renorm.terms": 0})

            def renorm_hook(args, kwargs, result):
                seen.add((float(get_k(args, kwargs)), float(get_2(args, kwargs))))
                counts["renorm.terms"] += getattr(result, "terms_used", 0)
            return renorm_hook
        if layer == "greens":
            counts.update({"greens.terms": 0})

            def greens_hook(args, kwargs, result):
                counts["greens.terms"] += getattr(result, "terms_used", 0)
            return greens_hook
        if layer == "output":
            get_path, get_rows = _param_getter(fn, "path"), _param_getter(fn, "rows")
            if get_path is None:
                return None
            counts.update({"output.rows": 0, "output.bytes": 0})

            def output_hook(args, kwargs, result):
                rows = get_rows(args, kwargs) if get_rows else None
                if rows is not None and hasattr(rows, "__len__"):
                    counts["output.rows"] += len(rows)
                path = get_path(args, kwargs)
                if isinstance(path, (str, os.PathLike)) and os.path.exists(path):
                    counts["output.bytes"] += os.path.getsize(path)
            return output_hook
        return None

    def _wrap(self, fn, layer: str, fname: str):
        name_idx = len(self.names)
        self.names.append(f"{layer}.{fname}")
        layer_idx = self.layer_names.index(layer)
        self.layer_of.append(layer_idx)
        hook = self._hook(layer, fname, fn)
        is_mirror = layer == "mirror"
        if is_mirror:
            self.counts.update({"mirror.points": 0})
        stack, layer_of, counts = self.stack, self.layer_of, self.counts
        span_name, span_parent, span_job = self.span_name, self.span_parent, self.span_job
        span_start, span_end = self.span_start, self.span_end
        perf_counter = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            crossing = parent < 0 or layer_of[span_name[parent]] != layer_idx
            idx = len(span_start)
            span_name.append(name_idx)
            span_parent.append(parent)
            span_job.append(tracer.job)
            span_start.append(0.0)
            span_end.append(0.0)
            stack.append(idx)
            try:
                t0 = perf_counter()
                result = fn(*args, **kwargs)
                t1 = perf_counter()
            except BaseException as exc:
                t1 = perf_counter()
                if crossing and isinstance(exc, tracer.wire_error):
                    counts[f"{tracer.layer_names[layer_idx]}.errors"] += 1
                raise
            finally:
                stack.pop()
                span_start[idx] = t0
                span_end[idx] = t1
            if hook is not None:
                hook(args, kwargs, result)
            if is_mirror and crossing:
                values = getattr(result, "values", None)
                counts["mirror.points"] += int(np.size(values)) if values is not None else 1
            return result

        return wrapper

    # -- results -----------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
                "parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
                "job": np.frombuffer(self.span_job, dtype=np.int32).copy(),
                "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.span_end, dtype=np.float64).copy()}

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), layers=np.array(self.layer_names),
                            **self.arrays())

    def summary(self) -> dict[str, float]:
        """Per-layer and per-function aggregates over every recorded span."""
        cols = self.arrays()
        name, parent = cols["name"], cols["parent"]
        own = self_times(parent, cols["start"], cols["end"])
        layer_of = np.asarray(self.layer_of, dtype=np.int64)
        span_layer = layer_of[name] if len(name) else np.zeros(0, dtype=np.int64)
        parent_layer = np.where(parent >= 0, span_layer[np.maximum(parent, 0)], -1)
        crossing = parent_layer != span_layer
        out: dict[str, float] = {}
        for li, layer in enumerate(self.layer_names):
            mine = span_layer == li
            out[f"{layer}.calls"] = int(np.count_nonzero(mine & crossing))
            out[f"{layer}.self_s"] = float(own[mine].sum())
            out[f"{layer}.errors"] = int(self.counts.get(f"{layer}.errors", 0))
        for ni, full in enumerate(self.names):
            mine = name == ni
            out[f"{full}.calls"] = int(np.count_nonzero(mine))
            out[f"{full}.self_s"] = float(own[mine].sum())
        for key, value in self.counts.items():
            out.setdefault(key, value)
        for fname, seen in self.distinct.items():
            calls = out.get(f"{fname}.calls", 0)
            out[f"{fname}.distinct"] = len(seen)
            out[f"{fname}.useful_ratio"] = len(seen) / calls if calls else 0.0
        roots = parent < 0
        out["trace.root_s"] = float((cols["end"][roots] - cols["start"][roots]).sum())
        out["trace.spans"] = int(len(name))
        return out
