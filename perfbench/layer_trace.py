"""Outside-in per-layer tracing of a Python package.

Each module of the package is one layer.  While a segment is open, every
public module-level function a module defines is replaced by a timing
wrapper in every namespace of the package that refers to it (the package
``__init__`` included), so calls made from inside the package are seen
too.  The functions are discovered when the tracer is built; nothing is
listed by name except the few whose public arguments or return values
give outcome counts, and those counts read 0 when the function is gone.

A span opens when a call enters a layer from another layer (or from
outside); calls nested within the same layer pass straight through.  A
layer's self time is its spans' durations minus their child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time
from collections import Counter
from contextlib import contextmanager


class _Counted:
    """Callable proxy that counts how often the program invokes it."""

    __slots__ = ("fn", "calls")

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


class SegmentStats:
    """What one traced segment recorded: per-layer self time and span
    count, plus outcome counters keyed by metric name."""

    def __init__(self):
        self.self_s = Counter()
        self.calls = Counter()
        self.counters = Counter()
        self.maxima = Counter()


def _arg_position(fn, name):
    try:
        return list(inspect.signature(fn).parameters).index(name)
    except ValueError:
        return None


def _swap_arg(args, kwargs, position, name, wrap):
    """Replace one argument (by keyword or position) with wrap(argument)."""
    if name in kwargs:
        kwargs = dict(kwargs, **{name: wrap(kwargs[name])})
    elif position is not None and position < len(args):
        args = args[:position] + (wrap(args[position]),) + args[position + 1:]
    return args, kwargs


class LayerTracer:
    """Traces the layers (modules) of `package_name` while a segment is open."""

    def __init__(self, package_name: str):
        self.package_name = package_name
        package = importlib.import_module(package_name)
        self._functions = []  # (layer, original function)
        for info in pkgutil.iter_modules(package.__path__):
            module = importlib.import_module(f"{package_name}.{info.name}")
            for name, obj in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    self._functions.append((info.name, obj))
        self._stack = []  # open spans: [layer, child seconds]
        self._stats = SegmentStats()
        self._wrappers = {id(fn): self._wrap(layer, fn) for layer, fn in self._functions}
        self._originals = {id(fn): fn for _, fn in self._functions}

    # -- outcome counters ------------------------------------------------

    def _record_optimize(self, result, trials):
        c = self._stats.counters
        c["manifold.optimize_calls"] += 1
        c["manifold.steps"] += int(getattr(result, "n_iter", 0))
        c["manifold.stalled"] += int(bool(getattr(result, "stalled", False)))
        c["manifold.trials"] += trials

    def _record_pg_step(self, result, trials):
        # projected_gradient_step returns (M, step); step 0 means stalled
        c = self._stats.counters
        stalled = isinstance(result, tuple) and len(result) == 2 and result[1] == 0
        c["baselines.stalled" if stalled else "baselines.steps"] += 1
        c["baselines.trials"] += trials

    def _record_knn(self, result, _):
        m = self._stats.maxima
        m["graph.nodes"] = max(m["graph.nodes"], int(getattr(result, "n", 0)))

    def _record_mining(self, result, _):
        self._stats.counters["mining.triplets"] += len(result) if hasattr(result, "__len__") else 0

    def _hook(self, layer, fn):
        """Call adapter that reads outcome counts from public arguments and
        return values, or None for functions that give no counts.

        A counted callback's first call evaluates the starting point; the
        calls after it are line-search trials.
        """
        argname, record = {
            ("manifold", "optimize_L"): ("fun_and_grad", self._record_optimize),
            ("baselines", "projected_gradient_step"): ("objective_fn", self._record_pg_step),
            ("graph", "build_knn"): (None, self._record_knn),
            ("mining", "mine_triplets"): (None, self._record_mining),
        }.get((layer, fn.__name__), (None, None))
        if record is None:
            return None
        pos = _arg_position(fn, argname) if argname else None

        def call(args, kwargs):
            counted = []

            def count(f):
                counted.append(_Counted(f))
                return counted[-1]

            if argname:
                args, kwargs = _swap_arg(args, kwargs, pos, argname, count)
            result = fn(*args, **kwargs)
            record(result, sum(max(f.calls - 1, 0) for f in counted))
            return result
        return call

    # -- spans -------------------------------------------------------------

    def _wrap(self, layer, fn):
        hook = self._hook(layer, fn)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(args, kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats = self._stats
                stats.self_s[layer] += elapsed - frame[1]
                stats.calls[layer] += 1
                if stack:
                    stack[-1][1] += elapsed

        return wrapper

    def _namespaces(self):
        prefix = self.package_name + "."
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == self.package_name or n.startswith(prefix))]

    def _patch(self, table):
        for module in self._namespaces():
            for name, value in list(vars(module).items()):
                replacement = table.get(id(value))
                if replacement is not None:
                    setattr(module, name, replacement)

    @contextmanager
    def segment(self):
        """Trace the calls made inside the block; yields its SegmentStats."""
        self._stats = stats = SegmentStats()
        self._stack.clear()
        self._patch(self._wrappers)
        try:
            yield stats
        finally:
            self._patch({id(w): self._originals[k] for k, w in self._wrappers.items()})
            self._stack.clear()
