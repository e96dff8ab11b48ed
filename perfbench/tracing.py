"""Spans and counters around tdalc's public functions, installed from outside.

``Tracer.install`` replaces every binding of each target function (in the
``tdalc`` modules and in the benchmark's own modules) by a wrapper that
records a span: name, start, end, parent span and thread.  Nothing inside
``src/tdalc`` is edited; ``uninstall`` puts the original bindings back.

A span opened in a worker thread with no open span of its own takes the
main thread's innermost open span as its parent: the program's thread pools
are started from calls made on the main thread.  A span's self time is its
duration minus the part of it covered by its children, in any thread, so
summed self time exceeds wall time exactly when threads overlap.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from collections import defaultdict
from time import perf_counter


def _nnls_counts(tracer, name, args, result, parent):
    tracer.add(name + ".iters", result.iterations)
    tracer.peak(name + ".cols_max", args[0].shape[1])


def _penalty_bytes(tracer, name, args, result, parent):
    tracer.peak(name + ".penalty_bytes", result.penalty_sqrt.nbytes)


def _kept(tracer, name, args, result, parent):
    # one single-subject deconvolution per kept sample
    if parent == "uncertainty.credible_band_scalar":
        tracer.add(parent + ".kept", 1)


def _evals(tracer, name, args, result, parent):
    tracer.add("deconvolution.select_regularization.evals", 1)


def _fit_counts(tracer, name, args, result, parent):
    tracer.add(name + ".lbfgs_iters", result.n_iter)
    tracer.add(name + ".converged", int(result.converged))


def _exit_code(tracer, name, args, result, parent):
    tracer.add(name + ".nonzero_exit", int(result != 0))


# (module, function, hook, extra counters the hook or the run reports)
TARGETS = (
    ("grid_basis", "temporal_basis_matrices", None, ()),
    ("density", "moment_weights", None, ()),
    ("density", "moment_weight_derivatives", None, ()),
    ("density", "sample", None, ()),
    ("density", "credible_region_radius", None, ()),
    ("forward_model", "discrete_time", None, ()),
    ("forward_model", "state_trajectory", None, ()),
    ("forward_model", "impulse_kernels", None, ()),
    ("forward_model", "deterministic_ops", None, ()),
    ("forward_model", "simulate_deterministic", None, ()),
    ("forward_model", "deterministic_kernels", None, ()),
    ("population_fit", "fit_episode_deterministic", None, ()),
    ("population_fit", "cost_and_gradient", None, ("failed",)),
    ("population_fit", "fit_population", _fit_counts,
     ("lbfgs_iters", "converged")),
    ("deconvolution", "build_problem", _penalty_bytes, ("penalty_bytes",)),
    ("deconvolution", "nnls", _nnls_counts, ("iters", "capped", "cols_max")),
    ("deconvolution", "select_regularization", None,
     ("evals", "unconverged")),
    ("deconvolution", "deconvolve", None, ()),
    ("deconvolution", "deconvolve_deterministic", _kept, ()),
    ("uncertainty", "credible_band", None, ()),
    ("uncertainty", "credible_band_scalar", None, ("kept",)),
    ("uncertainty", "stats_credible_intervals", None, ()),
    ("uncertainty", "episode_stats", None, ()),
    ("data_io", "parse_episode", None, ()),
    ("data_io", "write_episode", None, ()),
    ("synth", "generate", None, ()),
    ("cli", "main", _exit_code, ("nonzero_exit",)),
)

# counted without a span: one call per objective evaluation of the search
COUNTED = (("deconvolution", "_selection_misfit", _evals),)


def layer_metric_units() -> dict[str, str]:
    """Name and unit of every per-function metric, in TARGETS order."""
    units = {}
    for module, func, _, extra in TARGETS:
        base = f"{module}.{func}"
        units[f"{base}.calls"] = "count"
        units[f"{base}.self_s"] = "s"
        for x in extra:
            units[f"{base}.{x}"] = "bytes" if x == "penalty_bytes" else "count"
    return units


def layer_metric_names() -> list[str]:
    return list(layer_metric_units())


def _union_length(intervals, lo, hi) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> tuple[dict, dict]:
    """Calls and self seconds per span name."""
    children = defaultdict(list)
    for _, _, start, end, parent, _ in spans:
        children[parent].append((start, end))
    calls = defaultdict(int)
    own = defaultdict(float)
    for sid, name, start, end, _, _ in spans:
        calls[name] += 1
        own[name] += (end - start) - _union_length(children.get(sid, ()),
                                                   start, end)
    return calls, own


class Tracer:
    """Collects spans and counters while installed.  Create it on the
    main thread."""

    def __init__(self, modules, namespaces):
        self.modules = modules          # short name -> tdalc module
        self.namespaces = namespaces    # every module whose bindings to patch
        self.spans = []                 # (id, name, start, end, parent, thread)
        self.counts = defaultdict(float)
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self._patches = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, key, value) -> None:
        with self._lock:
            self.counts[key] += value

    def peak(self, key, value) -> None:
        with self._lock:
            self.counts[key] = max(self.counts[key], value)

    def _open(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack:
            # first span of a worker thread: count the threads alive now
            parent = self._main_stack[-1]
            self.peak("threads.peak", threading.active_count())
        else:
            parent = (None, None)
        sid = next(self._ids)
        stack.append((sid, name))
        return stack, sid, parent

    def call(self, name, fn, hook, args, kwargs):
        stack, sid, parent = self._open(name)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.add(name + ".failed", 1)
            raise
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent[0],
                               threading.get_ident()))
        if hook is not None:
            hook(self, name, args, result, parent[1])
        return result

    def root(self, name, fn, *args):
        """Run ``fn(*args)`` as a root span named ``name``."""
        return self.call(name, fn, None, args, {})

    def _wrap(self, name, fn, hook, timed):
        if timed:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return self.call(name, fn, hook, args, kwargs)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                hook(self, name, args, result, None)
                return result
        return wrapper

    def install(self) -> None:
        targets = [(m, f, h, True) for m, f, h, _ in TARGETS]
        targets += [(m, f, h, False) for m, f, h in COUNTED]
        for module, func, hook, timed in targets:
            original = getattr(self.modules[module], func)
            wrapper = self._wrap(f"{module}.{func}", original, hook, timed)
            for ns in self.namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapper)
                        self._patches.append((ns, key, original))

    def uninstall(self) -> None:
        for ns, key, original in reversed(self._patches):
            setattr(ns, key, original)
        self._patches.clear()

    def take(self) -> list:
        """Spans recorded since the last call, in end order."""
        spans, self.spans = self.spans, []
        return spans


def write_spans(path, phases) -> None:
    """One JSON object per span; ``phases`` maps a phase label to spans."""
    with open(path, "w", encoding="ascii") as fh:
        for phase, spans in phases:
            for sid, name, start, end, parent, thread in spans:
                fh.write(json.dumps({"phase": phase, "id": sid, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent, "thread": thread})
                         + "\n")
