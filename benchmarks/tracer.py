"""Span tracing of mdlab's public functions, installed from outside the package.

:meth:`Tracer.install` replaces every public function of every loaded
``mdlab.*`` module, and every public method of the classes in
``mdlab.distributions``, with a wrapper that records one span per call. A
function is wrapped at every module attribute that holds it, so a name
imported into another module (``mdlab.experiments.lattice_dp_max`` is
``mdlab.oracle.lattice_dp_max``) is traced too. The span's layer is the
module that defines the function, so layer totals survive renames inside a
module.

The ``ThreadPoolExecutor`` name that mdlab modules look up is replaced by
a subclass that copies the span context into the pool thread and records
one ``pool.task`` span per task; spans in worker threads keep their parent
and the task spans measure how busy the workers were.

A span is ``(id, parent_id, name, layer, thread, start, end, count)``.
``count`` is the work a call was asked to do, computed from its arguments
for a few functions (see ``COUNTERS``), else None. Spans stay in memory
until :meth:`Tracer.write` is called.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

from reference import lattice_barrier

_current = contextvars.ContextVar("benchmark_span", default=None)
_suppressed = contextvars.ContextVar("benchmark_suppressed", default=False)

POOL_TASK = "pool.task"


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _dp_max_cells(args, kwargs):
    n, x = _arg(args, kwargs, 0, "n"), _arg(args, kwargs, 1, "x")
    b = lattice_barrier(n, x)
    return n * (n + max(b, 0) + 2) if b <= n else 0


def _dp_sum_cells(args, kwargs):
    n, x = _arg(args, kwargs, 0, "n"), _arg(args, kwargs, 1, "x")
    return n * (2 * n + 1) if lattice_barrier(n, x) <= n else 0


def _enum_outcomes(args, kwargs):
    seq = _arg(args, kwargs, 0, "seq")
    support = seq.dist.finite_support()
    return len(support[0]) ** seq.n if support is not None else 0


def _path_steps(args, kwargs):
    return _arg(args, kwargs, 2, "n_samples") * _arg(args, kwargs, 0, "seq").n


def _draws(index):
    def count(args, kwargs):
        size = _arg(args, kwargs, index, "size")
        return 1 if size is None else int(size)

    return count


# work per call, keyed by span name; args of methods include self
COUNTERS = {
    "oracle.lattice_dp_max": _dp_max_cells,
    "oracle.lattice_dp_sum": _dp_sum_cells,
    "oracle.enumerate_exact": _enum_outcomes,
    "mc.simulate": _path_steps,
}
_SAMPLE_METHODS = {"sample": _draws(2), "tilted_sample": _draws(3)}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._undo: list[tuple] = []

    # -- recording ----------------------------------------------------------
    def _wrap(self, fn, name, layer, counter):
        spans, ids = self.spans, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if _suppressed.get():
                return fn(*args, **kwargs)
            parent = _current.get()
            sid = next(ids)
            token = _current.set(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _current.reset(token)
                count = None
                if counter is not None:
                    quiet = _suppressed.set(True)
                    try:
                        count = counter(args, kwargs)
                    finally:
                        _suppressed.reset(quiet)
                spans.append((sid, parent, name, layer, threading.get_ident(), start, end, count))

        return traced

    def _pool_class(self):
        # a task span has no layer of its own (it counts for its parent's)
        # and its count is the width of the pool that ran it
        run_task = self._wrap(
            lambda width, fn, *a, **kw: fn(*a, **kw),
            POOL_TASK, None, lambda args, kwargs: args[0],
        )

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                ctx = contextvars.copy_context()
                return super().submit(ctx.run, run_task, self._max_workers, fn, *args, **kwargs)

        return TracedPool

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "mdlab" or name.startswith("mdlab."))]
        wrappers = {}
        for mod in modules:
            for obj in vars(mod).values():
                if (inspect.isfunction(obj) and id(obj) not in wrappers
                        and obj.__module__.startswith("mdlab")
                        and not obj.__name__.startswith("_")):
                    name = f"{obj.__module__.split('.')[-1]}.{obj.__name__}"
                    layer = obj.__module__.split(".")[-1]
                    wrappers[id(obj)] = self._wrap(obj, name, layer, COUNTERS.get(name))
        pool = self._pool_class()
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patch(mod, attr, wrappers[id(obj)])
                elif obj is ThreadPoolExecutor:
                    self._patch(mod, attr, pool)
        dist_mod = sys.modules["mdlab.distributions"]
        for cls in list(vars(dist_mod).values()):
            if not (inspect.isclass(cls) and cls.__module__ == dist_mod.__name__):
                continue
            for attr, obj in list(vars(cls).items()):
                if inspect.isfunction(obj) and not attr.startswith("_"):
                    name = f"distributions.{cls.__name__}.{attr}"
                    counter = _SAMPLE_METHODS.get(attr)
                    self._patch(cls, attr, self._wrap(obj, name, "distributions", counter))

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(["id", "parent", "name", "layer", "thread", "start", "end", "count"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


_SAMPLE_NAMES = ("sample", "tilted_sample")
_MOMENT_NAMES = ("truncated_abs_moment", "abs_moment", "abs_tail_prob")


def layer_metrics(spans: list[tuple]) -> dict:
    """Per-layer totals of one traced pass over a workload.

    A span's self time is its duration minus the part of it that its child
    spans (in any thread) cover. ``pool.task`` spans count for the layer
    of the span that submitted them. Busy times sum the outermost spans of
    a kind, so nested calls are not counted twice. Ratios whose
    denominator is zero are reported as 0.
    """
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s[1] in by_id:
            children[s[1]].append(s)

    def layer(s):
        while s[3] is None:
            if s[1] not in by_id:
                return "pool"
            s = by_id[s[1]]
        return s[3]

    def dur(s):
        return s[6] - s[5]

    def self_time(s):
        covered, reach = 0.0, s[5]
        for lo, hi in sorted((max(c[5], s[5]), min(c[6], s[6])) for c in children[s[0]]):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return dur(s) - covered

    def top(pred):
        return [s for s in spans if pred(s) and not (s[1] in by_id and pred(by_id[s[1]]))]

    def method(s):
        return s[2].rsplit(".", 1)[-1]

    def per(num, den, scale):
        return num * scale / den if den else 0.0

    self_by_layer = defaultdict(float)
    for s in spans:
        self_by_layer[layer(s)] += self_time(s)

    lattice = [s for s in spans if s[2] in ("oracle.lattice_dp_max", "oracle.lattice_dp_sum")]
    lattice_s = sum(dur(s) for s in top(lambda s: s[2] in ("oracle.lattice_dp_max", "oracle.lattice_dp_sum")))
    dp_cells = sum(s[7] or 0 for s in lattice)
    enum = [s for s in spans if s[2] == "oracle.enumerate_exact"]
    enum_s = sum(dur(s) for s in enum)
    enum_outcomes = sum(s[7] or 0 for s in enum)
    rows = [s for s in spans if s[2] == "experiments.compute_row"]

    sims = [s for s in spans if s[2] == "mc.simulate"]
    path_steps = sum(s[7] or 0 for s in sims)
    kernel_s = pool_busy = pool_capacity = 0.0
    for s in sims:
        kernel_s += self_time(s)
        tasks = [c for c in children[s[0]] if c[2] == POOL_TASK]
        kernel_s += sum(self_time(t) for t in tasks)
        if tasks:
            pool_busy += sum(dur(t) for t in tasks)
            pool_capacity += tasks[0][7] * dur(s)

    samples = top(lambda s: layer(s) == "distributions" and method(s) in _SAMPLE_NAMES)
    sample_s = sum(dur(s) for s in samples)
    draws = sum(s[7] or 0 for s in samples)
    moments = top(lambda s: layer(s) == "distributions" and method(s) in _MOMENT_NAMES)
    moment_s = sum(dur(s) for s in moments)

    return {
        "cli.self_s": self_by_layer["cli"],
        "experiments.rows": len(rows),
        "experiments.row_s": sum(dur(s) for s in rows),
        "experiments.self_s": self_by_layer["experiments"],
        "oracle.busy_s": sum(dur(s) for s in top(lambda s: layer(s) == "oracle")),
        "oracle.lattice_dp_s": lattice_s,
        "oracle.dp_cells": dp_cells,
        "oracle.dp_ns_per_cell": per(lattice_s, dp_cells, 1e9),
        "oracle.enumerate_s": enum_s,
        "oracle.enum_outcomes": enum_outcomes,
        "oracle.enum_ns_per_outcome": per(enum_s, enum_outcomes, 1e9),
        "mc.path_steps": path_steps,
        "mc.kernel_s": kernel_s,
        "mc.kernel_ns_per_path_step": per(kernel_s, path_steps, 1e9),
        "mc.choose_tilt_s": sum(dur(s) for s in top(lambda s: s[2] == "mc.choose_tilt")),
        "mc.pool_efficiency": per(pool_busy, pool_capacity, 1.0),
        "distributions.sample_calls": len(samples),
        "distributions.draws": draws,
        "distributions.sample_s": sample_s,
        "distributions.ns_per_draw": per(sample_s, draws, 1e9),
        "distributions.moment_calls": len(moments),
        "distributions.moment_s": moment_s,
        "distributions.us_per_moment": per(moment_s, len(moments), 1e6),
        "theory.calls": sum(1 for s in spans if layer(s) == "theory"),
        "theory.self_s": self_by_layer["theory"],
    }
