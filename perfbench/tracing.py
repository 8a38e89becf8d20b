"""Layer spans and counts for sigeo, recorded from outside the package.

``patched(tracer)`` replaces each entry point in ENTRY_POINTS by a wrapper
that records a span (name, start, end, parent span, request id) and the
counts of that boundary. A function is replaced in every ``sigeo`` module
namespace that binds it, because modules call each other through names
bound at import (``directional_form`` lives in ``fisher``, ``distance``,
``hausdorff`` and ``markov``); ``ParamModel`` methods are replaced on the
class. Everything is restored on exit. Spans stay in memory until
``Tracer.write``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

WRAPPER_MARK = "_perfbench_span"


def _rows(thetas) -> int:
    return 1 if np.ndim(thetas) < 2 else int(np.shape(thetas)[0])


def _count_density(tracer, args, result):
    model, rows = args[0], _rows(args[1])
    tracer.counts["models.density_calls"] += 1
    tracer.counts["models.rows"] += rows
    tracer.counts["models.node_evals"] += rows * model.space.size


def _count_jacobian(tracer, args, result):
    model, rows = args[0], _rows(args[1])
    tracer.counts["models.jacobian_calls"] += 1
    tracer.counts["models.rows"] += rows
    tracer.counts["models.node_evals"] += rows * model.space.size


def _count_form(tracer, args, result):
    tracer.counts["fisher.directional_form.rows"] += int(np.shape(result)[0])
    if tracer.is_open("distance.fisher_distance"):
        tracer.counts["distance.form_calls"] += 1


def _count_distance(tracer, args, result):
    tracer.counts["distance.iterations"] += result.iterations
    tracer.counts["distance.iterations_max"] = max(
        tracer.counts["distance.iterations_max"], result.iterations
    )
    tracer.counts["distance.unconverged"] += int(not result.converged)


def _count_cloud(tracer, args, result):
    tracer.counts["hausdorff.cloud_pairs"] += result.size * (result.size - 1) // 2


def _count_cover(tracer, args, result):
    tracer.counts["hausdorff.cover_sets"] += len(result)


def _count_fisher_matrix(tracer, args, result):
    if tracer.is_open("hausdorff.jeffrey_measure"):
        tracer.counts["hausdorff.jeffrey_points"] += 1


def _count_outcomes(tracer, args, result):
    tracer.counts["estimation.outcomes"] += args[0].space.size


# (module, function, count hook). Span names are "<module>.<function>".
ENTRY_POINTS = (
    ("models", "product_model", None),
    ("measures", "tv_norm", None),
    ("fisher", "directional_form", _count_form),
    ("fisher", "fisher_matrix", _count_fisher_matrix),
    ("distance", "fisher_distance", _count_distance),
    ("markov", "random_kernel", None),
    ("markov", "pushforward_measure", None),
    ("markov", "pushforward_tangent", None),
    ("markov", "pushforward_model", None),
    ("markov", "monotonicity_gap", None),
    ("markov", "sufficiency_check", None),
    ("hausdorff", "cloud_from_params", _count_cloud),
    ("hausdorff", "greedy_cover", _count_cover),
    ("hausdorff", "hausdorff_measure_estimate", None),
    ("hausdorff", "hausdorff_dimension_estimate", None),
    ("hausdorff", "flat_region_dimension_estimate", None),
    ("hausdorff", "jeffrey_measure", None),
    ("hausdorff", "jeffrey_vs_hausdorff_check", None),
    ("hausdorff", "hausdorff_monotonicity_check", None),
    ("estimation", "cramer_rao_gap", _count_outcomes),
    ("acceptance", "run_all", None),
    ("cli", "main", None),
)

# (module, class, method, count hook), wrapped on the class itself.
METHODS = (
    ("models", "ParamModel", "density_batch", _count_density),
    ("models", "ParamModel", "jacobian_batch", _count_jacobian),
)


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent_id, request); id = index
        self.counts = Counter()
        self.request = None
        self._stack = []
        self._open = Counter()
        self.t0 = time.perf_counter()

    def is_open(self, name) -> bool:
        return self._open[name] > 0

    def call(self, name, fn, count, args, kwargs):
        sid = len(self.spans)
        self.spans.append(None)  # reserve the id so ids follow start order
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        self._open[name] += 1
        self.counts[name + ".calls"] += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._open[name] -= 1
            self.spans[sid] = (name, start, end, parent, self.request)
        if count is not None:
            count(self, args, result)
        return result

    def self_seconds(self) -> Counter:
        """Per span name: summed duration minus the time child spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for (name, start, end, _, _), covered in zip(self.spans, child):
            out[name] += (end - start) - covered
        return out

    def write(self, path, header=None):
        """One JSON line per span (times relative to the tracer's start)."""
        with open(path, "w", encoding="utf-8") as fh:
            if header is not None:
                fh.write(json.dumps({"header": header}) + "\n")
            for sid, (name, start, end, parent, request) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": name,
                            "start": round(start - self.t0, 9),
                            "end": round(end - self.t0, 9),
                            "parent": parent,
                            "request": request,
                        }
                    )
                    + "\n"
                )


def _wrapper(tracer, name, fn, count):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, count, args, kwargs)

    setattr(traced, WRAPPER_MARK, name)
    return traced


def sigeo_modules():
    """Every imported ``sigeo`` module, the package itself included."""
    for mod in {m for m, _, _ in ENTRY_POINTS} | {m for m, _, _, _ in METHODS}:
        importlib.import_module("sigeo." + mod)
    return [m for key, m in list(sys.modules.items()) if key == "sigeo" or key.startswith("sigeo.")]


def originals():
    """The unwrapped entry-point functions and methods, as (name, object)."""
    out = []
    for mod, fn, _ in ENTRY_POINTS:
        out.append((f"{mod}.{fn}", getattr(sys.modules["sigeo." + mod], fn)))
    for mod, cls, meth, _ in METHODS:
        out.append((f"{mod}.{meth}", vars(getattr(sys.modules["sigeo." + mod], cls))[meth]))
    return out


@contextmanager
def patched(tracer: Tracer):
    """Route every entry point through ``tracer`` for the ``with`` body."""
    modules = sigeo_modules()
    saved = []  # (owner, attribute, original)
    try:
        for mod, fn, count in ENTRY_POINTS:
            original = getattr(sys.modules["sigeo." + mod], fn)
            if hasattr(original, WRAPPER_MARK):
                raise RuntimeError(f"{mod}.{fn} is already traced")
            wrapped = _wrapper(tracer, f"{mod}.{fn}", original, count)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        saved.append((module, attr, original))
                        setattr(module, attr, wrapped)
        for mod, cls, meth, count in METHODS:
            owner = getattr(sys.modules["sigeo." + mod], cls)
            original = vars(owner)[meth]
            saved.append((owner, meth, original))
            setattr(owner, meth, _wrapper(tracer, f"{mod}.{meth}", original, count))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
