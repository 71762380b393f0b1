"""In-memory span recorder for the benchmark.

Spans are recorded around calls into the package's public functions.  The
``pipeline`` and ``evaluation`` modules import their callees by name, so a
span is installed by replacing the name where the caller looks it up (for
example ``histgdp.pipeline.en_cv``), never inside the package's own code.
Functions called hundreds of thousands of times per pass (``hpi_weight``)
get a light counter instead of a span: calls and seconds summed per parent
span, so they neither flood memory nor hide from their parent's self time.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = math.nan
    error: str | None = None
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Spans (name, start, end, parent) plus light per-parent counters."""

    def __init__(self):
        self.spans: list[Span] = []
        self.light: dict = {}  # (parent span index, name) -> [calls, seconds]
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        index = len(self.spans)
        record = Span(name, time.perf_counter(), self._stack[-1] if self._stack else None,
                      attrs=attrs)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        except BaseException as err:
            record.error = type(err).__name__
            raise
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def add_light(self, name: str, seconds: float):
        key = (self._stack[-1] if self._stack else None, name)
        entry = self.light.setdefault(key, [0, 0.0])
        entry[0] += 1
        entry[1] += seconds

    def write(self, path):
        doc = {
            "spans": [
                {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "error": s.error, "attrs": s.attrs}
                for s in self.spans
            ],
            "light": [
                {"parent": parent, "name": name, "calls": calls, "seconds": seconds}
                for (parent, name), (calls, seconds) in self.light.items()
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, default=str)


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans, light=None) -> list:
    """Each span's duration minus the part covered by its child spans and
    the time of light counters recorded directly under it."""
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    light_under: dict = {}
    for (parent, _name), (_calls, seconds) in (light or {}).items():
        if parent is not None:
            light_under[parent] = light_under.get(parent, 0.0) + seconds
    return [
        (s.end - s.start)
        - covered_length(children.get(i, ()), s.start, s.end)
        - light_under.get(i, 0.0)
        for i, s in enumerate(spans)
    ]


def tail_percentile(n: int):
    """The highest of the 99th, 95th, 90th, 75th and 50th percentiles with
    at least ten of ``n`` samples beyond it, or None when even the median
    has fewer than ten."""
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return p
    return None


# What to wrap, at the name each caller looks up: (module, attribute,
# recorded name, kind).  A "span" records a span; a "light" entry counts
# calls and time under the enclosing span.
TARGETS = (
    ("histgdp.features", "assign_flows", "data_ingest.assign_flows", "span"),
    ("histgdp.features", "hpi_weight", "features.hpi_weight", "light"),
    ("histgdp.features", "flow_counts", "features.flow_counts", "span"),
    ("histgdp.features", "rca_matrix", "features.rca_matrix", "span"),
    ("histgdp.features", "eci", "features.eci", "span"),
    ("histgdp.features", "svd_factors", "features.svd_factors", "span"),
    ("histgdp.features", "avg_age", "features.avg_age", "span"),
    ("histgdp.features", "avg_ubiquity", "features.avg_ubiquity", "span"),
    ("histgdp.features", "initial_gdp", "features.initial_gdp", "light"),
    ("histgdp.features", "svd", "numerics.svd", "span"),
    ("histgdp.numerics", "svd", "numerics.svd", "span"),
    ("histgdp.pipeline", "build_static_features", "features.build_static", "span"),
    ("histgdp.pipeline", "attach_initial_gdp", "features.attach_initial_gdp", "span"),
    ("histgdp.pipeline", "ols_fit", "numerics.ols_fit", "span"),
    ("histgdp.pipeline", "standardize", "numerics.standardize", "span"),
    ("histgdp.pipeline", "quantile", "numerics.quantile", "light"),
    ("histgdp.pipeline", "en_cv", "elasticnet.en_cv", "span"),
    ("histgdp.pipeline", "en_fit", "elasticnet.en_fit", "span"),
    ("histgdp.pipeline", "fit_centered", "elasticnet.fit_centered", "span"),
    ("histgdp.pipeline", "train_period", "pipeline.train_period", "span"),
    ("histgdp.pipeline", "predict_gated", "pipeline.predict_gated", "span"),
    ("histgdp.pipeline", "rescale_regions", "pipeline.rescale_regions", "span"),
    ("histgdp.pipeline", "bootstrap_ci", "pipeline.bootstrap_ci", "span"),
    ("histgdp.evaluation", "build_static_features", "features.build_static", "span"),
    ("histgdp.evaluation", "initial_gdp", "features.initial_gdp", "light"),
    ("histgdp.evaluation", "quantile", "numerics.quantile", "light"),
    ("histgdp.evaluation", "kruskal_wallis", "numerics.kruskal_wallis", "span"),
    ("histgdp.evaluation", "train_period", "pipeline.train_period", "span"),
    ("histgdp.evaluation", "predict_gated", "pipeline.predict_gated", "span"),
    ("histgdp.evaluation", "fit_baseline", "evaluation.fit_baseline", "span"),
    ("histgdp.evaluation", "run_single_split", "evaluation.run_single_split", "span"),
    ("histgdp.evaluation", "summarize_performance", "evaluation.summarize_performance", "span"),
)


def _record_result(name, fn):
    """Attributes a span takes from its call's arguments or result."""
    if name == "features.eci":
        return lambda span, args, kwargs, result: span.attrs.update(iterations=result.iterations)
    if name == "elasticnet.en_fit":
        return lambda span, args, kwargs, result: span.attrs.update(sweeps=result.n_sweeps)
    if name == "pipeline.bootstrap_ci":
        return lambda span, args, kwargs, result: span.attrs.update(skipped=result[2])
    if name == "elasticnet.en_cv":
        signature = inspect.signature(fn)

        def solves(span, args, kwargs, result):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            span.attrs.update(solves=len(tuple(a["alpha_grid"])) * a["k"] * a["n_lambda"])

        return solves
    return None


def _wrap(tracer: Tracer, fn, name: str, kind: str):
    if kind == "light":
        def light(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.add_light(name, time.perf_counter() - t0)

        return light

    record = _record_result(name, fn)

    def traced(*args, **kwargs):
        with tracer.span(name) as span:
            result = fn(*args, **kwargs)
            if record is not None:
                record(span, args, kwargs, result)
        return result

    return traced


@contextmanager
def instrumented(tracer: Tracer):
    """Install the wrappers of ``TARGETS`` for the duration of the block,
    then restore the original names."""
    saved = []
    try:
        for module_name, attr, name, kind in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _wrap(tracer, original, name, kind))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def empty_total() -> dict:
    return {"s": 0.0, "self_s": 0.0, "calls": 0, "errors": 0, "attrs": {}}


def layer_totals(tracer: Tracer, first: int, last: int) -> dict:
    """Aggregate spans with index in ``[first, last)`` and the light
    counters recorded under them, by name.

    Returns name -> {"s", "self_s", "calls", "errors", "attrs"}; attrs are
    summed numeric span attributes.
    """
    spans = tracer.spans[first:last]
    light = {
        (parent - first, name): value
        for (parent, name), value in tracer.light.items()
        if parent is not None and first <= parent < last
    }
    rebased = [
        Span(s.name, s.start, None if s.parent is None or s.parent < first else s.parent - first,
             s.end, s.error, s.attrs)
        for s in spans
    ]
    selfs = self_times(rebased, light)
    out: dict = {}
    for s, self_s in zip(rebased, selfs):
        agg = out.setdefault(s.name, empty_total())
        agg["s"] += s.end - s.start
        agg["self_s"] += self_s
        agg["calls"] += 1
        agg["errors"] += s.error is not None
        for key, value in s.attrs.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                agg["attrs"][key] = agg["attrs"].get(key, 0) + value
    for (_parent, name), (calls, seconds) in light.items():
        agg = out.setdefault(name, empty_total())
        agg["s"] += seconds
        agg["self_s"] += seconds
        agg["calls"] += calls
    return out
