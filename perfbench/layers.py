"""Per-layer tracing of qdc from outside the package.

`install()` wraps the layer-boundary functions of each qdc module in the
current interpreter and returns a Tracer whose `metrics()` gives the
per-layer numbers of BENCHMARK.json.  Nothing under src/qdc is edited: a
wrapped function is rebound in every qdc module that imported it (a
`from .kernel import normalize` copies the binding), and the LaurentScalar
arithmetic dunders are replaced on the class.

A span opens when a call crosses into a layer from a different one; calls
inside the same layer pass straight through.  A span's self time is its
duration minus its child spans and minus the ring time spent directly in it.
Ring arithmetic is aggregated into counters, never recorded per call.
Only public names are read; a name a later version drops reports 0.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

SUITE_NAMES = ("relations", "ansatz", "inverse", "forms", "structure",
               "superalgebra", "hopf", "central", "rmatrix", "plane",
               "confluence")
MODULE_LAYERS = ("calculus", "liealg", "hopf", "rmatrix")
TENSOR_FUNCS = ("tensor_mul", "tensor_normalize")

# per-layer metric -> unit; perfbench/README.md gives the end-to-end metric
# and workload each one should move
PER_LAYER = {
    **{f"cli.suite.{s}.s": "s" for s in SUITE_NAMES},
    "cli.report.s": "s",
    "catalog.build.s": "s",
    "parser.calls": "count",
    "parser.self_s": "s",
    "kernel.normalize.calls": "count",
    "kernel.normalize.terms_in": "count",
    "kernel.normalize.terms_out": "count",
    "kernel.normalize.self_s": "s",
    "kernel.format.s": "s",
    "kernel.confluence.words": "count",
    "kernel.confluence.ambiguous": "count",
    "kernel.confluence.useful_ratio": "ratio",
    "kernel.confluence.s": "s",
    "ring.mul.calls": "count",
    "ring.add.calls": "count",
    "ring.mul.mean_terms": "terms",
    "ring.busy_s": "s",
    **{f"{m}.self_s": "s" for m in MODULE_LAYERS},
    "hopf.tensor.calls": "count",
    "linalg.rank.calls": "count",
    "linalg.rank.max_cells": "count",
    "linalg.rank.s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    def __init__(self):
        self.stack = []           # open spans: [name, start, excluded]
        self.spans = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.ring_busy = 0.0
        self.max_cells = 0

    def call(self, name, fn, args, kwargs):
        stack = self.stack
        if stack and stack[-1][0] == name:
            return fn(*args, **kwargs)
        frame = [name, time.perf_counter(), 0.0]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - frame[1]
            stack.pop()
            self.spans[name] += 1
            self.total[name] += dur
            self.self_time[name] += dur - frame[2]
            if stack:
                stack[-1][2] += dur

    def ring(self, fn, *args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            dur = time.perf_counter() - t0
            self.ring_busy += dur
            if self.stack:
                self.stack[-1][2] += dur

    def metrics(self):
        c, tot = self.counts, self.total
        words = c["kernel.confluence.words"]
        mul = c["ring.mul.calls"]
        out = {f"cli.suite.{s}.s": tot[f"cli.suite.{s}"] for s in SUITE_NAMES}
        out.update({
            "cli.report.s": tot["cli.report"],
            "catalog.build.s": tot["catalog.build"],
            "parser.calls": self.spans["parser"],
            "parser.self_s": self.self_time["parser"],
            "kernel.normalize.calls": self.spans["kernel.normalize"],
            "kernel.normalize.terms_in": c["kernel.normalize.terms_in"],
            "kernel.normalize.terms_out": c["kernel.normalize.terms_out"],
            "kernel.normalize.self_s": self.self_time["kernel.normalize"],
            "kernel.format.s": tot["kernel.format"],
            "kernel.confluence.words": words,
            "kernel.confluence.ambiguous": c["kernel.confluence.ambiguous"],
            "kernel.confluence.useful_ratio":
                c["kernel.confluence.ambiguous"] / words if words else 0.0,
            "kernel.confluence.s": tot["kernel.confluence"],
            "ring.mul.calls": mul,
            "ring.add.calls": c["ring.add.calls"],
            "ring.mul.mean_terms": c["ring.mul.terms"] / (2 * mul) if mul else 0.0,
            "ring.busy_s": self.ring_busy,
        })
        for m in MODULE_LAYERS:
            out[f"{m}.self_s"] = self.self_time[m]
        out.update({
            "hopf.tensor.calls": c["hopf.tensor.calls"],
            "linalg.rank.calls": self.spans["linalg.rank"],
            "linalg.rank.max_cells": self.max_cells,
            "linalg.rank.s": tot["linalg.rank"],
        })
        return out


def _qdc_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "qdc" or n.startswith("qdc."))]


def _rebind(original, replacement):
    """Point every qdc module-level name bound to `original` at `replacement`."""
    for mod in _qdc_modules():
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, replacement)


def _span(tracer, name, fn, before=None, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(args, kwargs)
        result = tracer.call(name, fn, args, kwargs)
        if after is not None:
            after(result)
        return result
    return wrapper


def _wrap_function(tracer, module, attr, name, before=None, after=None):
    fn = getattr(module, attr, None)
    if not callable(fn):
        return
    _rebind(fn, _span(tracer, name, fn, before, after))


def _wrap_method(tracer, cls, attr, name):
    fn = cls.__dict__.get(attr) if cls is not None else None
    if callable(fn):
        setattr(cls, attr, _span(tracer, name, fn))


def install():
    """Wrap qdc's layer boundaries in this interpreter; return the Tracer."""
    import qdc.catalog
    import qdc.cli
    import qdc.kernel
    import qdc.linalg
    import qdc.parser
    import qdc.report
    import qdc.ring

    t = Tracer()
    c = t.counts

    # ring: aggregated counters on the LaurentScalar class
    cls = qdc.ring.LaurentScalar
    mul, add, sub, neg = (cls.__dict__.get(k) for k in
                          ("__mul__", "__add__", "__sub__", "__neg__"))

    def t_mul(a, b):
        c["ring.mul.calls"] += 1
        c["ring.mul.terms"] += len(getattr(a, "coeffs", ())) + len(getattr(b, "coeffs", ()))
        return t.ring(mul, a, b)

    def t_add(a, b):
        c["ring.add.calls"] += 1
        return t.ring(add, a, b)

    def t_sub(a, b):
        c["ring.add.calls"] += 1
        return t.ring(sub, a, b)

    def t_neg(a):
        return t.ring(neg, a)

    for attr, orig, wrapped in (("__mul__", mul, t_mul), ("__add__", add, t_add),
                                ("__sub__", sub, t_sub), ("__neg__", neg, t_neg)):
        if orig is not None:
            setattr(cls, attr, wrapped)

    # catalog and parser
    _wrap_method(t, getattr(qdc.catalog, "Catalog", None), "__init__", "catalog.build")
    for attr in ("parse_expression", "parse_ast", "eval_ast"):
        _wrap_function(t, qdc.parser, attr, "parser")

    # kernel: normalize, canonical text, confluence
    def norm_in(args, kwargs):
        c["kernel.normalize.terms_in"] += len(getattr(args[0], "terms", ())) if args else 0

    def norm_out(result):
        c["kernel.normalize.terms_out"] += len(getattr(result, "terms", ()))

    def conf_out(rep):
        c["kernel.confluence.words"] += getattr(rep, "words_checked", 0)
        c["kernel.confluence.ambiguous"] += getattr(rep, "ambiguous", 0)

    _wrap_function(t, qdc.kernel, "normalize", "kernel.normalize", norm_in, norm_out)
    _wrap_function(t, qdc.kernel, "format_element", "kernel.format")
    _wrap_function(t, qdc.kernel, "check_local_confluence", "kernel.confluence",
                   after=conf_out)

    # linear algebra
    def rank_in(args, kwargs):
        rows = list(args[0]) if args else []
        cells = len(rows) * (len(rows[0]) if rows else 0)
        t.max_cells = max(t.max_cells, cells)

    _wrap_function(t, qdc.linalg, "rank", "linalg.rank", before=rank_in)
    for attr in ("row_space_equal", "span_contains", "elements_to_rows"):
        _wrap_function(t, qdc.linalg, attr, "linalg")

    # the mathematical layers: every public module-level function
    for layer in MODULE_LAYERS:
        mod = importlib.import_module(f"qdc.{layer}")
        for attr, fn in list(vars(mod).items()):
            if (not attr.startswith("_") and callable(fn) and not isinstance(fn, type)
                    and getattr(fn, "__module__", None) == mod.__name__):
                _wrap_function(t, mod, attr, layer)
    hopf = sys.modules["qdc.hopf"]
    for attr in TENSOR_FUNCS:
        fn = getattr(hopf, attr, None)
        if callable(fn):
            def counted(*args, _fn=fn, **kwargs):
                c["hopf.tensor.calls"] += 1
                return _fn(*args, **kwargs)
            _rebind(fn, functools.wraps(fn)(counted))

    # cli: one span per suite, and the report assembly
    suites = getattr(qdc.cli, "SUITES", {})
    for s in SUITE_NAMES:
        if s in suites:
            suites[s] = _span(t, f"cli.suite.{s}", suites[s])
    report_cls = getattr(qdc.report, "SuiteReport", None)
    for attr in ("sorted", "to_json", "to_text"):
        _wrap_method(t, report_cls, attr, "cli.report")
    return t
