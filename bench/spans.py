"""Span tracing around polyplane's public functions, installed from outside.

``install`` replaces each traced function in every loaded polyplane module
namespace (and each traced method on its class) with a wrapper that
records a span: name, parent span, start and end.  ``end_op`` turns the
spans of one benchmark operation into self times (a span's duration minus
the durations of its direct children), adds them per name and drops the
spans.  Counts are taken from the arguments and results at the same
boundaries.  Nothing inside ``src/`` is edited.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute, span name, count name or None)
FUNCTIONS = [
    ("polyplane.cli", "run", "cli.self", None),
    ("polyplane.dsl", "parse", "dsl.parse", None),
    ("polyplane.dsl", "evaluate", "dsl.evaluate", None),
    ("polyplane.series", "eval_term", "series.eval_term", "series"),
    ("polyplane.render", "render_ascii", "render.ascii", "render.bytes_out"),
    ("polyplane.render", "render_pbm", "render.pbm", "render.bytes_out"),
    ("polyplane.render", "render_svg", "render.svg", "render.bytes_out"),
    ("polyplane.sequences", "dseq", "sequences.dseq", "sequences.bits_out"),
    ("polyplane.sequences", "poly_reciprocal_seq", "sequences.lfsr", "sequences.bits_out"),
    ("polyplane.sequences", "period", "sequences.period", None),
    ("polyplane.folding", "fold", "folding.fold", None),
    ("polyplane.folding", "unfold", "folding.unfold", None),
    ("polyplane.ordering", "encode", "ordering.encode", None),
    ("polyplane.ordering", "decode", "ordering.decode", None),
]

# (module, class, method, span name, count name or None)
METHODS = [
    ("polyplane.poly", "PatternPoly", "__add__", "poly.add", "poly.add_calls"),
    ("polyplane.poly", "PatternPoly", "__sub__", "poly.add", "poly.add_calls"),
    ("polyplane.poly", "PatternPoly", "__mul__", "poly.mul", "poly.mul_calls"),
    ("polyplane.ring", "QuotientRing", "reduce", "ring.reduce", None),
    ("polyplane.ring", "QuotientRing", "inverse", "ring.inverse", None),
    ("polyplane.ring", "QuotientRing", "annihilator", "ring.annihilator", None),
    ("polyplane.ring", "QuotientRing", "order", "ring.order", "ring.order_steps"),
]


def _count(counts, key, args, result) -> None:
    if key == "series":  # eval_term(term, window)
        window = args[1]
        counts["series.window_cells"] += (window.m + 1) * (window.n + 1)
        counts["series.lit_cells"] += len(result)
    elif key in ("render.bytes_out", "sequences.bits_out"):
        counts[key] += len(result)
    elif key == "ring.order_steps":
        counts[key] += result  # the power loop runs about `order` steps
    else:
        counts[key] += 1


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, parent index, start ns, end ns]
        self.stack: list = []
        self.self_ns = defaultdict(int)
        self.counts = defaultdict(int)

    def wrap(self, fn, name: str, count: str | None):
        spans, stack, counts, clock = self.spans, self.stack, self.counts, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), 0])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = clock()
            if count is not None:
                _count(counts, count, args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [mod for name, mod in sys.modules.items() if name.split(".")[0] == "polyplane"]
        for modname, attr, name, count in FUNCTIONS:
            original = getattr(sys.modules[modname], attr)
            wrapper = self.wrap(original, name, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        for modname, clsname, attr, name, count in METHODS:
            cls = getattr(sys.modules[modname], clsname)
            setattr(cls, attr, self.wrap(vars(cls)[attr], name, count))

    def begin_op(self) -> None:
        self.spans.append(["op", -1, time.perf_counter_ns(), 0])
        self.stack.append(0)

    def end_op(self) -> None:
        self.stack.pop()
        spans = self.spans
        spans[0][3] = time.perf_counter_ns()
        child = [0] * len(spans)
        for name, parent, start, end in spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, _, start, end), covered in zip(spans, child):
            self.self_ns[name] += end - start - covered
        spans.clear()
