"""Span tracing of the library's public functions, from outside the library.

install() rebinds the traced functions in every loaded ``polyaut`` module
and the ``Polynomial`` ring operations to wrappers that record a span per
call while a case runs; ``Fraction.__new__`` is swapped for a counting one
only while a case runs, so the calibration slices between cases are not
slowed.  It is only
called in a traced run; an untraced run never imports this module.

A span's self time is its duration minus the durations of its direct child
spans.  A name's inclusive time counts only outermost spans of that name, so
recursion is not counted twice.  Spans (id, parent id, name, start, end,
case) are kept in memory up to a cap and written out at the end.
"""

from __future__ import annotations

import fractions
import json
import sys
import time
from collections import Counter

import polyaut.polycore as polycore

# Span name -> (module, attribute) of the public function it wraps.
FUNCTIONS = {
    "polycore.compose": ("polyaut.polycore", "compose"),
    "polycore.jacobian": ("polyaut.polycore", "jacobian"),
    "polycore.parse": ("polyaut.polycore", "parse_poly"),
    "polycore.format": ("polyaut.polycore", "format_poly"),
    "autmap.expand": ("polyaut.autmap", "expand"),
    "jvdk.decompose2": ("polyaut.jvdk", "decompose2"),
    "jvdk.reduce_step": ("polyaut.jvdk", "reduce_step"),
    "groebner.buchberger": ("polyaut.groebner", "buchberger"),
    "groebner.kernel_ideal": ("polyaut.groebner", "kernel_ideal"),
    "groebner.normal_form": ("polyaut.groebner", "normal_form"),
    "groebner.oracle": ("polyaut.groebner", "graded_kernel_oracle"),
    "groebner.span_contains": ("polyaut.groebner", "span_contains"),
    "relations.relation_report": ("polyaut.relations", "relation_report"),
    "derivation.lnd_witness": ("polyaut.derivation", "lnd_witness"),
    "derivation.delta_derivation": ("polyaut.derivation", "delta_derivation"),
    "derivation.nilpotence": ("polyaut.derivation", "is_locally_nilpotent"),
    "classify3.classify": ("polyaut.classify3", "classify"),
    "classify3.normalize": ("polyaut.classify3", "normalize"),
    "classify3.canonical_lnd": ("polyaut.classify3", "canonical_lnd"),
    "cli.main": ("polyaut.cli", "main"),
}
# Span name -> Polynomial methods it wraps (a - b runs through a + (-b)).
METHODS = {
    "polycore.mul": ("__mul__", "__rmul__"),
    "polycore.add": ("__add__", "__radd__"),
}
SPANS = tuple(METHODS) + tuple(FUNCTIONS)
# Spans that never have children: their inclusive time is their self time.
LEAVES = tuple(METHODS)
# Counts of work done, besides the call count of every span.
COUNTS = ("polycore.mul_terms_out", "polycore.mul_term_pairs", "polycore.fraction_new",
          "groebner.basis_size", "groebner.oracle_elements")


def _mul_counts(tracer, args, result):
    a, b = args
    tracer.counts["polycore.mul_terms_out"] += len(result.terms)
    other = len(b.terms) if isinstance(b, polycore.Polynomial) else 1
    tracer.counts["polycore.mul_term_pairs"] += len(a.terms) * other


def _size_count(key):
    def count(tracer, args, result):
        tracer.counts[key] += len(result)
    return count


POST = {
    "polycore.mul": _mul_counts,
    "groebner.buchberger": _size_count("groebner.basis_size"),
    "groebner.oracle": _size_count("groebner.oracle_elements"),
}


class Tracer:
    def __init__(self, max_spans: int):
        self.active = False
        self.recording = False
        self.case = -1
        self.max_spans = max_spans
        self.spans = []
        self.dropped = 0
        self.next_id = 0
        self.stack = []  # open spans: [id, seconds of direct children]
        self.depth = Counter()
        self.case_s = Counter()  # "<span>_s" and "<span>_incl_s" of the open case
        self.calls = Counter()
        self.counts = Counter()
        self.origin = time.perf_counter()

    def wrap(self, name, fn):
        tracer = self
        clock = time.perf_counter
        post = POST.get(name)
        self_key, incl_key = f"{name}_s", f"{name}_incl_s"

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            span_id = tracer.next_id
            tracer.next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            tracer.depth[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                tracer.case_s[self_key] += duration - frame[1]
                tracer.calls[name] += 1
                tracer.depth[name] -= 1
                if not tracer.depth[name]:
                    tracer.case_s[incl_key] += duration
                if stack:
                    stack[-1][1] += duration
                if tracer.recording:
                    tracer._record(span_id, parent, name, start, end)
            if post is not None:
                post(tracer, args, result)
            return result

        return traced

    def start_case(self, idx):
        self.case = idx
        self.case_s = Counter()
        self.active = True
        fractions.Fraction.__new__ = self._counted_new

    def end_case(self) -> Counter:
        """Stop tracing; the self and inclusive seconds of the case."""
        fractions.Fraction.__new__ = self._plain_new
        self.active = False
        return self.case_s

    def _record(self, span_id, parent, name, start, end):
        if len(self.spans) < self.max_spans:
            self.spans.append((span_id, parent, name, start - self.origin,
                               end - self.origin, self.case))
        else:
            self.dropped += 1

    def install(self):
        """Rebind every traced function in every loaded polyaut module."""
        modules = [m for k, m in sys.modules.items()
                   if (k == "polyaut" or k.startswith("polyaut.")) and m is not None]
        for name, (module, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[module], attr)
            wrapper = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        for name, attrs in METHODS.items():
            original = getattr(polycore.Polynomial, attrs[0])
            wrapper = self.wrap(name, original)
            for attr in attrs:
                setattr(polycore.Polynomial, attr, wrapper)
        self._plain_new = fractions.Fraction.__dict__["__new__"]
        new = fractions.Fraction.__new__
        tracer = self

        def counted_new(cls, *args, **kwargs):
            tracer.counts["polycore.fraction_new"] += 1
            return new(cls, *args, **kwargs)

        self._counted_new = staticmethod(counted_new)

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["id", "parent", "name", "start_s", "end_s", "case"],
                                 "kept": len(self.spans), "dropped": self.dropped}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
