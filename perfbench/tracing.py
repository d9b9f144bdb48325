"""Tracing from outside the program, for the traced benchmark run only.

``Tracer.install`` replaces public entry points of ``momsec`` with
wrappers that count work and record spans:

- ``ScalarField.jet``: every call is counted; time is taken only in the
  outermost call (a depth counter), so it is field evaluation time
  without double counting the recursion;
- ``ScalarField`` construction (a ``__new__`` hook): nodes built;
- the ``momsec.fields.eval_jet`` binding that expression fields call:
  expression evaluations;
- ``ExprField.parse``: expressions parsed while loading a model;
- ``load_model_bytes``, ``suites.run``, ``CheckReport.to_json`` and
  ``CheckReport.to_text``: one span per call.

Spans stay in memory, each with an id, its parent's id, the request it
belongs to, a name, start and end times and the counts accrued while
it was open, and are written out once, at the end.  There is no span
per jet call: a request makes hundreds of thousands, so they are
recorded as counts on the enclosing span instead.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Counts:
    jet_calls: int = 0
    eval_s: float = 0.0
    nodes_built: int = 0
    eval_jet_calls: int = 0
    exprs_parsed: int = 0


@dataclass
class Span:
    id: int
    parent: int | None
    request: str | None
    name: str
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.counts = Counts()
        self.depth = 0
        self.request = None
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        span = Span(len(self.spans), self._stack[-1] if self._stack else None, self.request, name)
        self.spans.append(span)
        self._stack.append(span.id)
        before = dict(vars(self.counts))
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            span.counts = {k: v - before[k] for k, v in vars(self.counts).items()}

    def children(self, span: Span) -> dict[str, Span]:
        """The direct children of a closed span, by name (the last of each name)."""
        return {s.name: s for s in self.spans[span.id + 1:] if s.parent == span.id}

    def _spanned(self, name: str, fn):
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def install(self):
        from momsec import fields, modelfile, reporting, suites

        tracer = self
        jet = fields.ScalarField.jet

        def traced_jet(node, point):
            tracer.counts.jet_calls += 1
            if tracer.depth:
                tracer.depth += 1
                try:
                    return jet(node, point)
                finally:
                    tracer.depth -= 1
            tracer.depth = 1
            start = time.perf_counter()
            try:
                return jet(node, point)
            finally:
                tracer.counts.eval_s += time.perf_counter() - start
                tracer.depth = 0

        def counted_new(cls, *args, **kwargs):
            tracer.counts.nodes_built += 1
            return object.__new__(cls)

        eval_jet = fields.eval_jet

        def counted_eval_jet(expr, point):
            tracer.counts.eval_jet_calls += 1
            return eval_jet(expr, point)

        parse = fields.ExprField.parse

        def counted_parse(source, chart):
            tracer.counts.exprs_parsed += 1
            return parse(source, chart)

        fields.ScalarField.jet = traced_jet
        fields.ScalarField.__new__ = staticmethod(counted_new)
        fields.eval_jet = counted_eval_jet
        fields.ExprField.parse = staticmethod(counted_parse)
        modelfile.load_model_bytes = self._spanned("modelfile.load_model_bytes", modelfile.load_model_bytes)
        suites.run = self._spanned("suites.run", suites.run)
        reporting.CheckReport.to_json = self._spanned("reporting.to_json", reporting.CheckReport.to_json)
        reporting.CheckReport.to_text = self._spanned("reporting.to_text", reporting.CheckReport.to_text)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)
