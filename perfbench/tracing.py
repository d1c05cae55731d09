"""Spans around the package's public functions, recorded from outside.

`Tracer.patched()` replaces each traced function with a timing wrapper in
every module that looks it up at call time (a caller's module global, not
just the function's home module), and puts the originals back on exit.
Spans are kept in memory as (name, start, end, parent); self time is a
span's duration minus the durations of its direct children, which in
single-threaded code never overlap, so the self times of a span's subtree
add up to the span's own duration.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from dataclasses import dataclass

# (module, attribute looked up by callers, span name)
TRACE_POINTS: tuple[tuple[str, str, str], ...] = (
    ("bistddp.ingest", "parse_foursquare", "ingest.parse"),
    ("bistddp.ingest", "prepare", "ingest.prepare"),
    ("bistddp.ingest", "filter_min_activity", "ingest.filter"),
    ("bistddp.ingest", "build_samples", "ingest.build_samples"),
    ("bistddp.ingest", "write_corpus", "ingest.write_corpus"),
    ("bistddp.ingest", "load_corpus", "ingest.load_corpus"),
    ("bistddp.geodata", "spatial_vector", "geodata.spatial_vector"),
    ("bistddp.model", "spatial_vector", "geodata.spatial_vector"),
    ("bistddp.model", "stable_softmax", "numerics.softmax"),
    ("bistddp.model", "forward", "model.forward"),
    ("bistddp.model", "predict_topk", "model.predict_topk"),
    ("bistddp.train", "forward", "model.forward"),
    ("bistddp.train", "cross_entropy", "model.cross_entropy"),
    ("bistddp.train", "backward", "train.backward"),
    ("bistddp.train", "adam_step", "train.adam_step"),
    ("bistddp.train", "evaluate", "train.val_eval"),
    ("bistddp.train", "fit", "train.fit"),
    ("bistddp.evaluation", "evaluate", "evaluation.evaluate"),
    ("bistddp.baselines", "fit_counts", "baselines.fit_counts"),
    ("bistddp.baselines", "rank_forward", "baselines.rank_forward"),
    ("bistddp.baselines", "rank_backward", "baselines.rank_backward"),
    ("bistddp.baselines", "rank_top1", "baselines.rank_top1"),
    ("bistddp.baselines", "rank_top2", "baselines.rank_top2"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(Span(name, clock(), 0.0, stack[-1] if stack else -1))
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx].end = clock()

        return traced

    @contextlib.contextmanager
    def patched(self, points=TRACE_POINTS):
        """Install the wrappers; the originals are restored however the block ends."""
        saved = []
        try:
            for module_name, attr, name in points:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def take(self) -> list[Span]:
        """Hand over the recorded spans and start a fresh list."""
        if self._stack:
            raise RuntimeError("take() called inside an open span")
        out = list(self.spans)
        self.spans.clear()
        return out


def self_times(spans: list[Span]) -> list[float]:
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


@dataclass
class SpanTotals:
    """Per-name totals over a list of spans."""

    calls: dict[str, int]
    self_s: dict[str, float]
    total_s: dict[str, float]


def totals(*span_lists: list[Span]) -> SpanTotals:
    """Totals over one or more span lists, each with its own parent indices."""
    calls: dict[str, int] = {}
    own: dict[str, float] = {}
    incl: dict[str, float] = {}
    for spans in span_lists:
        for s, st in zip(spans, self_times(spans)):
            calls[s.name] = calls.get(s.name, 0) + 1
            own[s.name] = own.get(s.name, 0.0) + st
            incl[s.name] = incl.get(s.name, 0.0) + (s.end - s.start)
    return SpanTotals(calls, own, incl)
