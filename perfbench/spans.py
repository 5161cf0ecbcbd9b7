"""Spans and counts recorded by the benchmark around its calls into
ndlogic's layers.  A span is named ``<layer>.<what>``; spans opened inside
another span are its children, and the operation's own span (``op``) is
the root that every span of one operation shares."""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Record a span; the yielded record's name (item 0) may be changed
        before the span ends."""
        rec = [name, perf_counter(), None, self._open[-1] if self._open else None]
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            self._open.pop()
            rec[2] = perf_counter()

    def count(self, name: str, n: int = 1):
        self.counts[name] += n

    def totals(self) -> dict[str, float]:
        """Summed duration per span name."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _ in self.spans:
            out[name] += end - start
        return out

    def self_times(self, root: str) -> dict[str, float]:
        """Per span name, duration minus the part of it that child spans
        cover, over the spans inside a ``root``-named span."""
        own = [end - start for _, start, end, _ in self.spans]
        inside = [False] * len(self.spans)
        for i, (name, start, end, parent) in enumerate(self.spans):
            if parent is not None:
                own[parent] -= end - start
                inside[i] = inside[parent] or self.spans[parent][0] == root
        out: dict[str, float] = defaultdict(float)
        for (name, *_), t, keep in zip(self.spans, own, inside):
            if keep:
                out[name] += t
        return out


class NoTracer:
    """Stands in for Tracer in untraced runs."""

    def __init__(self):
        self._null = nullcontext([None])

    def span(self, name: str):
        return self._null

    def count(self, name: str, n: int = 1):
        pass


@contextmanager
def wrap_calls(tr: Tracer, func, span_name: str, on_result):
    """While active, every ndlogic module's binding of ``func`` records a
    span and passes each result to ``on_result``."""

    def wrapper(*args, **kwargs):
        with tr.span(span_name):
            out = func(*args, **kwargs)
        on_result(out)
        return out

    patched = [m for name, m in list(sys.modules.items())
               if name.split(".")[0] == "ndlogic"
               and getattr(m, func.__name__, None) is func]
    for m in patched:
        setattr(m, func.__name__, wrapper)
    try:
        yield
    finally:
        for m in patched:
            setattr(m, func.__name__, func)
