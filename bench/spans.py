"""In-memory spans around relqlab functions, and per-span self time.

A traced pass replaces public functions on their modules (for example
``relqlab.collapse.run_ensemble``) with wrappers that record one span per
call: name, start, end and the span that was open when the call began.
The CLI reaches these functions through module attributes, so the wrappers
see every call it makes; ``traced`` puts the originals back on exit, even
when the pass raises.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    parent: int | None  # index of the enclosing span in Tracer.spans
    start_ns: int
    end_ns: int = -1


class Tracer:
    """Records spans and work counters for one traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._open: list[int] = []

    def open(self, name) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, parent, time.perf_counter_ns()))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def close(self, index):
        self.spans[index].end_ns = time.perf_counter_ns()
        if self._open.pop() != index:
            raise RuntimeError(f"span {self.spans[index].name!r} closed out of order")

    @contextlib.contextmanager
    def span(self, name):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, name, fn, counter=None):
        """fn inside a span named name; counter(bound_arguments, result)
        returns {counter_name: increment} for the call."""
        signature = inspect.signature(fn) if counter is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, n in counter(bound.arguments, result).items():
                    self.counts[key] = self.counts.get(key, 0) + int(n)
            return result

        return wrapper


@contextlib.contextmanager
def traced(tracer: Tracer, targets):
    """Wrap each (module, attribute, counter) target for the duration of the
    block; the span is named '<last module name component>.<attribute>'."""
    saved = []
    try:
        for module, attr, counter in targets:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
            setattr(module, attr, tracer.wrap(name, original, counter))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _covered_ns(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times_ns(spans):
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start_ns, span.end_ns))
    return [
        (span.end_ns - span.start_ns)
        - _covered_ns(children.get(i, ()), span.start_ns, span.end_ns)
        for i, span in enumerate(spans)
    ]


def totals_by_name(spans):
    """{name: (calls, total self seconds)}."""
    out: dict[str, tuple] = {}
    for span, self_ns in zip(spans, self_times_ns(spans)):
        calls, self_s = out.get(span.name, (0, 0.0))
        out[span.name] = (calls + 1, self_s + self_ns * 1e-9)
    return out
