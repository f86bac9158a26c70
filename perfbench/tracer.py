"""Spans and counters recorded from outside the package.

The tracer replaces a function at the module attribute its callers look it
up through (``asi.sica.matmul`` is what ``siamese_attend`` calls, not
``asi.numeric.matmul``) with a wrapper that records one span per call:
name, start, end and the index of the enclosing span. Nothing in ``asi``
is edited; :meth:`Tracer.restore` puts every original attribute back.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

perf_counter = time.perf_counter


class Tracer:
    """In-memory span recorder; spans stay in memory until the caller writes them."""

    def __init__(self) -> None:
        # One (name, start, end, parent index or -1) tuple per traced call.
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, owner, attr: str, name: str, on_call=None) -> None:
        """Record a span named `name` around every call through `owner.attr`.

        `on_call(*args)` runs before the call, outside the span's clock, so
        counters that inspect arguments do not inflate the traced time.
        """
        original = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(*args)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def count_calls(self, owner, attr: str, name: str) -> None:
        """Count calls through `owner.attr` without a span (for hot constructors)."""
        original = getattr(owner, attr)
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, counted)

    def restore(self) -> None:
        """Put back every wrapped attribute, newest first, and verify it."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"could not restore {owner!r}.{attr}")

    def take_spans(self) -> list:
        """Return the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("spans are still open")
        spans = list(self.spans)
        self.spans.clear()
        return spans


def span_stats(spans: list) -> dict[str, dict[str, float]]:
    """Per span name: call count, total time and self time.

    Self time is a span's duration minus the durations of its direct
    children; children nest strictly inside their parent, so their sum is
    the part of the parent's interval they cover.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for index, (name, start, end, parent) in enumerate(spans):
        entry = stats[name]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_time[index]
    return stats
