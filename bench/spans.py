"""In-memory span recorder and call-site wrappers for the traced run.

A span is one call of a wrapped function: its name, the layer (module)
it belongs to, start and end on ``time.perf_counter``, and the index of
the span that was open when it started.  Spans are kept in a list and
summarized when the run ends.

Wrappers are installed on module attributes where the caller looks the
function up (``mpirecon.pnp.tikhonov_step`` wraps the calls made from
``zero_shot_pnp``), so the program itself is not edited.  A wrapper may
carry a ``count`` callback that turns the wrapped call's return value
into named counts, such as CG iterations.
"""

from __future__ import annotations

import dataclasses
import functools
import time


@dataclasses.dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int | None


@dataclasses.dataclass(frozen=True)
class Site:
    """One wrapper: ``module.attr`` is replaced by a span-recording proxy."""

    module: object
    attr: str
    name: str
    layer: str
    count: object = None  # callable(result) -> {counter name: number}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def reset(self):
        self.spans = []
        self.counts = {}
        self._stack = []

    def call(self, name, layer, fn, *args, count=None, **kwargs):
        """Run ``fn`` inside a span."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(name, layer, time.perf_counter(), 0.0, parent)
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if count is not None:
            for key, value in count(result).items():
                self.counts[key] = self.counts.get(key, 0) + value
        return result

    def install(self, sites):
        """Wrap every site whose attribute exists in the program."""
        for site in sites:
            original = getattr(site.module, site.attr, None)
            if original is None:
                continue

            @functools.wraps(original)
            def proxy(*args, _site=site, _fn=original, **kwargs):
                return self.call(_site.name, _site.layer, _fn, *args, count=_site.count, **kwargs)

            setattr(site.module, site.attr, proxy)
            self._installed.append((site.module, site.attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed = []


def absent_names(sites):
    """Span names none of whose sites exist in the program any more."""
    present = {site.name for site in sites if hasattr(site.module, site.attr)}
    return {site.name for site in sites} - present


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Per-span self time: the span's duration minus the part of its
    interval that its direct children cover."""
    children: dict[int, list] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        (span.end - span.start) - _covered(children.get(i, []), span.start, span.end)
        for i, span in enumerate(spans)
    ]


def summarize(spans):
    """Totals per span name (seconds, calls) and self time per layer.

    Nested calls of one name (a span inside a span of the same name)
    count once toward the name's seconds, so totals never exceed the
    wall time of the outermost call.
    """
    seconds: dict[str, float] = {}
    calls: dict[str, int] = {}
    layer_self: dict[str, float] = {}
    for i, (span, own) in enumerate(zip(spans, self_times(spans))):
        calls[span.name] = calls.get(span.name, 0) + 1
        layer_self[span.layer] = layer_self.get(span.layer, 0.0) + own
        if not _has_ancestor_named(spans, i, span.name):
            seconds[span.name] = seconds.get(span.name, 0.0) + (span.end - span.start)
    return seconds, calls, layer_self


def _has_ancestor_named(spans, index, name):
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False
