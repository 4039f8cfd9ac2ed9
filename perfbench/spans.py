"""In-memory span recorder and the wrappers that attach it to chainlens.

The traced benchmark run records one span per call into the public functions
of each chainlens module.  Spans are wrapped around those functions from the
benchmark's own files (the program itself is not edited): every module
attribute that refers to a wrapped function is swapped for a recording
wrapper and put back afterwards.  Spans live in memory until the run ends.

A span's self time is its duration minus the part of its interval that its
child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Records nested spans of a single thread, except while ``off()``.

    ``overhead`` accumulates the time spent in the recording itself, outside
    the spans' intervals: what tracing adds to the traced code's time.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.enabled = True
        self.overhead = 0.0
        self._stack: list[int] = []

    @contextlib.contextmanager
    def off(self):
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def begin(self, name: str, attrs: dict) -> Span:
        span = Span(len(self.spans), self._stack[-1] if self._stack else None, name, 0.0, attrs=attrs)
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def end(self, span: Span) -> None:
        popped = self._stack.pop()
        if popped != span.id:
            raise RuntimeError(f"span {span.name} closed out of order")


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: s.duration - _covered(children[s.id]) for s in spans}


def ancestors(spans: list[Span], span: Span):
    """Yield the ancestors of ``span``, nearest first."""
    parent = span.parent
    while parent is not None:
        yield spans[parent]
        parent = spans[parent].parent


# A hook returns attributes to record on the span from the call's arguments
# (before) or from its arguments and result (after).
Before = Callable[[tuple, dict], dict]
After = Callable[[tuple, dict, object], dict]


def recording(tracer: Tracer, name: str, fn: Callable,
              before: Before | None = None, after: After | None = None) -> Callable:
    """``fn`` wrapped to record a span named ``name`` per call while ``tracer`` is on."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        entered = time.perf_counter()
        span = tracer.begin(name, before(args, kwargs) if before else {})
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            tracer.end(span)
        if after:
            span.attrs.update(after(args, kwargs, result))
        tracer.overhead += (span.start - entered) + (time.perf_counter() - span.end)
        return result

    return wrapper


class Instrumentation:
    """Swaps functions for recording wrappers wherever chainlens refers to them."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    @staticmethod
    def _modules():
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == "chainlens" or name.startswith("chainlens."))]

    def replace_function(self, original: Callable, wrapper: Callable) -> None:
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def replace_method(self, cls: type, attr: str, wrapper: Callable) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
