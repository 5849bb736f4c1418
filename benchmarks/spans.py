"""In-memory span recorder: the one timing mechanism of the benchmark.

A span is one timed call: name, start, end, the span that was open when it
started (its parent), and optional work counts. Spans stay in memory and
are summarised when the run ends. A span's self time is its duration minus
the part of that interval its child spans cover.

``wrap`` installs a recording wrapper at the attribute a caller looks up
(a module global, a method or a classmethod) and returns a function that
puts the original back.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator


@dataclass
class Span:
    name: str
    start: float
    end: float = float("nan")
    parent: int = -1  # index into SpanRecorder.spans, -1 for a root
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **counts: float) -> Iterator[Span]:
        rec = Span(name=name, start=self.clock(), parent=self._open[-1] if self._open else -1, counts=counts)
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec.end = self.clock()
            self._open.pop()

    def self_times(self) -> list[float]:
        """Self time of every span, in the order of ``self.spans``."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent >= 0:
                children.setdefault(s.parent, []).append(s)
        out = []
        for i, s in enumerate(self.spans):
            covered = 0.0
            cursor = s.start
            for c in sorted(children.get(i, ()), key=lambda c: c.start):
                lo, hi = max(c.start, cursor), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out.append(s.duration - covered)
        return out


def wrap(
    recorder: SpanRecorder,
    owner: object,
    attr: str,
    name: str | Callable[..., str],
    count: Callable[..., dict[str, float]] | None = None,
) -> Callable[[], None]:
    """Record a span around every call of ``owner.attr``; returns the undo.

    ``name`` may be a function of the call's arguments. ``count(result,
    *args, **kwargs)`` returns the work counts stored on the span.
    """
    original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
    is_classmethod = isinstance(original, classmethod)
    func = original.__func__ if is_classmethod else original

    @functools.wraps(func)
    def recorded(*args, **kwargs):
        with recorder.span(name(*args, **kwargs) if callable(name) else name) as rec:
            result = func(*args, **kwargs)
        if count is not None:
            rec.counts.update(count(result, *args, **kwargs))
        return result

    setattr(owner, attr, classmethod(recorded) if is_classmethod else recorded)
    return lambda: setattr(owner, attr, original)
