"""In-memory span tracer that wraps functions at module attributes.

polydarcy's modules call each other through module attributes
(``study.solve_case`` calls ``ncvem.assemble``, which calls the module global
``build_element``), so replacing an attribute with a timing wrapper reroutes
every call without touching the package.  Each wrapped call records a span:
its name, start, end, the span that was open when it began (its parent) and
the operation it belongs to.  Spans stay in memory until the caller writes
them out; leaving ``recording`` puts every original function back.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 at the root
    op: int


@dataclass
class LayerStat:
    """All spans of one name within one operation."""

    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: list = field(default_factory=list)


class Tracer:
    """Wraps (module, attribute, span name) targets while recording."""

    def __init__(self, targets):
        self.targets = list(targets)
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(Span(name, time.perf_counter(), 0.0, parent, self._op))
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index].end = time.perf_counter()

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def recording(self, op: int):
        """Install the wrappers for one operation and restore on exit."""
        saved = []
        self._op = op
        try:
            for module, attr, name in self.targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
            self._stack.clear()

    def summary(self, op: int) -> dict:
        """Count, total time and self time per span name within `op`.

        Self time is a span's duration minus the durations of its direct
        children, i.e. the part of its interval no wrapped callee covers.
        """
        child_s = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_s[span.parent] += span.end - span.start
        stats: dict[str, LayerStat] = {}
        for i, span in enumerate(self.spans):
            if span.op != op:
                continue
            stat = stats.setdefault(span.name, LayerStat())
            duration = span.end - span.start
            stat.count += 1
            stat.total_s += duration
            stat.self_s += duration - child_s[i]
            stat.durations.append(duration)
        return stats

    def dump(self) -> list:
        return [asdict(span) for span in self.spans]
