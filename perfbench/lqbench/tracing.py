"""In-memory span recorder for the traced benchmark run.

The tracer times calls into loraq's public functions from outside the
package: it replaces a function at the module attribute where its callers
look it up (``loraq.pipeline.optimize_factors`` is what ``assemble_layer``
calls, ``loraq.absorber.fake_quant`` is what the absorption loop calls) and
restores every attribute when it is uninstalled.  Calls are single-threaded
(``LORAQ_THREADS`` is unset), so one stack gives each span its parent.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    """One timed call: its layer-qualified name, interval and parent."""

    id: int
    name: str
    parent: int | None
    root: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around wrapped module attributes until uninstalled."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    def open(self, name: str, attrs: dict | None = None) -> Span:
        parent = self._stack[-1] if self._stack else None
        span_id = len(self.spans)
        span = Span(
            id=span_id,
            name=name,
            parent=None if parent is None else parent.id,
            root=span_id if parent is None else parent.root,
            start=self.clock(),
            attrs=attrs or {},
        )
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def wrap(self, module, attr: str, name, describe=None, on_result=None) -> None:
        """Replace ``module.attr`` with a version that records a span.

        ``name`` is a string or a function of the call's arguments;
        ``describe`` maps the arguments and ``on_result`` the return value
        to span attributes.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span_name = name(*args, **kwargs) if callable(name) else name
            attrs = describe(*args, **kwargs) if describe is not None else None
            span = self.open(span_name, attrs)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(span)
            if on_result is not None:
                span.attrs.update(on_result(result))
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    return {
        span.id: span.duration - _covered(span, children[span.id]) for span in spans
    }


def _covered(span: Span, kids: list[Span]) -> float:
    """Length of the union of the children's intervals, clipped to the span."""
    total = 0.0
    reach = span.start
    for kid in sorted(kids, key=lambda s: s.start):
        lo = max(kid.start, reach)
        hi = min(kid.end, span.end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def descendants(spans: list[Span], ancestor: Span) -> list[Span]:
    """Spans below ``ancestor`` in the call tree, in recording order."""
    below = {ancestor.id}
    found = []
    for span in spans[ancestor.id + 1:]:
        if span.parent in below:
            below.add(span.id)
            found.append(span)
    return found
