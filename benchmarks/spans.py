"""Outside-in tracing: spans recorded by wrapping the names each module looks up.

A wrapper replaces a module (or class) attribute for the duration of a pass
and restores it afterwards, so the program itself is untouched. Spans are
kept in memory, one parent stack per thread; a span opened on a thread with
an empty stack takes the tracer's current root as its parent, which is how
fleet jobs on worker threads hang under the fleet span.

A wrapped name that no longer exists is skipped and listed in ``absent``;
the layers it fed are then reported as absent instead of failing the run.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from typing import Any, Callable, Iterator


class Span:
    __slots__ = ("name", "t0", "t1", "parent", "info")

    def __init__(self, name: str, t0: float, parent: "Span | None"):
        self.name = name
        self.t0 = t0
        self.t1 = t0
        self.parent = parent
        self.info: Any = None

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


class Patcher:
    """Replaces attributes and puts the originals back, newest first."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def patch(self, owner: object, attr: str, make: Callable[[Callable], Callable],
              label: str) -> bool:
        original = getattr(owner, attr, None)
        if not callable(original):
            self.absent.append(label)
            return False
        setattr(owner, attr, functools.wraps(original)(make(original)))
        self._saved.append((owner, attr, original))
        return True

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer(Patcher):
    def __init__(self):
        super().__init__()
        self.spans: list[Span] = []
        self.root: Span | None = None
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, time.perf_counter(), stack[-1] if stack else self.root)
        self.spans.append(span)  # list.append is atomic under the GIL
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.t1 = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str, *, root: bool = False) -> Iterator[Span]:
        """A span around a block; with ``root``, spans that other threads open
        while the block runs hang under this one."""
        span = self.open(name)
        outer = self.root
        if root:
            self.root = span
        try:
            yield span
        finally:
            self.root = outer
            self.close(span)

    def wrap(self, owner: object, attr: str, name: str,
             info: Callable[[tuple, dict, Any], Any] | None = None) -> bool:
        """Record a ``name`` span around every call of ``owner.attr``;
        ``info(args, kwargs, result)`` runs after the span closes."""
        tracer = self

        def make(original):
            def wrapper(*args, **kwargs):
                span = tracer.open(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer.close(span)
                if info is not None:
                    span.info = info(args, kwargs, result)
                return result
            return wrapper

        owner_name = getattr(owner, "__name__", type(owner).__name__)
        return self.patch(owner, attr, make, f"{owner_name}.{attr}")

    def to_records(self) -> list[dict]:
        """Spans as plain dicts (parent by index) for writing out."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [{"name": s.name, "t0": s.t0, "t1": s.t1,
                 "parent": index.get(id(s.parent)) if s.parent is not None else None}
                for s in self.spans]


class NullTracer:
    """Stands in for a tracer in untraced passes: records nothing."""

    def span(self, name: str, *, root: bool = False) -> contextlib.nullcontext:
        return contextlib.nullcontext()


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the union of its children's intervals, by id(span).

    Children of one span can overlap when they ran on different threads, so
    the covered part is an interval union, not a sum."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append((s.t0, s.t1))
    out = {}
    for s in spans:
        covered = 0.0
        end = s.t0
        for t0, t1 in sorted(children.get(id(s), ())):
            t0 = max(t0, end)
            if t1 > t0:
                covered += t1 - t0
                end = t1
        out[id(s)] = s.duration - covered
    return out
