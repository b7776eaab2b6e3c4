"""Spans around the simulator's layer boundaries, kept in memory.

A :class:`Tracer` records, per span name, the number of calls, the
inclusive time and the *self* time: a span's duration minus the part of
it that child spans cover.  Spans nest through one stack, so the self
times of every span opened under a root span, plus the root's own self
time, add up exactly to the root's duration.

:func:`installed` wraps methods of the program's classes *at class
level* for the duration of a ``with`` block and restores the original
class attributes afterwards.  It must be entered before the simulation
context is built: the context, the policies and the nodes bind methods
as callbacks at construction, so only a class-level wrapper in place by
then sees those calls.  Untraced runs install nothing.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterator


class Tracer:
    """Per-name call counts, inclusive times and self times."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        #: time covered by the children of each open span, innermost last
        self._children: list[float] = []

    def begin(self) -> float:
        """Open a span; returns its start time for :meth:`end`."""
        self._children.append(0.0)
        return self.clock()

    def end(self, name: str, start: float) -> None:
        """Close the innermost open span and charge it to ``name``."""
        duration = self.clock() - start
        covered = self._children.pop()
        self.calls[name] += 1
        self.inclusive[name] += duration
        self.self_time[name] += duration - covered
        if self._children:
            self._children[-1] += duration

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time the body of a ``with`` block as one span."""
        start = self.begin()
        try:
            yield
        finally:
            self.end(name, start)

    def wrap(self, name: str, fn: Callable,
             observe: Callable | None = None) -> Callable:
        """``fn`` timed as span ``name``.

        ``observe(result, *args)`` runs inside the span after each call,
        for counters that need the call's arguments or result.
        """
        def traced(*args, **kwargs):
            start = self.begin()
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(result, *args)
                return result
            finally:
                self.end(name, start)
        traced.__wrapped__ = fn
        return traced


@dataclass(frozen=True)
class Patch:
    """One class attribute to wrap in a span."""

    cls: type
    attr: str
    span: str
    observe: Callable | None = None


@contextlib.contextmanager
def installed(tracer: Tracer, patches: list[Patch]) -> Iterator[None]:
    """Wrap every patched method for the block; restore on exit.

    An attribute the class only inherits is wrapped on the class itself
    and deleted again afterwards, so the class dictionaries end up exactly
    as they were.
    """
    saved: list[tuple[type, str, object]] = []
    missing = object()
    try:
        for patch in patches:
            original = patch.cls.__dict__.get(patch.attr, missing)
            fn = getattr(patch.cls, patch.attr)
            saved.append((patch.cls, patch.attr, original))
            setattr(patch.cls, patch.attr,
                    tracer.wrap(patch.span, fn, patch.observe))
        yield
    finally:
        for cls, attr, original in reversed(saved):
            if original is missing:
                delattr(cls, attr)
            else:
                setattr(cls, attr, original)
