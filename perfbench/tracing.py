"""Span recording from outside the program.

The benchmark times layers by wrapping the public callables each layer
is entered through (the table lives in :mod:`layers`).  A wrapper opens
a span around the call; spans nest through a stack, so every span knows
its parent and a layer's *self* time is its duration minus the time its
child spans cover.  Spans are aggregated per name in memory (calls,
total and self seconds, items, bytes) and read out once the run ends.

Wrapping rebinds a name on a module or class for the duration of a
``with instrument(...)`` block and restores the original object after,
so nothing the program stores or pickles ever refers to a wrapper.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence


@dataclass
class SpanStats:
    """Aggregate of every closed span of one name."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    items: int = 0
    bytes: int = 0
    #: Values a hook samples after each call (e.g. RSS after a stage).
    samples: list[float] = field(default_factory=list)


class _Frame:
    __slots__ = ("child_s",)

    def __init__(self) -> None:
        self.child_s = 0.0


class Recorder:
    """Aggregates nested spans; one recorder per traced phase.

    ``op()`` opens the root span of one timed operation.  Spans closing
    directly under a root add to ``covered_s`` — the part of the
    operation's wall time some named layer accounts for.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.stats: dict[str, SpanStats] = {}
        self.ops = 0
        self.op_walls: list[float] = []
        self.covered_s: list[float] = []
        self._stack: list[_Frame] = []

    def _close(self, name: str, frame: _Frame, elapsed: float) -> SpanStats:
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.child_s += elapsed
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = SpanStats()
        stats.calls += 1
        stats.total_s += elapsed
        stats.self_s += elapsed - frame.child_s
        return stats

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time one span named ``name`` (nested under the open one)."""
        frame = _Frame()
        self._stack.append(frame)
        start = self.clock()
        try:
            yield
        finally:
            self._close(name, frame, self.clock() - start)

    @contextmanager
    def op(self) -> Iterator[None]:
        """Root span of one timed operation."""
        if self._stack:
            raise RuntimeError("an operation cannot nest inside another span")
        frame = _Frame()
        self._stack.append(frame)
        start = self.clock()
        try:
            yield
        finally:
            elapsed = self.clock() - start
            self._stack.pop()
            self.ops += 1
            self.op_walls.append(elapsed)
            self.covered_s.append(frame.child_s)

    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        items: Callable | None = None,
        nbytes: Callable | None = None,
        sample: Callable[[], float] | None = None,
    ) -> Callable:
        """``fn`` inside a span; ``items``/``nbytes`` map
        ``(args, kwargs, result)`` to counts added to the span."""
        clock = self.clock
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = _Frame()
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                stats = self._close(name, frame, clock() - start)
            if items is not None:
                stats.items += items(args, kwargs, result)
            if nbytes is not None:
                stats.bytes += nbytes(args, kwargs, result)
            if sample is not None:
                stats.samples.append(sample())
            return result

        return wrapper


@dataclass(frozen=True)
class Hook:
    """One callable to wrap: ``owner.attr`` is timed as span ``span``.

    ``owner`` is the module or class the caller looks the name up on —
    a function imported by name is wrapped in the importing module.
    """

    span: str
    owner: object
    attr: str
    items: Callable | None = None
    nbytes: Callable | None = None
    sample: Callable[[], float] | None = None


def _wrapped_attr(recorder: Recorder, hook: Hook, original: object) -> object:
    kwargs = dict(items=hook.items, nbytes=hook.nbytes, sample=hook.sample)
    if isinstance(original, classmethod):
        return classmethod(recorder.wrap(hook.span, original.__func__, **kwargs))
    if isinstance(original, staticmethod):
        return staticmethod(recorder.wrap(hook.span, original.__func__, **kwargs))
    return recorder.wrap(hook.span, original, **kwargs)


@contextmanager
def instrument(recorder: Recorder, hooks: Sequence[Hook]) -> Iterator[Recorder]:
    """Install ``hooks`` into ``recorder`` for the block, then restore."""
    saved: list[tuple[object, str, object]] = []
    try:
        for hook in hooks:
            # The raw class attribute keeps the descriptor kind
            # (classmethod/staticmethod); modules have no descriptors.
            original = (
                hook.owner.__dict__[hook.attr]
                if isinstance(hook.owner, type)
                else getattr(hook.owner, hook.attr)
            )
            saved.append((hook.owner, hook.attr, original))
            setattr(hook.owner, hook.attr, _wrapped_attr(recorder, hook, original))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
