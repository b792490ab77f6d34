"""A small in-memory span recorder for the benchmark's traced run.

Spans are recorded from the benchmark's own files only: either around a
call the benchmark makes itself (:meth:`Tracer.span`), or by wrapping a
public function or method that the runtime calls (:meth:`Tracer.wrap`),
so ``RuleProcessor.run()`` is measured through the calls it really makes
rather than through a copy of its loop. Nothing under ``src/`` changes.

Every span records its name, the benchmark phase it ran in, its start
and end, the name of the span that caused it (its parent on the same
thread) and its *self* time: its duration minus the part its child spans
cover. Self times of the spans under one root therefore add up to the
root's duration minus the root's own self time.

An *opaque* span hides everything below it: wrapped functions called
under it run unrecorded, so its self time is its whole duration. The
benchmark uses this for the oracles (declarative fixpoint, serial
replay, WAL recovery), whose internals reuse the runtime's classes.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    phase: str
    parent: str | None
    start: float
    end: float
    self_seconds: float
    root: bool
    #: whether it ran under a root span (on its thread)
    rooted: bool
    #: counters attached by the span's hook (e.g. Σ|triggered|² for Choose)
    counts: dict | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class _Frame:
    __slots__ = ("name", "child_seconds", "opaque", "rooted")

    def __init__(self, name: str, opaque: bool, rooted: bool) -> None:
        self.name = name
        self.child_seconds = 0.0
        self.opaque = opaque
        self.rooted = rooted


@dataclass
class _Patch:
    owner: object
    attr: str
    original: object


class Tracer:
    """Records spans per thread; aggregates them once the run ends."""

    def __init__(self) -> None:
        self.phase = "setup"
        self.spans: list[Span] = []
        self._local = threading.local()
        self._patches: list[_Patch] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _hidden(self, stack: list[_Frame]) -> bool:
        return bool(stack) and stack[-1].opaque

    def _frame(self, stack, name: str, opaque: bool, root: bool) -> _Frame:
        rooted = root or bool(stack) and stack[-1].rooted
        frame = _Frame(name, opaque, rooted)
        stack.append(frame)
        return frame

    def _record(self, stack, frame, start, end, root, counts) -> None:
        stack.pop()
        duration = end - start
        if stack:
            stack[-1].child_seconds += duration
        self.spans.append(
            Span(
                name=frame.name,
                phase=self.phase,
                parent=stack[-1].name if stack else None,
                start=start,
                end=end,
                self_seconds=duration - frame.child_seconds,
                root=root,
                rooted=frame.rooted,
                counts=counts,
            )
        )

    @contextmanager
    def span(self, name: str, *, root: bool = False, opaque: bool = False):
        """Time a call the benchmark makes itself."""
        stack = self._stack()
        if self._hidden(stack):
            yield
            return
        frame = self._frame(stack, name, opaque, root)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._record(stack, frame, start, time.perf_counter(), root, None)

    def wrap(
        self,
        owner,
        attr: str,
        name,
        *,
        count=None,
        before=None,
        opaque=False,
        root=False,
    ):
        """Replace ``owner.attr`` with a recording wrapper until
        :meth:`uninstall`.

        *name* is a span name, or a function of the parent span's name
        (so one call site can be attributed by its caller). *count*,
        if given, is called as ``count(args, result, token)`` and
        returns a dict of counters to attach to the span; *token* is
        what ``before(args)`` returned when the call started (None
        without *before*).
        """
        descriptor = vars(owner)[attr]
        is_classmethod = isinstance(descriptor, classmethod)
        function = descriptor.__func__ if is_classmethod else descriptor
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if tracer._hidden(stack):
                return function(*args, **kwargs)
            if callable(name):
                span_name = name(stack[-1].name if stack else None)
            else:
                span_name = name
            token = before(args) if before is not None else None
            frame = tracer._frame(stack, span_name, opaque, root)
            start = time.perf_counter()
            result = None
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                counts = (
                    count(args, result, token) if count is not None else None
                )
                tracer._record(stack, frame, start, end, root, counts)

        self._patches.append(_Patch(owner, attr, descriptor))
        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)

    def uninstall(self) -> None:
        """Restore every wrapped attribute (in reverse order)."""
        while self._patches:
            patch = self._patches.pop()
            setattr(patch.owner, patch.attr, patch.original)

    # -- aggregation -----------------------------------------------------

    def totals(self, phase: str) -> "PhaseTotals":
        totals = PhaseTotals()
        for span in self.spans:
            if span.phase != phase:
                continue
            entry = totals.layers.setdefault(span.name, LayerTotals())
            entry.calls += 1
            entry.self_seconds += span.self_seconds
            if span.rooted:
                entry.rooted_self_seconds += span.self_seconds
            entry.seconds += span.seconds
            if span.counts:
                for key, value in span.counts.items():
                    entry.counts[key] = entry.counts.get(key, 0) + value
            if span.root:
                totals.root_seconds += span.seconds
                totals.root_self_seconds += span.self_seconds
                totals.roots += 1
        return totals


@dataclass
class LayerTotals:
    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0
    #: the part of ``self_seconds`` spent under a root span
    rooted_self_seconds: float = 0.0
    counts: dict = field(default_factory=dict)


@dataclass
class PhaseTotals:
    layers: dict[str, LayerTotals] = field(default_factory=dict)
    roots: int = 0
    root_seconds: float = 0.0
    root_self_seconds: float = 0.0

    def layer(self, name: str) -> LayerTotals:
        return self.layers.get(name, LayerTotals())


class NullTracer:
    """The untraced run's stand-in: spans cost one no-op context."""

    phase = "setup"

    @contextmanager
    def span(self, name: str, *, root: bool = False, opaque: bool = False):
        yield
