"""In-memory spans around calls into votephase's layers.

The benchmark patches module attributes of the installed package with
wrappers that record a span per call: name, start, end, parent span,
thread and the operation it belongs to. Only calls that go through the
patched attribute are seen, so each target names the module whose
global the caller looks up (``votephase.montecarlo.sample_matrix`` is
the sampler as the Monte Carlo layer calls it).

A target that no longer exists is recorded as missing and skipped, so
the layer metrics built on it are reported missing instead of crashing
the run.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional


@dataclass
class Span:
    sid: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    thread: int
    op: Optional[int]
    info: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while ``active``; wrappers are free-standing otherwise.

    One client drives one operation at a time. Spans opened on a worker
    thread take as parent the innermost span open on the thread that
    began the operation, so chunks run by a pool nest under the call
    that submitted them.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self.missing: list = []
        self.active = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list = []
        self._op: Optional[int] = None
        self._op_thread: Optional[int] = None
        self._op_stack: list = []

    def _stack(self) -> list:
        if threading.get_ident() == self._op_thread:
            return self._op_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list) -> Optional[int]:
        if stack:
            return stack[-1]
        return self._op_stack[-1] if self._op_stack else None

    def span(self, name: str, fn: Callable, *args, info: Callable = None, **kwargs):
        """Call fn(*args, **kwargs) inside a span; ``info(args, result)``
        adds detail after the clock has stopped."""
        if not self.active:
            return fn(*args, **kwargs)
        stack = self._stack()
        parent = self._parent(stack)
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        span = Span(sid, parent, name, start, end, threading.get_ident(), self._op)
        if info is not None:
            try:
                span.info = info(args, kwargs, result)
            except Exception:  # detail is best effort; the call itself succeeded
                span.info = None
        self.spans.append(span)
        return result

    def begin_op(self) -> int:
        self._op = next(self._ids)
        self._op_thread = threading.get_ident()
        self._op_stack = []
        return self._op

    def wrap(self, target: str, name: str, info: Callable = None) -> None:
        """Patch ``module.attr`` (given as a dotted path) with a span wrapper."""
        module_name, _, attr = target.rpartition(".")
        try:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
        except (ImportError, AttributeError):
            self.missing.append(target)
            return

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.span(name, original, *args, info=info, **kwargs)

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def children(self) -> dict:
        """Map from span id to the list of its direct child spans."""
        out: dict = {}
        for s in self.spans:
            out.setdefault(s.parent, []).append(s)
        return out
