"""In-memory span recorder and the wrappers that feed it.

A *span* is one call of a wrapped function: its name, start, end, the
span that was open when it started (its parent) and the op it belongs
to.  Every wrapped call opens a frame, so nesting is exact; hot leaf
functions (the ODE right-hand side, ``metric_at``) are wrapped in
*counted* mode, which keeps their totals but stores no individual span,
so a traced run over millions of calls stays small in memory.

A function's self time is its duration minus the time of the wrapped
calls directly beneath it.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import wraps
from typing import Callable


@dataclass
class Totals:
    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0


@dataclass
class Recorder:
    """Spans and per-name totals, kept in memory until :meth:`dump`."""

    store_spans: bool = True
    clock: Callable[[], float] = time.perf_counter  # a test may pass a fake
    spans: list = field(default_factory=list)
    totals: dict = field(default_factory=dict)
    op_id: int = -1
    _stack: list = field(default_factory=list)  # open frames: [span index, child seconds]

    def _open(self, keep: bool) -> list:
        """Push a frame ``[span index or None, child seconds]``.  A kept
        span reserves its slot now, so that children can name it as parent."""
        frame = [None, 0.0]
        if keep and self.store_spans:
            frame[0] = len(self.spans)
            self.spans.append(None)
        self._stack.append(frame)
        return frame

    def wrap(self, name: str, fn, counted: bool = False):
        """A wrapper around ``fn`` that records each call under ``name``."""

        @wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._open(not counted)
            start = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, start, self.clock(), frame)

        return wrapper

    def _close(self, name, start, end, frame) -> None:
        self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][1] += duration
        tot = self.totals.get(name)
        if tot is None:
            tot = self.totals[name] = Totals()
        tot.calls += 1
        tot.seconds += duration
        tot.self_seconds += duration - frame[1]
        if frame[0] is not None:
            parent = self._parent_index()
            self.spans[frame[0]] = (name, start, end, parent, self.op_id)

    def _parent_index(self):
        for frame in reversed(self._stack):
            if frame[0] is not None:
                return frame[0]
        return None

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span."""
        frame = self._open(True)
        start = self.clock()
        try:
            yield
        finally:
            self._close(name, start, self.clock(), frame)

    def dump(self, path) -> None:
        """Write spans and totals as JSON: one object, spans as rows."""
        payload = {
            "span_fields": ["name", "start", "end", "parent", "op"],
            "spans": self.spans,
            "totals": {
                name: {"calls": t.calls, "s": t.seconds, "self_s": t.self_seconds}
                for name, t in sorted(self.totals.items())
            },
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


@contextmanager
def patched(replacements):
    """Install wrappers and restore the originals on exit, even on error.

    Each replacement is ``(namespace, attribute, make)``: ``namespace.attribute``
    becomes ``make(original)``.  The namespace is the module (or class) that
    makes the call, so only calls made from there go through the wrapper.
    Later replacements of the same attribute wrap earlier ones.
    """
    saved = []
    try:
        for namespace, attr, make in replacements:
            original = getattr(namespace, attr)
            saved.append((namespace, attr, original))
            setattr(namespace, attr, make(original))
        yield
    finally:
        for namespace, attr, original in reversed(saved):
            setattr(namespace, attr, original)
