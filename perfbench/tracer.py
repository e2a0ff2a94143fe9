"""Spans and counters recorded from outside the program under test.

A `Recorder` replaces a module attribute with a wrapper around the original
function, at the name its callers look up (for example
`rangesr.bench.integrate_cube`), so the program carries no instrumentation.
The wrapper hands the call through unchanged: same arguments, same result
object, same exception.

Timed recorders keep one span per call (name, parent, start, end); the
program is single-threaded, so spans nest through a stack. Untimed recorders
only run the hooks, which the benchmark uses to capture outputs for its
correctness checks. The recorder also times its own bookkeeping
(`overhead_s`), which is the tracing overhead inside the wrappers.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager

_clock = time.perf_counter


class Recorder:
    def __init__(self, timed: bool):
        self.timed = timed
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self.overhead_s = 0.0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def add(self, key: str, value: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": 0.0,
            "end": 0.0,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    @contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark's own code (a timed call)."""
        span = self._open(name) if self.timed else None
        start = _clock()
        try:
            yield
        finally:
            if span is not None:
                span["start"], span["end"] = start, _clock()
                self._stack.pop()

    def wrap(self, fn, span=None, on_return=None, on_raise=None):
        """Wrapper that records a span named `span` (when timed) and runs the
        hooks: on_return(args, kwargs, result), on_raise(args, kwargs, exc)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_in = _clock()
            record = self._open(span) if span and self.timed else None
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = _clock()
                if on_raise is not None and isinstance(exc, Exception):
                    on_raise(args, kwargs, exc)
                raise
            else:
                end = _clock()
                if on_return is not None:
                    on_return(args, kwargs, result)
                return result
            finally:
                if record is not None:
                    record["start"], record["end"] = start, end
                    self._stack.pop()
                self.overhead_s += (start - t_in) + (_clock() - end)

        return wrapper

    def patch(self, module, attr: str, **hooks) -> None:
        original = getattr(module, attr)
        setattr(module, attr, self.wrap(original, **hooks))
        self._patches.append((module, attr, original))

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, busy time (inclusive) and self time.

        Self time is a span's duration minus the durations of its children;
        children of a single-threaded call never overlap.
        """
        child_s = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_s[s["parent"]] += s["end"] - s["start"]
        out: dict[str, dict] = {}
        for s in self.spans:
            row = out.setdefault(s["name"], {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            dur = s["end"] - s["start"]
            row["calls"] += 1
            row["busy_s"] += dur
            row["self_s"] += dur - child_s[s["id"]]
        return out

    def write(self, path, extra: dict | None = None) -> None:
        doc = {
            "spans": self.spans,
            "summary": self.summary(),
            "counts": self.counts,
            "overhead_s": self.overhead_s,
        }
        doc.update(extra or {})
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
