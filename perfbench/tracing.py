"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files: `Tracer.wrap` replaces a
public function at the module attribute its callers look it up through (for
example `spartan.memory.forward_batch`, which `backbone._plugin_forward`
reaches as `memory_mod.forward_batch`), and `Tracer.restore` puts the
originals back. The program itself is not changed.

Every call is one closed-loop caller in one thread, so spans nest strictly:
a span's children cover disjoint parts of its interval, and its self time is
its duration minus theirs.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass


@dataclass
class Span:
    sid: int
    name: str
    parent: int          # sid of the enclosing span, -1 at the top
    start: float
    end: float = 0.0
    attrs: dict | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches: list = []

    def wrap(self, owner, attr: str, name: str, describe=None) -> None:
        """Record a span around every call of `owner.attr` until `restore`.

        `describe(args, kwargs, result)`, when given, returns a dict of counts
        stored on the span; it runs after the span has ended.
        """
        orig = getattr(owner, attr)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            span = Span(len(spans), name, stack[-1].sid if stack else -1, clock())
            spans.append(span)
            stack.append(span)
            try:
                result = orig(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if describe is not None:
                span.attrs = describe(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, orig))

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def named(self, *names: str) -> list[Span]:
        return [s for s in self.spans if s.name in names]

    def self_seconds(self) -> list[float]:
        """Self time of every span, indexed by sid."""
        own = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.seconds
        return own

    def summary(self) -> dict:
        """Per span name: call count, total and self milliseconds."""
        own = self.self_seconds()
        out: dict[str, dict] = {}
        for s in self.spans:
            row = out.setdefault(s.name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["total_ms"] += s.seconds * 1e3
            row["self_ms"] += own[s.sid] * 1e3
        return out

    def dump(self, path) -> None:
        """One JSON object per span, times in seconds from the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"sid": s.sid, "name": s.name, "parent": s.parent,
                                     "start": s.start - t0, "end": s.end - t0,
                                     "attrs": s.attrs}) + "\n")
