"""Frame clocks and span tracing, applied from outside the program.

Every measurement wraps a module attribute at the call site the pipeline
uses (``harness.load_image`` is the name ``run_tracking`` calls, and so
on), so nothing under ``src/`` changes and an unpatched layer runs at full
speed. ``Patches`` undoes every wrapper when its block ends.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

perf_counter = time.perf_counter

# FixedPoint methods counted per operation group. ``__radd__`` and
# ``__rmul__`` are separate class attributes, so each is wrapped on its own.
FIXED_POINT_GROUPS = {
    "mul": ("__mul__", "__rmul__"),
    "div": ("__truediv__", "__rtruediv__"),
    "add_sub": ("__add__", "__radd__", "__sub__", "__rsub__"),
    "cmp": ("__eq__", "__ne__", "__lt__", "__le__", "__gt__", "__ge__"),
    "new": ("__init__",),
}


class Patches:
    """Replace attributes for the length of a ``with`` block."""

    def __init__(self):
        self._saved = []

    def set(self, owner, name, value):
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)
        return False


class FrameClock:
    """Wall time of each frame, from entering its first call to leaving its last."""

    def __init__(self):
        self.times = []  # seconds
        self._start = 0.0

    def first(self, fn):
        def wrapper(*args, **kwargs):
            self._start = perf_counter()
            return fn(*args, **kwargs)
        return wrapper

    def last(self, fn):
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                self.times.append(perf_counter() - self._start)
        return wrapper


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, frame id].

    A synthetic ``frame`` span opens when the frame's first call starts and
    closes when its last call returns or raises; its self time is the frame
    time no layer span covers.
    """

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.frame_stats = []  # FrameStats returned by track_frame
        self._stack = []
        self._frame = -1

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, perf_counter(), 0.0, parent, self._frame])

    def _close(self):
        self.spans[self._stack.pop()][2] = perf_counter()

    def span(self, name, fn, first=False, last=False, on_result=None):
        """Wrap fn in a span; ``first``/``last`` open/close the frame span."""
        def wrapper(*args, **kwargs):
            if first:
                self._frame += 1
                self._open("frame")
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
                if last:
                    self._close()
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    def counter(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def count_fixed_point(self, patches, cls):
        for group, names in FIXED_POINT_GROUPS.items():
            for name in names:
                patches.set(cls, name, self.counter(f"realmath.{group}", getattr(cls, name)))

    def self_times(self):
        """Per span name: (total self seconds, call count), after checking nesting.

        Raises ValueError when a span leaves its parent, overlaps its
        previous sibling, or lies outside any frame.
        """
        child = [0.0] * len(self.spans)
        last_end = {}
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            if end < start:
                raise ValueError(f"span {i} ({name}) never closed")
            if parent < 0:
                if name != "frame":
                    raise ValueError(f"span {i} ({name}) outside any frame")
                continue
            p_start, p_end = self.spans[parent][1:3]
            if start < max(p_start, last_end.get(parent, p_start)) or end > p_end:
                raise ValueError(f"span {i} ({name}) not nested in span {parent}")
            last_end[parent] = end
            child[parent] += end - start
        totals = defaultdict(lambda: [0.0, 0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name][0] += end - start - child[i]
            totals[name][1] += 1
        return totals

    def frame_times(self):
        return [end - start for name, start, end, _, _ in self.spans if name == "frame"]

    def write_spans(self, path):
        lines = ["frame,name,start_us,end_us,parent"]
        t0 = self.spans[0][1] if self.spans else 0.0
        for name, start, end, parent, frame in self.spans:
            lines.append(f"{frame},{name},{(start - t0) * 1e6:.1f},{(end - t0) * 1e6:.1f},{parent}")
        path.write_text("\n".join(lines) + "\n")
