"""In-memory span recorder and the statistics the benchmark derives from it.

A span is one call across a layer boundary: its name, start and end on the
``perf_counter`` clock, the index of the span that was open when it began
(its parent) and the id of the episode it belongs to.  Spans stay in memory
until the run ends.  A span's self time is its duration minus the time its
direct child spans cover; children of one single-threaded call never
overlap, so that is the sum of their durations.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict

NAME, START, END, PARENT, RUN = range(5)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.run_id = 0
        self._open = []

    def begin(self, name):
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, self.clock(), None, parent, self.run_id])
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index):
        if not self._open or self._open[-1] != index:
            raise RuntimeError(f"span {self.spans[index][NAME]!r} closed out of order")
        self._open.pop()
        self.spans[index][END] = self.clock()

    def wrap(self, name, fn):
        """``fn`` with each call recorded as a span named ``name``."""

        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced


def self_times(spans):
    """Self time of every span, in the order of ``spans``."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def by_name(spans):
    """name -> {"durations": [...], "self_s": total self time}."""
    out = defaultdict(lambda: {"durations": [], "self_s": 0.0})
    for s, own in zip(spans, self_times(spans)):
        entry = out[s[NAME]]
        entry["durations"].append(s[END] - s[START])
        entry["self_s"] += own
    return out


def percentile(samples, q):
    """Nearest-rank q-quantile (0 < q < 1) and the sample count, or None when
    fewer than ten samples lie beyond it (then it is not reported)."""
    n = len(samples)
    rank = max(1, math.ceil(q * n - 1e-9))
    if n - rank < 10:
        return None
    return sorted(samples)[rank - 1], n
