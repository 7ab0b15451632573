"""Spans around the benchmark's calls into segic, kept in memory.

A span is (name, start, end, parent index, op id). With tracing off,
`Tracer.call` is a plain call, so untraced passes pay nothing for it.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.enabled = False
        self.op_id = None
        self.spans: list[list] = []
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, self.op_id])
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[index][2] = perf_counter()

    def self_times(self, first: int = 0) -> list[tuple[str, float]]:
        """(name, self time) of spans[first:]: duration minus time covered by children."""
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent is not None and parent >= first:
                child[parent - first] += end - start
        return [(s[0], s[2] - s[1] - child[i]) for i, s in enumerate(spans)]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                [dict(zip(("name", "start", "end", "parent", "op"), s)) for s in self.spans],
                fh,
            )


def per_name(self_times) -> tuple[dict, dict]:
    """Calls and summed self time per span name."""
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    for name, t in self_times:
        calls[name] += 1
        busy[name] += t
    return calls, busy
