"""In-memory span recorder for the traced benchmark run.

Spans are aggregated as they close, so memory stays flat however many
calls a run makes.  For every span name the recorder keeps:

* ``calls`` -- how many spans of that name closed;
* ``s`` -- total time, counting only the outermost span of the name, so
  a function that re-enters itself is not counted twice;
* ``self_s`` -- time not covered by a direct child span, summed over
  every span of the name (a nested span is subtracted from its parent
  exactly once).

It also keeps free-form counters, distinct-key sets, and ``covered_s``:
the time inside top-level spans.  The recorder knows nothing of ergolab;
``trace_layers.py`` installs it around the program's functions.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Hashable, Optional


class Recorder:
    def __init__(self) -> None:
        self._stack: list[list] = []  # [name, start, time covered by children]
        self._active: Counter = Counter()
        self.calls: Counter = Counter()
        self.total_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counters: Counter = Counter()
        self.keys: dict[str, set] = {}
        self.covered_s = 0.0

    def enter(self, name: str, now: Optional[float] = None) -> None:
        start = time.perf_counter() if now is None else now
        self._stack.append([name, start, 0.0])
        self._active[name] += 1

    def exit(self, now: Optional[float] = None) -> None:
        end = time.perf_counter() if now is None else now
        name, start, children = self._stack.pop()
        self._active[name] -= 1
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - children
        if self._active[name] == 0:
            self.total_s[name] += duration
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.covered_s += duration

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def distinct(self, name: str, key: Hashable) -> None:
        self.keys.setdefault(name, set()).add(key)

    def summary(self) -> dict:
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans are still open")
        names = sorted(self.calls)
        return {
            "spans": {
                name: {
                    "calls": self.calls[name],
                    "s": self.total_s[name],
                    "self_s": self.self_s[name],
                }
                for name in names
            },
            "counters": dict(sorted(self.counters.items())),
            "distinct": {name: len(keys) for name, keys in sorted(self.keys.items())},
            "covered_s": self.covered_s,
        }
