"""In-memory span recorder and the self-time arithmetic over its spans.

A span is ``(sid, parent, name, start, end)`` with ``perf_counter``
timestamps.  Spans nest per thread: the parent is whatever span was open
on the same thread when the child opened.  A span's *self time* is its
duration minus the time covered by its direct children, so the self
times of a tree sum to the root's duration.

Forked children: an at-fork hook empties the inherited buffers and stack,
so a child's spans are roots of its own and never nest under a span the
parent still has open (that parent keeps running concurrently, and
subtracting the child's time from it would be wrong).  A child has no
exit hook it can rely on (``multiprocessing`` leaves through
``os._exit``), so it appends its buffer to ``<dump_dir>/<pid>.jsonl``
each time its outermost span closes.  The owning process keeps its spans
in memory until :meth:`SpanRecorder.collect` reads everything back.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from pathlib import Path
from typing import Callable, Iterable, Optional

__all__ = ["SpanRecorder", "SpanStats", "analyze", "percentile", "tail_percentile"]


class SpanRecorder:
    """Records spans and counters; see the module docstring."""

    def __init__(self, dump_dir: Path) -> None:
        self.dump_dir = Path(dump_dir)
        self.dump_dir.mkdir(parents=True, exist_ok=True)
        self.owner_pid = os.getpid()
        self._in_child = False
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = {}
        self.samples: dict[str, list[float]] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        os.register_at_fork(after_in_child=self._after_fork_in_child)

    # -- recording -------------------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self, name: str, fn: Callable, after: Optional[Callable] = None
    ) -> Callable:
        """``fn`` recording one span per call; ``after(args, result)`` runs
        inside the span once ``fn`` returned."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else 0
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, parent, name, start, end))
                if not stack and self._in_child:
                    self._flush_child()

        return traced

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    # -- processes -------------------------------------------------------------------
    def _after_fork_in_child(self) -> None:
        self._in_child = True
        self.spans = []
        self.counters = {}
        self.samples = {}
        self._local = threading.local()

    def _flush_child(self) -> None:
        record = {"spans": self.spans, "counters": self.counters, "samples": self.samples}
        with open(self.dump_dir / f"{os.getpid()}.jsonl", "a") as fh:
            fh.write(json.dumps(record) + "\n")
        self.spans, self.counters, self.samples = [], {}, {}

    def collect(self) -> list[dict]:
        """Every process's record: this one's in memory plus child dumps."""
        out = [{"pid": self.owner_pid, "spans": list(self.spans),
                "counters": dict(self.counters),
                "samples": {k: list(v) for k, v in self.samples.items()}}]
        for path in sorted(self.dump_dir.glob("*.jsonl")):
            merged: dict = {"pid": int(path.stem), "spans": [], "counters": {}, "samples": {}}
            for line in path.read_text().splitlines():
                record = json.loads(line)
                merged["spans"].extend(tuple(s) for s in record["spans"])
                for key, value in record["counters"].items():
                    merged["counters"][key] = merged["counters"].get(key, 0) + value
                for key, values in record["samples"].items():
                    merged["samples"].setdefault(key, []).extend(values)
            out.append(merged)
        return out

    def reset(self) -> None:
        """Drop everything recorded so far, here and in child dumps."""
        self.spans, self.counters, self.samples = [], {}, {}
        for path in self.dump_dir.glob("*.jsonl"):
            path.unlink()


class SpanStats:
    """Per-name totals over one process's spans.

    ``durations`` holds only *outermost* occurrences of a name (a span
    with no ancestor of the same name), so recursion or an override that
    calls its base method is counted once; ``self_s`` sums the self time
    of every occurrence, which equals the outermost total minus the time
    in spans of other names underneath.
    """

    def __init__(self) -> None:
        self.durations: dict[str, list[float]] = {}
        self.self_s: dict[str, float] = {}

    def count(self, name: str) -> int:
        return len(self.durations.get(name, ()))

    def total(self, name: str) -> float:
        return sum(self.durations.get(name, ()))

    def merge(self, other: "SpanStats") -> None:
        for name, values in other.durations.items():
            self.durations.setdefault(name, []).extend(values)
        for name, value in other.self_s.items():
            self.self_s[name] = self.self_s.get(name, 0.0) + value


def analyze(spans: Iterable[tuple]) -> SpanStats:
    """Self times and outermost durations of one process's spans."""
    spans = list(spans)
    by_id = {s[0]: s for s in spans}
    child_time: dict[int, float] = {}
    for sid, parent, _name, start, end in spans:
        if parent:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    stats = SpanStats()
    for sid, parent, name, start, end in spans:
        duration = end - start
        stats.self_s[name] = stats.self_s.get(name, 0.0) + duration - child_time.get(sid, 0.0)
        ancestor = by_id.get(parent)
        while ancestor is not None and ancestor[2] != name:
            ancestor = by_id.get(ancestor[1])
        if ancestor is None:
            stats.durations.setdefault(name, []).append(duration)
    return stats


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(min(rank, len(ordered))) - 1]


def tail_percentile(values: list[float]) -> tuple[float, float]:
    """``(q, value)`` for the highest of p99.9/p99/p90/p50 that leaves at
    least ten samples above it (p50 when there are fewer than 20)."""
    n = len(values)
    for q in (99.9, 99.0, 90.0):
        if n * (100.0 - q) / 100.0 >= 10:
            return q, percentile(values, q)
    return 50.0, percentile(values, 50.0)
