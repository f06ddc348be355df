"""Scoped phase timing for the engine and detector.

:class:`PhaseProfiler` accumulates wall-clock time and call counts per
named phase.  The engine wraps its per-cycle stages (generate / allocate /
move / detect) in pre-bound :class:`PhaseTimer` context managers; the
detector accounts its region pipeline with :meth:`PhaseProfiler.add` so the
``obs_level=0`` path pays a single ``None``-check instead of a context
manager.

Timers are plain non-reentrant context managers reused across cycles
(allocation-free per use: entering just stores a start time).  When a
:class:`~repro.obs.trace.TraceRecorder` is attached, every timer exit also
emits a span event, which is what puts the phase lanes on the Chrome-trace
timeline.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.trace import TraceRecorder

__all__ = ["PhaseProfiler", "PhaseTimer", "exclusive_times"]

#: nested phase-name prefix -> the enclosing top-level phase.  The detector
#: accounts its region pipeline under ``detect/*`` while it runs *inside*
#: the engine's ``engine/detect`` timer, so a child's wall-clock is counted
#: twice in a raw snapshot.
_NESTED_UNDER = {"detect/": "engine/detect"}


def exclusive_times(snap: dict) -> dict[str, float]:
    """Exclusive (self) seconds per phase: parents minus their nested children.

    A raw snapshot is inclusive (``engine/detect`` holds the time also booked
    under ``detect/*``), so its shares sum past 100%.  Subtracting each child
    group from its parent makes the rows disjoint; clamped at zero so timer
    jitter on a near-empty parent can't go negative.
    """
    exclusive = {name: rec["total_s"] for name, rec in snap.items()}
    for prefix, parent in _NESTED_UNDER.items():
        if parent in exclusive:
            nested = sum(
                rec["total_s"] for name, rec in snap.items() if name.startswith(prefix)
            )
            exclusive[parent] = max(0.0, exclusive[parent] - nested)
    return exclusive


class PhaseTimer:
    """Reusable scoped timer for one named phase (non-reentrant)."""

    __slots__ = ("name", "total", "calls", "_tracer", "_t0")

    def __init__(self, name: str, tracer: Optional["TraceRecorder"]) -> None:
        self.name = name
        self.total = 0.0
        self.calls = 0
        self._tracer = tracer
        self._t0 = 0.0

    def __enter__(self) -> "PhaseTimer":
        self._t0 = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        t0 = self._t0
        dur = perf_counter() - t0
        self.total += dur
        self.calls += 1
        if self._tracer is not None:
            self._tracer.span(self.name, t0, dur)


class PhaseProfiler:
    """Named phase accounting with optional trace-span emission."""

    def __init__(self, tracer: Optional["TraceRecorder"] = None) -> None:
        self.tracer = tracer
        self.timers: dict[str, PhaseTimer] = {}

    def timer(self, name: str) -> PhaseTimer:
        """The (stable) timer for ``name``, created on first use."""
        t = self.timers.get(name)
        if t is None:
            self.timers[name] = t = PhaseTimer(name, self.tracer)
        return t

    def add(self, name: str, seconds: float, calls: int = 1) -> None:
        """Manual accounting for code that times itself (no span emitted)."""
        t = self.timer(name)
        t.total += seconds
        t.calls += calls

    def reset(self) -> None:
        """Zero all accumulated times/counts (timer objects stay bound).

        Lets a benchmark discard warmup cycles: the engine's pre-bound
        :class:`PhaseTimer` references remain valid, only their totals
        restart.
        """
        for t in self.timers.values():
            t.total = 0.0
            t.calls = 0

    def snapshot(self) -> dict[str, dict]:
        """``{name: {"total_s": ..., "calls": ...}}`` for every phase."""
        return {
            name: {"total_s": t.total, "calls": t.calls}
            for name, t in sorted(self.timers.items())
        }

    def table(self, title: str = "phase profile") -> str:
        """A printable per-phase time table, widest share first.

        Times and shares are exclusive (nested ``detect/*`` time is taken
        out of ``engine/detect``), so the shares sum to 100%; ``us/call``
        is the inclusive time of one call.
        """
        snap = {
            name: rec for name, rec in self.snapshot().items() if rec["calls"]
        }
        if not snap:
            return f"{title}\n  (no phases recorded)"
        own = exclusive_times(snap)
        total = sum(own.values())
        width = max(len(name) for name in snap)
        lines = [title, "-" * len(title)]
        for name in sorted(snap, key=lambda n: -own[n]):
            calls = snap[name]["calls"]
            avg_us = 1e6 * snap[name]["total_s"] / calls
            share = 100.0 * own[name] / total if total else 0.0
            lines.append(
                f"  {name.ljust(width)}  {own[name] * 1e3:10.2f} ms  "
                f"{calls:>9} calls  {avg_us:10.1f} us/call  {share:5.1f}%"
            )
        return "\n".join(lines)
