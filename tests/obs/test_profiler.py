"""Unit tests for the phase profiler and its trace-span emission."""

from repro.obs.profiler import PhaseProfiler, PhaseTimer, exclusive_times
from repro.obs.trace import TraceRecorder


def test_timer_accumulates_time_and_calls():
    prof = PhaseProfiler()
    t = prof.timer("engine/generate")
    assert isinstance(t, PhaseTimer)
    for _ in range(3):
        with t:
            pass
    assert t.calls == 3
    assert t.total >= 0.0
    assert prof.timer("engine/generate") is t


def test_add_manual_accounting():
    prof = PhaseProfiler()
    prof.add("detect/census", 0.25)
    prof.add("detect/census", 0.25, calls=4)
    snap = prof.snapshot()
    assert snap["detect/census"]["total_s"] == 0.5
    assert snap["detect/census"]["calls"] == 5


def test_reset_zeroes_but_keeps_timer_objects():
    prof = PhaseProfiler()
    t = prof.timer("engine/move")
    with t:
        pass
    prof.add("detect/knots", 1.0)
    prof.reset()
    assert prof.timer("engine/move") is t
    assert t.total == 0.0 and t.calls == 0
    assert prof.snapshot()["detect/knots"] == {"total_s": 0.0, "calls": 0}


def test_timer_exit_emits_trace_span():
    tracer = TraceRecorder(capacity=16)
    prof = PhaseProfiler(tracer)
    tracer.cycle = 42
    with prof.timer("engine/allocate"):
        pass
    assert len(tracer) == 1
    kind, name, cycle, _ts, _dur, _args = tracer.events[0]
    assert (kind, name, cycle) == ("X", "engine/allocate", 42)


def test_add_does_not_emit_span():
    tracer = TraceRecorder(capacity=16)
    prof = PhaseProfiler(tracer)
    prof.add("detect/partition", 0.1)
    assert len(tracer) == 0


def test_table_renders_every_recorded_phase():
    prof = PhaseProfiler()
    prof.add("engine/allocate", 0.3, calls=10)
    prof.add("engine/move", 0.1, calls=10)
    text = prof.table("phase profile")
    assert "phase profile" in text
    assert "engine/allocate" in text and "engine/move" in text
    # widest share first
    assert text.index("engine/allocate") < text.index("engine/move")
    assert PhaseProfiler().table().endswith("(no phases recorded)")


def _table_shares(text: str) -> dict[str, float]:
    rows = [line.split() for line in text.splitlines()[2:]]
    return {row[0]: float(row[-1].rstrip("%")) for row in rows}


def test_table_shares_are_exclusive_of_nested_detect_spans():
    prof = PhaseProfiler()
    prof.add("engine/generate", 1.0)
    prof.add("engine/detect", 9.0)  # includes the 8 s booked below
    prof.add("detect/census", 8.0)
    shares = _table_shares(prof.table())
    assert shares == {
        "detect/census": 80.0,
        "engine/generate": 10.0,
        "engine/detect": 10.0,
    }
    assert abs(sum(shares.values()) - 100.0) <= 0.1


def test_exclusive_times_subtracts_nested_children():
    snap = {
        "engine/detect": {"total_s": 9.0, "calls": 1},
        "detect/census": {"total_s": 5.0, "calls": 1},
        "detect/knots": {"total_s": 3.0, "calls": 1},
        "engine/move": {"total_s": 2.0, "calls": 1},
    }
    assert exclusive_times(snap) == {
        "engine/detect": 1.0,
        "detect/census": 5.0,
        "detect/knots": 3.0,
        "engine/move": 2.0,
    }
