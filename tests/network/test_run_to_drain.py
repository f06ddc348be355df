"""Tests for the drain-driven run mode and engine edge cases."""

from repro.config import tiny_default
from repro.network.message import Message
from repro.network.simulator import NetworkSimulator

#: hand-injected messages (``sim.queues[src].append``) bypass the generate
#: phase, where the SoA engines give each message its state slot, so the
#: tests that inject drive the scalar fast path
SCALAR = dict(engine_vectorized=False)


def test_run_to_drain_with_bernoulli_source_stops_at_cap():
    """The Bernoulli generator never exhausts; the cap bounds the run."""
    cfg = tiny_default(load=0.3)
    sim = NetworkSimulator(cfg)
    sim.run_to_drain(max_cycles=300)
    assert sim.cycle == 300


def test_run_to_drain_counts_from_cycle_zero():
    from repro.network.topology import KAryNCube
    from repro.traffic.trace import Trace, TraceRecord

    cfg = tiny_default()
    trace = Trace([TraceRecord(0, 0, 1, 4)])
    sim = NetworkSimulator(cfg, trace=trace)
    result = sim.run_to_drain(max_cycles=500)
    assert result.delivered == 1  # no warmup exclusion in drain mode


def test_step_is_reentrant_after_run():
    """Stepping past run() keeps the engine consistent."""
    cfg = tiny_default(load=0.4, measure_cycles=200, warmup_cycles=0,
                       check_invariants=True)
    sim = NetworkSimulator(cfg)
    sim.run()
    for _ in range(100):
        sim.step()
    assert sim.cycle == 300


def test_empty_network_detection_is_cheap_and_clean():
    cfg = tiny_default(load=0.0, measure_cycles=500, warmup_cycles=0)
    sim = NetworkSimulator(cfg)
    result = sim.run()
    assert all(not r.events for r in sim.detector.records)
    assert result.avg_cycle_count == 0.0


def test_message_to_adjacent_node_wraparound_both_ways():
    """Shortest wrap in either direction delivers."""
    for src, dest in ((0, 3), (3, 0)):
        cfg = tiny_default(load=0.0, routing="dor", **SCALAR)
        sim = NetworkSimulator(cfg)
        m = Message(0, src, dest, 4, created_cycle=0)
        sim.queues[src].append(m)
        sim._live[0] = m
        for _ in range(100):
            sim.step()
            if m.is_done:
                break
        assert m.is_done


def test_queue_cap_bounds_source_queues():
    cfg = tiny_default(load=3.0, max_queued_per_node=4, measure_cycles=400,
                       warmup_cycles=0)
    sim = NetworkSimulator(cfg)
    max_seen = 0
    while sim.cycle < 400:
        sim.step()
        max_seen = max(max_seen, max(len(q) for q in sim.queues))
    assert max_seen <= 5  # cap + the one generated before the check
    assert sim.generator.suppressed > 0
