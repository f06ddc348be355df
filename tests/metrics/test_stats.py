"""Unit tests for statistics collection and derived metrics."""

import pytest

from repro.config import tiny_default
from repro.metrics.stats import RunResult, StatsCollector
from repro.network.message import Message
from repro.network.topology import KAryNCube


def make_result(**kw):
    defaults = dict(config=tiny_default(), measured_cycles=1000)
    defaults.update(kw)
    return RunResult(**defaults)


class TestRunResultDerived:
    def test_normalized_deadlocks(self):
        r = make_result(delivered=90, recovered=10, deadlocks=5)
        assert r.delivered_total == 100
        assert r.normalized_deadlocks == pytest.approx(0.05)
        assert r.deadlocks_per_kilo_delivered == pytest.approx(50.0)

    def test_normalized_deadlocks_zero_delivered(self):
        assert make_result(deadlocks=0).normalized_deadlocks == 0.0
        assert make_result(deadlocks=3).normalized_deadlocks == float("inf")

    def test_cycle_cap_fraction(self):
        cfg = tiny_default(max_cycles_counted=100)
        r = make_result(
            config=cfg, cycle_counts=[3, 100, 40, 100], cycle_count_saturated=True
        )
        assert r.cycle_cap_fraction == 0.5
        assert make_result(config=cfg).cycle_cap_fraction == 0.0
        assert make_result(config=cfg, cycle_counts=[99]).cycle_cap_fraction == 0.0

    def test_capped_cycle_mean_renders_as_lower_bound(self):
        from repro.experiments.base import ExperimentResult
        from repro.metrics.sweep import SweepResult

        cfg = tiny_default(max_cycles_counted=100)
        capped = make_result(
            config=cfg, cycle_counts=[100, 50], cycle_count_saturated=True
        )
        exact = make_result(config=cfg, cycle_counts=[20, 30])
        sweep = SweepResult("s", [0.5, 0.9], [exact, capped], capacity=1.0)
        text = ExperimentResult("FIGX", "d", {"s": sweep}).format_tables()
        rows = [line.split() for line in text.splitlines()]
        cycles = [row[7] for row in rows if row and row[0] in ("0.5000", "0.9000")]
        assert cycles == ["25.0", "≥75.0"]

    def test_set_size_aggregates(self):
        r = make_result(deadlock_set_sizes=[2, 4, 6], resource_set_sizes=[8, 16])
        assert r.avg_deadlock_set_size == 4.0
        assert r.max_deadlock_set_size == 6
        assert r.avg_resource_set_size == 12.0
        assert r.max_resource_set_size == 16

    def test_empty_aggregates_are_zero(self):
        r = make_result()
        assert r.avg_deadlock_set_size == 0.0
        assert r.max_knot_cycle_density == 0
        assert r.avg_cycle_count == 0.0
        assert r.avg_latency == 0.0

    def test_throughput(self):
        r = make_result(delivered_flits=16000, measured_cycles=1000)
        per_node = 16000 / (1000 * 16)
        assert r.throughput_flits_per_node_cycle == pytest.approx(per_node)
        assert r.normalized_throughput(per_node * 2) == pytest.approx(0.5)
        assert r.normalized_throughput(0.0) == 0.0

    def test_latency(self):
        r = make_result(latency_sum=500, latency_count=10)
        assert r.avg_latency == 50.0

    def test_deadlocks_per_message_in_network(self):
        r = make_result(deadlocks=4, in_network_samples=[10, 10])
        assert r.normalized_deadlocks_per_message_in_network == pytest.approx(0.4)

    def test_summary_is_single_line(self):
        assert "\n" not in make_result().summary()


class TestStatsCollector:
    def test_warmup_events_excluded(self):
        cfg = tiny_default(warmup_cycles=100)
        collector = StatsCollector(cfg, KAryNCube(4, 2))
        m = Message(0, 0, 1, 8, created_cycle=0)
        m.completed_cycle = 50
        collector.on_delivered(m, cycle=50)  # during warmup
        collector.on_generated(cycle=100)  # boundary: still warmup
        assert collector._result.delivered == 0
        assert collector._result.generated == 0
        collector.on_delivered(m, cycle=101)
        assert collector._result.delivered == 1

    def test_recovered_vs_aborted(self):
        cfg = tiny_default(warmup_cycles=0)
        collector = StatsCollector(cfg, KAryNCube(4, 2))
        m1 = Message(0, 0, 1, 8, created_cycle=0)
        m1.remove_from_network(10, delivered=True)
        collector.on_recovered(m1, cycle=10)
        m2 = Message(1, 0, 1, 8, created_cycle=0)
        m2.remove_from_network(10, delivered=False)
        collector.on_recovered(m2, cycle=10)
        assert collector._result.recovered == 1
        assert collector._result.aborted == 1
        # only the Disha-delivered flits count toward throughput
        assert collector._result.delivered_flits == 8
