"""Unit/behavioural tests for the flit-level engine."""

import pytest

from repro.config import tiny_default
from repro.errors import ConfigurationError
from repro.network.message import Message, MessageStatus
from repro.network.simulator import NetworkSimulator, build_topology
from repro.network.topology import IrregularTorus, KAryNCube, Mesh

#: hand-injected messages (``sim.queues[src].append``) bypass the generate
#: phase, where the SoA engines give each message its state slot, so the
#: tests that inject drive the scalar fast path
SCALAR = dict(engine_vectorized=False)


def make_sim(**overrides):
    return NetworkSimulator(tiny_default(**overrides))


class TestBuildTopology:
    def test_torus(self):
        topo = build_topology(tiny_default())
        assert isinstance(topo, KAryNCube) and topo.bidirectional

    def test_uni_torus(self):
        topo = build_topology(tiny_default(bidirectional=False))
        assert not topo.bidirectional

    def test_mesh(self):
        topo = build_topology(tiny_default(mesh=True, routing="negative-first"))
        assert isinstance(topo, Mesh)

    def test_irregular(self):
        topo = build_topology(tiny_default(failed_links=((0, 1),)))
        assert isinstance(topo, IrregularTorus)


class TestSingleMessageTransit:
    """Drive one hand-injected message through an otherwise idle network."""

    def _run_single(self, src, dest, length=4, routing="dor", max_cycles=200):
        sim = make_sim(routing=routing, load=0.0, check_invariants=True, **SCALAR)
        m = Message(0, src, dest, length, created_cycle=0)
        sim.queues[src].append(m)
        sim._live[0] = m
        for _ in range(max_cycles):
            sim.step()
            if m.is_done:
                return sim, m
        raise AssertionError(f"message never delivered: {m!r}")

    def test_neighbour_delivery(self):
        sim, m = self._run_single(0, 1)
        assert m.status is MessageStatus.DELIVERED
        assert m.ejected == m.length

    def test_cross_network_delivery(self):
        sim, m = self._run_single(0, 10)  # (2, 2) in a 4x4 torus
        assert m.status is MessageStatus.DELIVERED

    def test_wraparound_delivery(self):
        sim, m = self._run_single(0, 3)  # one hop the short way around
        assert m.status is MessageStatus.DELIVERED
        assert m.latency is not None

    def test_all_resources_released_after_delivery(self):
        sim, m = self._run_single(0, 5, length=8)
        for vc in sim.pool.vcs:
            assert vc.is_free
            assert vc.occupancy == 0
        for rx in sim.pool.reception:
            assert rx.is_free

    def test_latency_lower_bound(self):
        # latency >= distance + message length (pipelined transfer)
        sim, m = self._run_single(0, 2, length=4)
        dist = sim.topology.min_distance(0, 2)
        assert m.latency >= dist + m.length

    def test_tfar_also_delivers(self):
        sim, m = self._run_single(0, 10, routing="tfar")
        assert m.status is MessageStatus.DELIVERED

    def test_single_flit_message(self):
        sim, m = self._run_single(0, 9, length=1)
        assert m.status is MessageStatus.DELIVERED


class TestPipelining:
    def test_throughput_of_long_message(self):
        """A worm streams: delivery takes ~distance + length cycles, not
        distance * length."""
        sim = make_sim(load=0.0, routing="dor", buffer_depth=4, **SCALAR)
        m = Message(0, 0, 2, 16, created_cycle=0)
        sim.queues[0].append(m)
        sim._live[0] = m
        cycles = 0
        while not m.is_done and cycles < 500:
            sim.step()
            cycles += 1
        assert m.status is MessageStatus.DELIVERED
        dist = sim.topology.min_distance(0, 2)
        assert cycles <= 3 * (dist + 16)  # far below dist * length


class TestContention:
    def test_two_messages_share_reception_channel(self):
        """Both arrive at the same destination; one must wait, then drain."""
        sim = make_sim(load=0.0, routing="dor", check_invariants=True, **SCALAR)
        a = Message(0, 1, 0, 4, created_cycle=0)
        b = Message(1, 4, 0, 4, created_cycle=0)
        sim.queues[1].append(a)
        sim.queues[4].append(b)
        sim._live[0] = a
        sim._live[1] = b
        for _ in range(300):
            sim.step()
            if a.is_done and b.is_done:
                break
        assert a.status is MessageStatus.DELIVERED
        assert b.status is MessageStatus.DELIVERED

    def test_injection_serialized_per_node(self):
        """Messages from one source enter the network one at a time."""
        sim = make_sim(load=0.0, routing="dor", **SCALAR)
        msgs = [Message(i, 0, 2, 4, created_cycle=0) for i in range(3)]
        for m in msgs:
            sim.queues[0].append(m)
            sim._live[m.id] = m
        injections = []
        for _ in range(400):
            sim.step()
            for m in msgs:
                if m.injected_cycle is not None and m.id not in injections:
                    injections.append(m.id)
            if all(m.is_done for m in msgs):
                break
        assert all(m.status is MessageStatus.DELIVERED for m in msgs)
        assert injections == [0, 1, 2]  # FIFO order


class TestRunHarness:
    def test_run_returns_result(self):
        sim = make_sim(load=0.3, measure_cycles=300, warmup_cycles=50)
        result = sim.run()
        assert result.delivered > 0
        assert result.measured_cycles == 300
        assert sim.cycle == 350

    def test_zero_load_runs_clean(self):
        sim = make_sim(load=0.0, measure_cycles=200, warmup_cycles=0)
        result = sim.run()
        assert result.delivered == 0
        assert result.deadlocks == 0

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError):
            NetworkSimulator(tiny_default(load=-1))

    def test_detection_interval_respected(self):
        sim = make_sim(load=0.2, measure_cycles=500, warmup_cycles=0,
                       detection_interval=100)
        sim.run()
        assert len(sim.detector.records) == 5

    def test_throughput_tracks_offered_load_below_saturation(self):
        sim = make_sim(load=0.2, measure_cycles=2000, warmup_cycles=300)
        result = sim.run()
        thr = result.normalized_throughput(
            sim.topology.capacity_flits_per_node_cycle
        )
        assert thr == pytest.approx(0.2, rel=0.25)


class TestLinkBandwidth:
    def test_one_flit_per_link_per_cycle(self):
        """With 2 VCs two messages share a link at half rate each."""
        sim = make_sim(load=0.0, num_vcs=2, routing="dor", **SCALAR)
        a = Message(0, 0, 2, 8, created_cycle=0)
        b = Message(1, 0, 2, 8, created_cycle=0)
        # place both at node 0's queue: injection is serialized, so instead
        # start b from node 3 routing through 0? Simplest: watch aggregate
        # delivery time: 16 flits over the shared 1->2 link need >= 16 cycles.
        sim.queues[0].append(a)
        sim.queues[0].append(b)
        sim._live[0] = a
        sim._live[1] = b
        start = sim.cycle
        while not (a.is_done and b.is_done) and sim.cycle - start < 500:
            sim.step()
        assert a.is_done and b.is_done
        assert sim.cycle - start >= 16
