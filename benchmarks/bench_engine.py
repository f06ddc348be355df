"""Micro-benchmarks for the flit-level engine: simulated cycles per second.

Times 200-cycle slices of a warmed network.  This is the number that
governs how long every figure sweep takes and what the repro band's "slow
for long deadlock-frequency runs" refers to.
"""

from repro.config import bench_default
from repro.network.simulator import NetworkSimulator


def warmed_sim(**overrides):
    cfg = bench_default(warmup_cycles=0, measure_cycles=1, **overrides)
    sim = NetworkSimulator(cfg)
    for _ in range(400):
        sim.step()
    return sim


def slice_of(sim, cycles=200):
    def run_slice():
        for _ in range(cycles):
            sim.step()
    return run_slice


def test_engine_dor_moderate_load(benchmark):
    sim = warmed_sim(routing="dor", num_vcs=1, load=0.4)
    benchmark.pedantic(slice_of(sim), rounds=3, iterations=1)
    assert sim.cycle > 400


def test_engine_tfar_saturated(benchmark):
    sim = warmed_sim(routing="tfar", num_vcs=1, load=1.0)
    benchmark.pedantic(slice_of(sim), rounds=3, iterations=1)
    assert sim.cycle > 400


def test_engine_four_vcs(benchmark):
    sim = warmed_sim(routing="tfar", num_vcs=4, load=0.8)
    benchmark.pedantic(slice_of(sim), rounds=3, iterations=1)
    assert sim.cycle > 400


def saturated_16ary_sim(engine_fast_path=True, warm=150):
    """The acceptance scenario: paper-scale 16-ary 2-cube, TFAR, load 0.9.

    Incremental CWG maintenance and no cycle census: the configuration the
    activity-tracked fast path targets (detection short-circuiting plus
    snapshot-free adjacency).  ``scripts/bench_baseline.py`` times this same
    scenario with the fast path on and off and records the speedup in
    ``BENCH_core.json``.
    """
    from repro.config import paper_default

    cfg = paper_default(
        warmup_cycles=0,
        measure_cycles=1,
        routing="tfar",
        num_vcs=1,
        load=0.9,
        cwg_maintenance="incremental",
        count_cycles=False,
        engine_fast_path=engine_fast_path,
        engine_vectorized=False,
    )
    sim = NetworkSimulator(cfg)
    for _ in range(warm):
        sim.step()
    return sim


def test_engine_saturated_16ary_fast(benchmark):
    sim = saturated_16ary_sim(engine_fast_path=True)
    benchmark.pedantic(slice_of(sim, cycles=150), rounds=2, iterations=1)
    assert sim.cycle > 150


def test_engine_saturated_16ary_legacy(benchmark):
    sim = saturated_16ary_sim(engine_fast_path=False)
    benchmark.pedantic(slice_of(sim, cycles=150), rounds=2, iterations=1)
    assert sim.cycle > 150


def test_engine_paper_scale_slice(benchmark):
    """One 100-cycle slice of the paper's true 16-ary 2-cube (256 nodes)."""
    from repro.config import paper_default

    cfg = paper_default(warmup_cycles=0, measure_cycles=1, load=0.5)
    sim = NetworkSimulator(cfg)
    for _ in range(150):
        sim.step()
    benchmark.pedantic(slice_of(sim, cycles=100), rounds=1, iterations=1)
    assert sim.cycle > 150
