"""A/B/C/D equivalence: all four engine cores are bit-identical.

``engine_fast_path`` restructures the engine's hot loops around
incrementally-maintained activity state (routable flags, a stalled-message
wake index, immobile-worm skipping, detection short-circuiting on the
blocked epoch); ``engine_vectorized`` additionally rebuilds the hot phases
over structure-of-arrays mirrors, batch candidate tables and an inline
arbitration RNG stream.  All of it is pure optimization: with the same
seed, the legacy, fast-path and vectorized engines must produce the
**same** :class:`RunResult` fields and the **same** sequence of
:class:`DeadlockEvent`\\ s.

Every case runs the identical configuration four times — legacy, fast
path, vectorized, kernels — and compares everything except the config
object itself.  Cases cover the
matrix the engine branches on: DOR/TFAR (plus the misrouting variant whose
candidate sets change as a blocked message's tail drains), uni- and
bidirectional tori, 1–4 VCs, wormhole and virtual cut-through switching,
knot and timeout detection, both CWG maintenance modes, both recovery
teardown styles, router pipeline delay, multiple reception channels, and
all three arbitration policies.

Several cases run with ``check_invariants=True``: the simulator then also
asserts every cycle that the maintained flags (``routable``, ``stalled``,
``immobile``, the waiting set) agree with the predicates they cache.
"""

import dataclasses

import pytest

from repro.config import tiny_default
from repro.network.simulator import NetworkSimulator


def _result_fields(result):
    fields = dataclasses.asdict(result)
    fields.pop("config")  # differs by construction (the flag itself)
    return fields


def _event_keys(sim):
    return [
        (
            e.cycle,
            sorted(e.deadlock_set),
            sorted(e.resource_set, key=str),
            sorted(e.knot, key=str),
            e.knot_cycle_density,
            e.density_saturated,
            sorted(e.dependent),
            sorted(e.transient_dependent),
        )
        for e in sim.detector.events
    ]


ENGINES = {
    "legacy": dict(engine_fast_path=False, engine_vectorized=False),
    "fast": dict(engine_fast_path=True, engine_vectorized=False),
    "vectorized": dict(engine_fast_path=True, engine_vectorized=True),
    "kernels": dict(
        engine_fast_path=True, engine_vectorized=True, engine_kernels=True
    ),
}


def _run_pair(**overrides):
    params = dict(measure_cycles=1500, warmup_cycles=100, seed=7)
    params.update(overrides)
    cfg = tiny_default(**params)
    out = {}
    for name, flags in ENGINES.items():
        sim = NetworkSimulator(cfg.replace(**flags))
        result = sim.run()
        out[name] = (sim, result)
    return out


def _assert_identical(runs):
    legacy_sim, legacy_result = runs["legacy"]
    legacy_fields = _result_fields(legacy_result)
    legacy_events = _event_keys(legacy_sim)
    for name in ("fast", "vectorized", "kernels"):
        sim, result = runs[name]
        assert _result_fields(result) == legacy_fields, name
        assert _event_keys(sim) == legacy_events, name
    # the workload actually exercised the engine
    assert legacy_result.delivered > 0


CASES = {
    # -- routing × topology × VCs ------------------------------------------------
    "tfar_saturated": dict(routing="tfar", load=1.0, num_vcs=1),
    "dor_unrecovered": dict(
        routing="dor", load=1.0, num_vcs=1, recovery="none"
    ),
    "tfar_four_vcs": dict(routing="tfar", load=1.0, num_vcs=4),
    "tfar_unidirectional": dict(
        routing="tfar", load=1.0, bidirectional=False, num_vcs=2
    ),
    "tfar_misrouting": dict(routing="tfar-mis", load=1.0, num_vcs=2),
    "duato_three_vcs": dict(routing="duato", load=1.0, num_vcs=3),
    "dateline_torus": dict(routing="dor-dateline", load=1.0, num_vcs=2),
    "negative_first_mesh": dict(
        routing="negative-first", load=1.0, mesh=True
    ),
    # -- switching ----------------------------------------------------------------
    "cut_through": dict(
        routing="dor", load=0.9, buffer_depth=8, message_length=8
    ),
    # -- detection / recovery modes ----------------------------------------------
    "timeout_recovery": dict(
        routing="tfar",
        load=1.0,
        detection_mode="timeout",
        timeout_threshold=100,
    ),
    "incremental_cwg": dict(
        routing="tfar", load=1.0, cwg_maintenance="incremental"
    ),
    "incremental_timeout_teardown": dict(
        routing="tfar",
        load=1.0,
        cwg_maintenance="incremental",
        detection_mode="timeout",
        timeout_threshold=100,
        recovery_teardown="flit-by-flit",
    ),
    "flit_by_flit_teardown": dict(
        routing="tfar", load=1.0, recovery_teardown="flit-by-flit"
    ),
    "abort_all_recovery": dict(
        routing="tfar", load=1.0, recovery="abort-all"
    ),
    "blocked_durations_recorded": dict(
        routing="tfar",
        load=1.0,
        record_blocked_durations=True,
        detection_mode="timeout",
        timeout_threshold=100,
        cwg_maintenance="incremental",
    ),
    # -- router / node structure ----------------------------------------------------
    "router_delay": dict(routing="tfar", load=1.0, router_delay=2),
    "two_rx_channels": dict(routing="tfar", load=1.0, rx_channels=2),
    # -- arbitration ------------------------------------------------------------------
    "round_robin": dict(
        routing="tfar", load=1.0, arbitration="round-robin"
    ),
    "oldest_first": dict(
        routing="tfar", load=1.0, arbitration="oldest-first"
    ),
}

#: cases that additionally validate the activity flags every cycle
CHECKED_CASES = {
    "tfar_saturated",
    "tfar_misrouting",
    "incremental_timeout_teardown",
    "router_delay",
    "cut_through",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_fast_path_bit_identical(name):
    overrides = dict(CASES[name])
    if name in CHECKED_CASES:
        overrides["check_invariants"] = True
    _assert_identical(_run_pair(**overrides))


def test_fast_path_identical_across_seeds():
    """Sweep seeds on the most deadlock-prone configuration."""
    for seed in (1, 2, 3):
        _assert_identical(
            _run_pair(
                routing="dor",
                load=1.0,
                num_vcs=1,
                seed=seed,
                measure_cycles=1000,
            )
        )


def test_detection_records_match():
    """Per-pass structural fields survive the detector short-circuit."""
    pair = _run_pair(
        routing="tfar", load=0.9, cwg_maintenance="incremental"
    )
    fast_records = pair["vectorized"][0].detector.records
    legacy_records = pair["legacy"][0].detector.records
    assert len(fast_records) == len(legacy_records)
    for fr, lr in zip(fast_records, legacy_records):
        assert fr.cycle == lr.cycle
        assert fr.cwg_vertices == lr.cwg_vertices
        assert fr.cwg_arcs == lr.cwg_arcs
        assert fr.blocked_messages == lr.blocked_messages
        assert fr.messages_in_network == lr.messages_in_network
        assert len(fr.events) == len(lr.events)


def test_fast_path_is_default():
    cfg = tiny_default()
    assert cfg.engine_fast_path is True
    sim = NetworkSimulator(cfg)
    assert sim.fast_path is True


def test_vectorized_is_default():
    """The vectorized core is the default engine, dispatched transparently;
    ``engine_vectorized=False`` selects the scalar fast path."""
    from repro.network.vectorized import VectorizedEngine

    cfg = tiny_default()
    assert cfg.engine_vectorized is True
    assert cfg.engine_tier == "vectorized"
    vec = NetworkSimulator(cfg)
    assert type(vec) is VectorizedEngine
    assert isinstance(vec, NetworkSimulator)

    scalar = NetworkSimulator(cfg.replace(engine_vectorized=False))
    assert type(scalar) is NetworkSimulator
    assert scalar.fast_path is True


def test_fast_path_off_dispatches_to_legacy():
    """``engine_fast_path=False`` means legacy whatever the tier flags say."""
    for flags in (
        dict(engine_vectorized=True),
        dict(engine_vectorized=False, engine_kernels=True),
        dict(engine_vectorized=True, engine_kernels=True),
    ):
        cfg = tiny_default(engine_fast_path=False, **flags)
        assert cfg.engine_tier == "legacy"
        sim = NetworkSimulator(cfg)
        assert type(sim) is NetworkSimulator
        assert sim.fast_path is False


def test_kernels_is_opt_in():
    """The kernel tier is flag-gated and dispatched transparently; it takes
    precedence over the vectorized flag."""
    from repro.network.kernels import KernelEngine
    from repro.network.vectorized import VectorizedEngine

    cfg = tiny_default()
    assert cfg.engine_kernels is False

    for vectorized in (True, False):
        kern = NetworkSimulator(
            cfg.replace(engine_vectorized=vectorized, engine_kernels=True)
        )
        assert type(kern) is KernelEngine
        assert isinstance(kern, VectorizedEngine)


def test_zoo_topology_dispatches_to_scalar_fast_path():
    """The SoA tiers run unit-latency 'torus'-family configs only: a zoo
    topology or non-unit link latency gets the scalar fast path, with any
    tier flags and no error."""
    dragonfly = tiny_default(topology="dragonfly", dims=(2, 1, 1), routing="df-min")
    assert dragonfly.engine_vectorized is True  # the default flags
    latency = tiny_default(link_latencies=(1, 2))
    for cfg in (
        dragonfly,
        dragonfly.replace(engine_kernels=True),
        latency,
        latency.replace(engine_kernels=True),
    ):
        assert cfg.engine_tier == "fast"
        sim = NetworkSimulator(cfg)
        assert type(sim) is NetworkSimulator
        assert sim.fast_path is True
        sim.run()


#: two 16-ary points of ``scripts/paper_scale_spot_checks.py`` (POINTS),
#: run with short warm-up/measure windows: the default engine against
#: legacy at the paper's own scale, census on
PAPER_SCALE_POINTS = {
    "FIG5 uni DOR1 L=0.6": dict(
        routing="dor", num_vcs=1, load=0.6, bidirectional=False
    ),
    "FIG7 TFAR2 L=1.0": dict(routing="tfar", num_vcs=2, load=1.0),
}


@pytest.mark.slow
@pytest.mark.parametrize("point", sorted(PAPER_SCALE_POINTS))
def test_default_engine_matches_legacy_at_paper_scale(point):
    from repro.config import paper_default

    cfg = paper_default(
        warmup_cycles=300, measure_cycles=1200, seed=1,
        **PAPER_SCALE_POINTS[point],
    )
    assert cfg.count_cycles
    assert cfg.engine_tier == "vectorized"
    runs = {}
    for name, flags in (("default", {}), ("legacy", ENGINES["legacy"])):
        sim = NetworkSimulator(cfg.replace(**flags))
        runs[name] = (sim, sim.run())
    (sim, result), (legacy_sim, legacy_result) = runs["default"], runs["legacy"]
    assert _result_fields(result) == _result_fields(legacy_result)
    assert _event_keys(sim) == _event_keys(legacy_sim)
    assert legacy_result.delivered > 0 and legacy_result.avg_cycle_count > 0
