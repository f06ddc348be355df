"""Per-layer tracing: spans around the program's public calls.

:func:`install` replaces public methods and functions of each layer with
span-recording wrappers from :mod:`spans`; nothing inside ``src/``
changes.  It runs before the traced workload forks, so campaign point
workers inherit the wrappers.  :func:`layer_metrics` turns the recorded
spans and counters into the per-layer metrics of ``BENCHMARK.json``.

=====================  =================================================
span / counter         wraps or reads
=====================  =================================================
engine.construct       ``NetworkSimulator.__init__`` (and overrides)
engine.run             ``NetworkSimulator.run``; after it, the simulated
                       cycles and ``detector.cache_stats()``
traffic.tick           ``MessageGenerator.tick``
routing.lookups        ``NetworkSimulator.route_candidates`` (counted)
routing.candidates     the simulator's ``routing.candidates`` (counted)
detect                 ``DeadlockDetector.detect``
cwg                    ``DeadlockDetector.build_cwg``,
                       ``NetworkSimulator.cwg_snapshot``
knots                  ``find_knots``, ``find_knots_contracted``
cycles                 ``count_simple_cycles``,
                       ``count_cycles_contracted``; cap hits counted
recover                ``RecoveryPolicy.victims`` (and overrides)
store.*                ``ResultStore.write/load/has/save_manifest/
                       compact_manifest``; ``write_artifact`` counts
                       as ``store.write``
campaign.run_points    ``CampaignRunner.run_points``
service.claim          ``LeaseScheduler.claim``; leases and the gap
                       from a worker's last finish to its next lease
service.finish         ``CampaignService.finish_point``
=====================  =================================================
"""

from __future__ import annotations

import statistics
import sys
import time

from spans import SpanRecorder, SpanStats, analyze, percentile, tail_percentile

__all__ = ["install", "layer_metrics", "LAYER_METRICS", "SPLIT_NAMES"]

#: per-layer metrics in output order, with units
LAYER_METRICS = (
    ("engine.self_s", "s"),
    ("engine.us_per_cycle", "us"),
    ("engine.construct_ms", "ms"),
    ("traffic.tick_us", "us"),
    ("routing.candidates_calls", "count"),
    ("routing.cache_hit_ratio", "ratio"),
    ("detect.passes", "count"),
    ("detect.pass_p50_ms", "ms"),
    ("detect.pass_tail_ms", "ms"),
    ("detect.self_s", "s"),
    ("detect.shortcircuit_ratio", "ratio"),
    ("detect.cache_hit_ratio", "ratio"),
    ("cwg.build_ms", "ms"),
    ("knots.ms", "ms"),
    ("cycles.calls", "count"),
    ("cycles.ms", "ms"),
    ("cycles.p50_ms", "ms"),
    ("cycles.tail_ms", "ms"),
    ("cycles.cap_hit_ratio", "ratio"),
    ("recover.calls", "count"),
    ("recover.ms", "ms"),
    ("sweep.points", "count"),
    ("sweep.point_p50_s", "s"),
    ("sweep.point_max_s", "s"),
    ("sweep.busy_frac", "ratio"),
    ("store.write_ms", "ms"),
    ("store.load_ms", "ms"),
    ("store.has_ms", "ms"),
    ("store.manifest_saves", "count"),
    ("store.manifest_save_ms", "ms"),
    ("store.bytes", "bytes"),
    ("runner.slot_idle_frac", "ratio"),
    ("runner.resume_ms", "ms"),
    ("campaign.executed", "count"),
    ("campaign.resumed", "count"),
    ("campaign.retries", "count"),
    ("service.claim_us", "us"),
    ("service.claim_yield", "ratio"),
    ("service.claim_gap_ms", "ms"),
    ("service.finish_ms", "ms"),
    ("service.compact_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
)

#: spans whose self times partition ``NetworkSimulator.run``
SPLIT_NAMES = ("engine.run", "traffic.tick", "detect", "cwg", "knots", "cycles", "recover")


def _subclasses(cls) -> list:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


def _wrap_methods(rec: SpanRecorder, base, attr: str, name: str, after=None) -> None:
    """Wrap ``attr`` on ``base`` and on every subclass that overrides it."""
    for cls in _subclasses(base):
        raw = cls.__dict__.get(attr)
        if raw is None:
            continue
        if isinstance(raw, staticmethod):
            setattr(cls, attr, staticmethod(rec.wrap(name, raw.__func__, after)))
        else:
            setattr(cls, attr, rec.wrap(name, raw, after))


def _wrap_function(rec: SpanRecorder, fn, name: str, after=None) -> None:
    """Replace ``fn`` in every loaded ``repro`` module that holds it, so
    ``from ... import fn`` call sites see the wrapper too."""
    traced = rec.wrap(name, fn, after)
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro") and (
            getattr(module, fn.__name__, None) is fn
        ):
            setattr(module, fn.__name__, traced)


def _counted(rec: SpanRecorder, name: str, fn):
    def counted(*args, **kwargs):
        rec.count(name)
        return fn(*args, **kwargs)

    return counted


def install(rec: SpanRecorder) -> None:
    """Wrap every layer's public calls; see the module docstring."""
    import repro.campaign.service  # noqa: F401 - load before patching
    import repro.core.cycles as cycles
    import repro.core.knots as knots
    from repro.campaign import CampaignRunner, ResultStore
    from repro.campaign.service import CampaignService
    from repro.campaign.service.scheduler import LeaseScheduler
    from repro.core.detector import DeadlockDetector
    from repro.core.recovery import RecoveryPolicy
    from repro.network.simulator import NetworkSimulator
    from repro.traffic.injection import MessageGenerator

    try:  # engine tiers that override __init__; absent without numpy
        import repro.network.kernels  # noqa: F401
        import repro.network.vectorized  # noqa: F401
    except ImportError:
        pass

    def after_construct(args, _result):
        routing = args[0].routing
        if "candidates" not in vars(routing):
            routing.candidates = _counted(rec, "routing.candidates", routing.candidates)

    def after_run(args, _result):
        sim = args[0]
        rec.count("engine.cycles", sim.cycle)
        for key, value in sim.detector.cache_stats().items():
            rec.count(f"detect.{key}", value)

    def after_cycles(_args, result):
        if result.saturated:
            rec.count("cycles.cap_hits")

    def after_run_points(args, _result):
        rec.sample("runner.workers", args[0].workers)

    last_finish: dict = {}

    def after_claim(args, lease):
        rec.count("service.claims")
        if lease is not None:
            rec.count("service.leases")
            finished = last_finish.pop(args[1], None)
            if finished is not None:
                rec.sample("service.claim_gap", time.perf_counter() - finished)

    def after_finish(args, _result):
        last_finish[args[1]] = time.perf_counter()

    _wrap_methods(rec, NetworkSimulator, "__init__", "engine.construct", after_construct)
    _wrap_methods(rec, NetworkSimulator, "run", "engine.run", after_run)
    NetworkSimulator.route_candidates = _counted(
        rec, "routing.lookups", NetworkSimulator.route_candidates
    )
    _wrap_methods(rec, NetworkSimulator, "cwg_snapshot", "cwg")
    _wrap_methods(rec, MessageGenerator, "tick", "traffic.tick")
    _wrap_methods(rec, DeadlockDetector, "detect", "detect")
    _wrap_methods(rec, DeadlockDetector, "build_cwg", "cwg")
    _wrap_function(rec, knots.find_knots, "knots")
    _wrap_function(rec, knots.find_knots_contracted, "knots")
    _wrap_function(rec, cycles.count_simple_cycles, "cycles", after_cycles)
    _wrap_function(rec, cycles.count_cycles_contracted, "cycles", after_cycles)
    _wrap_methods(rec, RecoveryPolicy, "victims", "recover")
    for attr in ("write", "load", "has", "save_manifest", "compact_manifest"):
        _wrap_methods(rec, ResultStore, attr, f"store.{attr}")
    # the service writes the artifacts its TCP workers ship back
    _wrap_methods(rec, ResultStore, "write_artifact", "store.write")
    _wrap_methods(rec, CampaignRunner, "run_points", "campaign.run_points", after_run_points)
    _wrap_methods(rec, LeaseScheduler, "claim", "service.claim", after_claim)
    _wrap_methods(rec, CampaignService, "finish_point", "service.finish", after_finish)


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    records: list[dict],
    *,
    wall_traced: float,
    wall_untraced: float,
    resume_s: float,
    nproc: int,
    store_bytes: int,
    campaign_counters: dict,
) -> tuple[dict, SpanStats]:
    """Per-layer metrics of one traced run, plus the merged span stats.

    ``records`` come from :meth:`SpanRecorder.collect` (the owning process
    first); ``wall_traced`` is the traced figure's wall time and
    ``resume_s`` the mean untraced resume time.
    """
    stats = SpanStats()
    counters: dict = {}
    samples: dict = {}
    child_busy = 0.0
    for index, record in enumerate(records):
        stats.merge(analyze(record["spans"]))
        for key, value in record["counters"].items():
            counters[key] = counters.get(key, 0) + value
        for key, values in record["samples"].items():
            samples.setdefault(key, []).extend(values)
        if index and record["spans"]:
            child_busy += max(s[4] for s in record["spans"]) - min(s[3] for s in record["spans"])

    d, c, self_s = stats.durations, counters, stats.self_s
    run_s = d.get("engine.run", [])
    detect_s = d.get("detect", [])
    cycle_s = d.get("cycles", [])
    passes = len(detect_s)
    reuse = c.get("detect.region_hits", 0) + c.get("detect.signature_hits", 0)
    slots = stats.total("campaign.run_points") * max(samples.get("runner.workers", [0]))
    m = {
        "engine.self_s": self_s.get("engine.run", 0.0),
        "engine.us_per_cycle": 1e6 * _ratio(self_s.get("engine.run", 0.0), c.get("engine.cycles", 0)),
        "engine.construct_ms": 1e3 * _mean(d.get("engine.construct")),
        "traffic.tick_us": 1e6 * _mean(d.get("traffic.tick")),
        "routing.candidates_calls": c.get("routing.candidates", 0),
        "routing.cache_hit_ratio": max(
            0.0, 1.0 - _ratio(c.get("routing.candidates", 0), c.get("routing.lookups", 0))
        ) if c.get("routing.lookups") else 0.0,
        "detect.passes": passes,
        "detect.pass_p50_ms": 1e3 * percentile(detect_s, 50),
        "detect.pass_tail_ms": 1e3 * tail_percentile(detect_s)[1],
        "detect.self_s": self_s.get("detect", 0.0),
        "detect.shortcircuit_ratio": _ratio(c.get("detect.shortcircuit_passes", 0), passes),
        "detect.cache_hit_ratio": _ratio(reuse, reuse + c.get("detect.region_misses", 0)),
        "cwg.build_ms": 1e3 * self_s.get("cwg", 0.0),
        "knots.ms": 1e3 * self_s.get("knots", 0.0),
        "cycles.calls": len(cycle_s),
        "cycles.ms": 1e3 * self_s.get("cycles", 0.0),
        "cycles.p50_ms": 1e3 * percentile(cycle_s, 50),
        "cycles.tail_ms": 1e3 * tail_percentile(cycle_s)[1],
        "cycles.cap_hit_ratio": _ratio(c.get("cycles.cap_hits", 0), len(cycle_s)),
        "recover.calls": stats.count("recover"),
        "recover.ms": 1e3 * self_s.get("recover", 0.0),
        "sweep.points": len(run_s),
        "sweep.point_p50_s": percentile(run_s, 50),
        "sweep.point_max_s": max(run_s, default=0.0),
        "sweep.busy_frac": _ratio(sum(run_s), wall_traced * nproc),
        "store.write_ms": 1e3 * stats.total("store.write"),
        "store.load_ms": 1e3 * stats.total("store.load"),
        "store.has_ms": 1e3 * stats.total("store.has"),
        "store.manifest_saves": stats.count("store.save_manifest"),
        "store.manifest_save_ms": 1e3 * stats.total("store.save_manifest"),
        "store.bytes": store_bytes,
        "runner.slot_idle_frac": max(0.0, 1.0 - _ratio(child_busy, slots)) if slots else 0.0,
        "runner.resume_ms": 1e3 * resume_s,
        "campaign.executed": campaign_counters.get("campaign/points_executed", 0),
        "campaign.resumed": campaign_counters.get("campaign/points_resumed", 0),
        "campaign.retries": campaign_counters.get("campaign/retries", 0),
        "service.claim_us": 1e6 * _mean(d.get("service.claim")),
        "service.claim_yield": _ratio(c.get("service.leases", 0), c.get("service.claims", 0)),
        "service.claim_gap_ms": 1e3 * _mean(samples.get("service.claim_gap")),
        "service.finish_ms": 1e3 * _mean(d.get("service.finish")),
        "service.compact_ms": 1e3 * _mean(d.get("store.compact_manifest")),
        "trace.overhead_frac": wall_traced / wall_untraced - 1.0,
    }
    return m, stats
