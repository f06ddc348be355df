"""Tests of the benchmark itself: span arithmetic, workload configs, contract.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import multiprocessing
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from reference import legacy  # noqa: E402
from spans import SpanRecorder, analyze, percentile, tail_percentile  # noqa: E402

#: config fields a workload must leave at the program's defaults
UNPINNED = ("cwg_maintenance", "detector_caching", "obs_level")


def test_self_time_subtracts_direct_children_only():
    spans = [
        (1, 0, "run", 0.0, 10.0),
        (2, 1, "detect", 1.0, 4.0),
        (3, 2, "cycles", 2.0, 3.0),
        (4, 1, "tick", 5.0, 7.0),
    ]
    stats = analyze(spans)
    assert stats.self_s == pytest.approx({"run": 5.0, "detect": 2.0, "cycles": 1.0, "tick": 2.0})
    assert sum(stats.self_s.values()) == pytest.approx(10.0)
    assert stats.durations["detect"] == [3.0]


def test_nested_same_name_counts_outermost_once():
    spans = [
        (1, 0, "engine.construct", 0.0, 10.0),
        (2, 1, "engine.construct", 2.0, 5.0),
        (3, 2, "cwg", 3.0, 4.0),
    ]
    stats = analyze(spans)
    assert stats.durations["engine.construct"] == [10.0]
    assert stats.self_s["engine.construct"] == pytest.approx(9.0)
    assert stats.self_s["cwg"] == pytest.approx(1.0)


def test_recorder_nests_per_thread(tmp_path):
    rec = SpanRecorder(tmp_path)
    inner = rec.wrap("inner", lambda: None)
    outer = rec.wrap("outer", lambda: inner())
    outer()
    worker = threading.Thread(target=inner)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    spans = rec.collect()[0]["spans"]
    by_name = {}
    for sid, parent, name, _start, _end in spans:
        by_name.setdefault(name, []).append((sid, parent))
    outer_id = by_name["outer"][0][0]
    assert sorted(parent for _, parent in by_name["inner"]) == [0, outer_id]


def _child_body(traced):
    traced()


def test_forked_child_spans_are_roots_and_dumped(tmp_path):
    rec = SpanRecorder(tmp_path)
    leaf = rec.wrap("leaf", lambda: None)
    ctx = multiprocessing.get_context("fork")

    def spawn_inside_span():
        proc = ctx.Process(target=_child_body, args=(leaf,))
        proc.start()
        proc.join(timeout=30)
        assert proc.exitcode == 0

    rec.wrap("parent", spawn_inside_span)()
    records = rec.collect()
    assert [s[2] for s in records[0]["spans"]] == ["parent"]
    assert len(records) == 2
    child_spans = records[1]["spans"]
    assert [(s[1], s[2]) for s in child_spans] == [(0, "leaf")]


def test_scale_is_host_time_at_reference_speed():
    ref = hostspeed.REFERENCE_SAMPLE_S
    assert hostspeed.scale(4.0, [ref, ref]) == pytest.approx(4.0)
    # a host at half speed: the work and the kernel both take twice as long
    assert hostspeed.scale(8.0, [2 * ref, 2 * ref]) == pytest.approx(4.0)
    # the mean weighs each speed by its share of the samples
    assert hostspeed.scale(6.0, [ref, 2 * ref, ref, 2 * ref]) == pytest.approx(4.0)


def test_calibrator_gathers_forked_samples_and_times_only_its_own(tmp_path):
    cal = hostspeed.Calibrator(tmp_path / "samples")
    cal.take(2)
    own = cal.spent_s
    assert own > 0
    ctx = multiprocessing.get_context("fork")
    proc = ctx.Process(target=cal.take, args=(3,))
    proc.start()
    proc.join(timeout=30)
    assert proc.exitcode == 0
    assert cal.spent_s == own
    samples = cal.collect()
    assert len(samples) == 5 and all(t > 0 for t in samples)
    assert cal.collect() == []


def test_calibrator_samples_after_each_point_in_proportion(tmp_path, monkeypatch):
    clock = iter([0.0, 10 * hostspeed.REFERENCE_SAMPLE_S / hostspeed.SAMPLE_SHARE,
                  20.0, 20.001])
    monkeypatch.setattr(hostspeed.time, "perf_counter", lambda: next(clock))
    monkeypatch.setattr(hostspeed, "sample", lambda: 0.5)
    cal = hostspeed.Calibrator(tmp_path)
    point = cal.wrap(lambda: "result")
    assert point() == "result"
    assert len(cal.collect()) == 10
    assert point() == "result"
    assert len(cal.collect()) == 1


def test_percentiles():
    values = [float(i) for i in range(1, 101)]
    assert percentile(values, 50) == 50.0
    assert percentile([], 50) == 0.0
    assert tail_percentile(values) == (90.0, 90.0)
    assert tail_percentile([float(i) for i in range(1000)])[0] == 99.0
    assert tail_percentile([1.0, 2.0])[0] == 50.0


ALL_WORKLOADS = workloads.WORKLOADS + workloads.DIAGNOSTIC_WORKLOADS


@pytest.mark.parametrize("workload", ALL_WORKLOADS)
def test_workload_configs_pin_no_engine_or_detector_settings(workload):
    from repro.config import SimulationConfig

    defaults = {f.name: f.default for f in dataclasses.fields(SimulationConfig)}
    pinned = [n for n in defaults if n.startswith("engine") or n in UNPINNED]
    assert "engine_fast_path" in pinned
    configs = workloads.plan(workload, 1)
    assert configs
    for config in configs:
        for name in pinned:
            assert getattr(config, name) == defaults[name], (workload, name)


@pytest.mark.parametrize("workload", ALL_WORKLOADS)
def test_seed_reaches_every_point(workload):
    first = workloads.plan(workload, 1)
    other = workloads.plan(workload, 987_654)
    assert len(first) == len(other)
    assert {c.seed for c in other} == {987_654}
    assert [c.replace(seed=1) for c in other] == first


def test_legacy_reference_from_the_fastest_tier():
    from repro.config import SimulationConfig

    fastest = SimulationConfig(
        k=4, n=2, seed=3, engine_fast_path=True, engine_vectorized=True,
        engine_kernels=True,
    )
    ref = legacy(fastest)
    ref.validate()
    assert (ref.engine_fast_path, ref.engine_vectorized, ref.engine_kernels) == (
        False, False, False
    )
    assert ref.replace(engine_fast_path=True, engine_vectorized=True,
                       engine_kernels=True) == fastest


def test_workload_sizes():
    sizes = {w: len(workloads.plan(w, 1)) for w in ALL_WORKLOADS}
    assert sizes == {"fig5-bench": 12, "fig7-paper-sat": 4, "campaign-tiny": 32, "serve-tiny": 32}


def _defaults(fn) -> dict:
    return {
        name: p.default
        for name, p in inspect.signature(fn).parameters.items()
        if p.default is not inspect.Parameter.empty
    }


def test_runners_use_the_cli_defaults():
    from repro.campaign import CampaignRunner
    from repro.campaign.service import CampaignService
    from repro.cli import build_parser

    parser = build_parser()
    run_args = parser.parse_args(["campaign", "run", "FIG7", "--store", "s"])
    runner = _defaults(CampaignRunner.__init__)
    assert (run_args.retries, run_args.timeout, run_args.workers, run_args.max_points) == (
        runner["retries"], runner["timeout_s"], runner["max_workers"], runner["max_points"]
    )
    serve_args = parser.parse_args(["campaign", "serve", "FIG7", "--store", "s"])
    service = _defaults(CampaignService.__init__)
    assert (
        serve_args.host, serve_args.port, serve_args.status_port, serve_args.lease_ttl,
        serve_args.requeue_limit, serve_args.local_workers, serve_args.retries,
        serve_args.timeout,
    ) == (
        service["host"], service["port"], service["status_port"], service["lease_ttl"],
        service["requeue_limit"], service["local_workers"], service["retries"],
        service["timeout_s"],
    )


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
